"""The benchmark's three workloads: inputs from a seed, operations and checks.

Every workload is a closed loop: one caller issues each operation after the
previous one returns.  A workload's inputs come from a fixed catalogue whose
results were recorded once, at the commit that introduced the benchmark, in
``reference.json``.  The seed picks and orders catalogue entries, so every
seed is checked against recorded results and the same seed always gives the
same inputs.

Operations look their entry point up on the hullmap module at call time, so
the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hullmap.cli
import hullmap.fit
import hullmap.search
from hullmap.fit import FitConfig
from hullmap.mapping import breadth_and_draft
from hullmap.section import SectionOffsets, from_points, serialize_offsets
from hullmap.shapes import (
    bulb_section,
    chine_section,
    circle_section,
    ellipse_section,
    fine_section,
    heel_section,
    heeled_rectangle,
    rectangle_section,
    superellipse_section,
)

CATALOGUE_SEED = 150305409

# Agreement with the recorded results: |got - want| <= REL_TOL*|want| + ABS_TOL.
REL_TOL = 1e-9
ABS_TOL = 1e-14
# A symmetric fit holds breadth and draft through two exact constraint rows,
# so they may miss only by round-off of the constrained solve.
CONSTRAINT_TOL = 1e-10

# search-gallery: the ROADMAP's four 41-point shapes, order range capped as in
# `run_shapes.py --quick` but far lower, so that a 60 s run repeats each
# search 10 to 20 times.  Every shape still rejects orders, and the bulb
# accepts a second one after its tolerance tightens.
GALLERY = {
    "rectangle": lambda: rectangle_section(41, breadth=2.0, draft=1.0),
    "bulb": lambda: bulb_section(41),
    "fine": lambda: fine_section(41),
    "chine": lambda: chine_section(41),
}
ORDER_RANGE = (5, 7)

# fit-stations: low-order fits of a seeded hull with the library's default
# sweep budget, as the library example of the top-level README.md calls
# `fit_section`, to a tolerance of 1e-4 of the squared section scale.
STATION_CATALOGUE = 256
HULL_STATIONS = 10
STATION_TOL_SCALE = 1e-4
# A seed's draw is redrawn until its recorded cost per pass is within this
# share of the typical draw's (`balanced`), so every seed does about as much work.
COST_BALANCE = 0.05

# Catalogue entries whose operation raised when the reference was recorded:
# heeled rectangles whose angle assignment loses both anchor points
# (README.md, "Known defects").  They stay in the draws, and the check expects
# exactly the recorded exception; record_reference.py stops if the set of
# raising entries ever differs from this list.
KNOWN_DEFECTS = {
    "fit-stations": (23, 65, 71, 83, 113, 119, 131, 149),
    "cli-batch": (),
}

# cli-batch: per pass, this many commands of each kind.
CLI_CATALOGUE = 64
# Three evaluates are the dearest commands, so the 90th percentile of 21
# falls among them and not between two kinds.
CLI_MIX = {"lewis": 6, "fit": 7, "fit-heeled": 3, "search": 2, "evaluate": 3}
# Loose tolerances, keyed by symmetry, and orders of at least 5, so that fits
# stop after a few sweeps and parsing and emission keep their weight.  Heeled
# fits at low order rarely get below a tenth of the squared scale and some stay
# above half of it, hence theirs is looser still.
CLI_FIT_TOL_SCALE = {True: 3e-2, False: 1.0}
CLI_MIN_ORDER = 5
EVALUATE_SAMPLES = 10000
# Numeric lists up to this length are checked number by number; longer ones
# (the evaluate contours, 3 x EVALUATE_SAMPLES numbers) by a fingerprint.
FULL_NUMBERS = 1000
FINGERPRINT_STRIDE = 50


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns the problems it finds.

    ``raises`` is the exception, as "Type: message", that the reference
    recorded for a known defect; the operation must then raise exactly that.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    raises: str | None = None


# A workload's operations, and the warm-up calls its set-up makes.
Built = tuple[list[Op], list[Callable[[], object]]]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def outcome(exc: BaseException) -> str:
    """An exception as the reference records it."""
    return f"{type(exc).__name__}: {exc}"


def compare(got, want, path: str = "") -> list[str]:
    """Differences between two JSON-like values, floats within the tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        # A fingerprint's shares are fractions of the array's magnitude, so
        # their round-off is absolute.
        close = abs(got - want) <= REL_TOL if path.endswith("_share") else _close(float(got), want)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _numbers(value) -> list[float] | None:
    """All numbers of a (nested) numeric list, or None if it holds anything else."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, list):
        out: list[float] = []
        for item in value:
            inner = _numbers(item)
            if inner is None:
                return None
            out.extend(inner)
        return out
    return None


def fingerprint(value):
    """A report reduced to what the checks compare.

    Everything is kept as it is except numeric lists of more than
    FULL_NUMBERS numbers (the contours of `evaluate --samples 10000`), which
    become their length, every FINGERPRINT_STRIDE-th number, and their signed
    and position-weighted sums as shares of the sum of magnitudes: a sign flip
    or a swap of two entries changes the sums.
    """
    if isinstance(value, dict):
        return {key: fingerprint(item) for key, item in value.items()}
    if isinstance(value, list):
        flat = _numbers(value)
        if flat is not None and len(flat) > FULL_NUMBERS:
            magnitude = math.fsum(abs(v) for v in flat) or 1.0
            return {
                "count": len(flat),
                "every_nth": flat[::FINGERPRINT_STRIDE],
                "sum_share": math.fsum(flat) / magnitude,
                "weighted_share": math.fsum(k * v for k, v in enumerate(flat, 1)) / (len(flat) * magnitude),
            }
        return [fingerprint(item) for item in value]
    return value


def constraint_problems(section: SectionOffsets, coefficients) -> list[str]:
    """Breadth and draft of a symmetric fit against the section's, to round-off."""
    if not section.symmetric:
        return []
    breadth, draft = breadth_and_draft(coefficients)
    scale = max(section.breadth, section.draft)
    if abs(breadth - section.breadth) > CONSTRAINT_TOL * scale or abs(draft - section.draft) > CONSTRAINT_TOL * scale:
        return [
            f"breadth/draft {breadth!r}/{draft!r} miss the section's "
            f"{section.breadth!r}/{section.draft!r}"
        ]
    return []


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_profile(costs: list[float]) -> tuple[float, float, float]:
    """What the end-to-end metrics take from a pass: total, median and 90th percentile."""
    return sum(costs), percentile(costs, 50), percentile(costs, 90)


def slices(indices: list[int], cost: list[float], strata: int) -> list[list[int]]:
    """``indices`` ranked by cost and cut into ``strata`` slices of equal size."""
    ranked = sorted(indices, key=lambda i: (cost[i], i))
    bounds = np.linspace(0, len(ranked), strata + 1).astype(int)
    return [ranked[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def balanced(groups: list[tuple[list[int], int]], cost: list[float], rng) -> list[int]:
    """One seeded pick from each cost slice of each (indices, strata) group, shuffled.

    Recorded costs are heavy-tailed, so the draw is repeated until the
    total, median and 90th percentile of its costs are each within
    COST_BALANCE of those of the typical draw, the one that takes every
    slice's median entry.  Every seed then does about the same work per pass
    while its inputs change.
    """
    cut = [piece for indices, strata in groups for piece in slices(indices, cost, strata)]
    target = pass_profile([cost[piece[len(piece) // 2]] for piece in cut])
    for _ in range(100000):
        picks = [piece[int(rng.integers(len(piece)))] for piece in cut]
        profile = pass_profile([cost[i] for i in picks])
        if all(abs(got - want) <= COST_BALANCE * want for got, want in zip(profile, target)):
            return [picks[k] for k in rng.permutation(len(picks))]
    raise RuntimeError("no draw within COST_BALANCE of the typical draw")


# --- search-gallery ---------------------------------------------------------

def gallery_entries() -> dict[str, SectionOffsets]:
    return {name: build() for name, build in GALLERY.items()}


def search_summary(report) -> dict:
    return {"N_best": int(report.best_order), "E_best": float(report.best_error)}


def run_search(section: SectionOffsets):
    return hullmap.search.search_optimum(section, order_range=ORDER_RANGE)


def search_gallery(seed: int, reference: dict, workdir: Path) -> Built:
    """The four gallery searches in a seeded order; warm-up is a short fit of each."""
    sections = gallery_entries()
    names = list(sections)
    order = np.random.default_rng(seed).permutation(len(names))
    ops, warm = [], []
    for k in order:
        name = names[k]
        section = sections[name]
        want = reference["search-gallery"][name]

        def check(report, section=section, want=want):
            return compare(search_summary(report), want) + constraint_problems(
                section, report.best_fit.coefficients
            )

        ops.append(Op(name, lambda section=section: run_search(section), check))
        warm.append(lambda section=section: run_station(section, FitConfig(ORDER_RANGE[0], 0.0, 2)))
    return ops, warm


# --- fit-stations -----------------------------------------------------------

def _scaled(section: SectionOffsets, sx: float, sy: float) -> SectionOffsets:
    return from_points(section.points * np.array([sx, sy]), True)


def station_specs() -> list[dict]:
    """The fixed catalogue of hull stations the seeded hulls are drawn from."""
    rng = np.random.default_rng(CATALOGUE_SEED)
    families = ("superellipse", "rectangle", "chine", "fine", "heeled_superellipse", "heeled_rectangle")
    specs = []
    for index in range(STATION_CATALOGUE):
        family = families[index % len(families)]
        specs.append({
            "family": family,
            "count": int(rng.integers(11, 82)),
            "breadth": round(float(rng.uniform(1.0, 4.0)), 3),
            "draft": round(float(rng.uniform(0.5, 2.0)), 3),
            "power": round(float(rng.uniform(2.2, 4.0)), 3),
            "heel": round(float(rng.uniform(5.0, 20.0)), 2),
            "order": int(rng.integers(3, 13)),
        })
    return specs


def station_section(spec: dict) -> SectionOffsets:
    family, count = spec["family"], spec["count"]
    breadth, draft = spec["breadth"], spec["draft"]
    if family == "superellipse":
        return superellipse_section(count, breadth, draft, spec["power"])
    if family == "rectangle":
        return rectangle_section(count, breadth, draft)
    if family == "chine":
        return _scaled(chine_section(count), breadth / 2.1, draft / 1.2)
    if family == "fine":
        return fine_section(count, breadth / 2.0, draft)
    if family == "heeled_superellipse":
        # The mirrored hull has about twice the half-section's points.
        return heel_section(superellipse_section(count // 2 + 1, breadth, draft, spec["power"]), spec["heel"])
    if family == "heeled_rectangle":
        return heeled_rectangle(count, breadth, draft, spec["heel"])
    raise ValueError(f"unknown station family {family!r}")


def station_config(section: SectionOffsets, spec: dict) -> FitConfig:
    scale = max(section.breadth, section.draft)
    return FitConfig(spec["order"], STATION_TOL_SCALE * scale * scale)


def station_summary(result) -> dict:
    return {"error": float(result.error), "converged": bool(result.converged)}


def station_record(result) -> dict:
    """The checked summary of a fit, or the exception it raised."""
    if isinstance(result, Exception):
        return {"raises": outcome(result)}
    return station_summary(result)


def run_station(section: SectionOffsets, config: FitConfig):
    return hullmap.fit.fit_section(section, config)


def fit_stations(seed: int, reference: dict, workdir: Path) -> Built:
    """A seeded hull of catalogue stations, one low-order fit each."""
    specs = station_specs()
    recorded = reference["fit-stations"]
    cost = [entry["cost"] for entry in recorded]
    everything = list(range(len(recorded)))
    picks = balanced([(everything, HULL_STATIONS)], cost, np.random.default_rng(seed))
    ops = []
    for index in picks:
        spec = specs[index]
        section = station_section(spec)
        config = station_config(section, spec)
        want = {key: recorded[index][key] for key in ("error", "converged") if key in recorded[index]}

        def check(result, section=section, want=want):
            return compare(station_summary(result), want) + constraint_problems(
                section, result.coefficients
            )

        ops.append(Op(f"station{index}", lambda s=section, c=config: run_station(s, c), check,
                      recorded[index].get("raises")))
    # The same two short fits for every seed: one upright, one heeled station.
    warm = []
    for index in (0, 4):
        section = station_section(specs[index])
        config = FitConfig(specs[index]["order"], 0.0, 2)
        warm.append(lambda s=section, c=config: run_station(s, c))
    return ops, warm


# --- cli-batch --------------------------------------------------------------

def cli_specs() -> list[dict]:
    """The fixed catalogue of CLI commands; each kind fills its own slots."""
    rng = np.random.default_rng(CATALOGUE_SEED + 1)
    stations = station_specs()
    specs = []
    heeled = [i for i, spec in enumerate(stations) if spec["family"].startswith("heeled")]
    upright = [i for i in range(len(stations)) if i not in heeled]
    slots = [slot for slot, count in CLI_MIX.items() for _ in range(count)]
    for index in range(CLI_CATALOGUE):
        slot = slots[index % len(slots)]
        kind = slot.split("-")[0]
        spec = {"slot": slot, "kind": kind}
        if slot == "lewis":
            spec["station"] = int(rng.integers(len(stations)))
        elif kind == "fit":
            spec["station"] = int(rng.choice(heeled if slot == "fit-heeled" else upright))
        elif kind == "search":
            spec["shape"] = "circle" if index % 2 else "ellipse"
            spec["count"] = int(rng.integers(11, 82))
            spec["breadth"] = round(float(rng.uniform(1.0, 4.0)), 3)
            spec["draft"] = round(float(rng.uniform(0.5, 2.0)), 3)
        else:
            spec["symmetric"] = bool(index % 2)
            spec["order"] = int(rng.integers(2, 13))
            spec["F"] = round(float(rng.uniform(0.5, 2.0)), 4)
            spec["a"] = [1.0] + [round(float(v), 5) for v in rng.normal(0.0, 0.05, spec["order"])]
        specs.append(spec)
    return specs


def _cli_input(spec: dict, stem: str, folder: Path, stations: list[dict]) -> list[str]:
    """Write the command's input file and return its argument list."""
    kind = spec["kind"]
    if kind == "evaluate":
        path = folder / f"{stem}.json"
        path.write_text(json.dumps({"F": spec["F"], "a": spec["a"], "symmetric": spec["symmetric"]}))
        return ["evaluate", "--input", str(path), "--samples", str(EVALUATE_SAMPLES), "--emit", "json,csv"]
    if kind == "search":
        if spec["shape"] == "circle":
            section = circle_section(spec["count"], 0.5 * spec["breadth"])
        else:
            section = ellipse_section(spec["count"], spec["breadth"], spec["draft"])
    else:
        station = stations[spec["station"]]
        section = station_section(station)
    path = folder / f"{stem}.txt"
    path.write_text(serialize_offsets(section))
    argv = [kind, "--input", str(path)]
    if kind == "fit":
        scale = max(section.breadth, section.draft)
        tolerance = CLI_FIT_TOL_SCALE[section.symmetric] * scale * scale
        argv += ["--n", str(max(station["order"], CLI_MIN_ORDER)), "--sigma-e", repr(tolerance),
                 "--emit", "json,csv,svg"]
    elif kind == "search":
        argv += ["--emit", "json,svg"]
    return argv + ["--no-timing"]


def cli_report(spec: dict, stem: str, out: Path) -> dict:
    return json.loads((out / f"{stem}_{spec['kind']}.json").read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `hullmap` command: its exit code and its console output."""
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        code = hullmap.cli.main(argv)
    return code, console.getvalue()


def cli_command(spec: dict, index: int, folder: Path, stations: list[dict]) -> tuple[list[str], Path, str]:
    stem = f"cmd{index}"
    out = folder / f"out{index}"
    argv = _cli_input(spec, stem, folder, stations) + ["--out", str(out)]
    return argv, out, stem


def cli_summary(code: int, spec: dict, stem: str, out: Path) -> dict:
    summary = {"exit": int(code)}
    if code == 0:
        summary["report"] = fingerprint(cli_report(spec, stem, out))
    return summary


def cli_batch(seed: int, reference: dict, workdir: Path) -> Built:
    """A seeded mix of `lewis`, `fit`, `search` and `evaluate` commands on files written here."""
    specs = cli_specs()
    stations = station_specs()
    recorded = reference["cli-batch"]
    cost = [entry["cost"] for entry in recorded]
    by_slot: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        by_slot.setdefault(spec["slot"], []).append(index)
    picks = balanced([(by_slot[slot], count) for slot, count in CLI_MIX.items()], cost,
                     np.random.default_rng(seed))
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ops = []
    for index in picks:
        spec = specs[index]
        argv, out, stem = cli_command(spec, index, workdir, stations)
        want = {key: recorded[index][key] for key in ("exit", "report") if key in recorded[index]}

        def check(result, spec=spec, stem=stem, out=out, want=want):
            return compare(cli_summary(result[0], spec, stem, out), want)

        ops.append(Op(f"{spec['kind']}{index}", lambda argv=argv: run_cli(argv), check))
    # The same commands for every seed: the first entry of each slot.
    warm = []
    (workdir / "warm").mkdir()
    for indices in by_slot.values():
        argv, _, _ = cli_command(specs[indices[0]], indices[0], workdir / "warm", stations)
        warm.append(lambda argv=argv: run_cli(argv))
    return ops, warm


def remove_workdir(workdir: Path) -> None:
    """Remove a run's working folder, and the shared parent once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()


def bytes_written(workdir: Path) -> int:
    """Bytes of every file the measured commands wrote: their ``out*`` folders."""
    return sum(path.stat().st_size for path in workdir.glob("out*/*"))


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, dict, Path], Built]
    # Spans the traced run must see at least once per pass.
    required: tuple[str, ...]


# README.md gives the reason for each workload.
WORKLOADS = {
    "search-gallery": Workload(
        search_gallery,
        ("search", "fit", "theta", "linsys.assemble", "linsys.solve"),
    ),
    "fit-stations": Workload(
        fit_stations,
        ("fit", "theta", "linsys.assemble", "linsys.solve"),
    ),
    "cli-batch": Workload(
        cli_batch,
        ("cli", "section.load", "mapping.lewis", "mapping.eval", "report.build", "report.ns",
         "search", "fit", "theta", "linsys.assemble", "linsys.solve"),
    ),
}
