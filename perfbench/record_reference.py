"""Record the results the benchmark checks every operation against.

Usage: python3 perfbench/record_reference.py

Runs every catalogue entry of every workload once and writes
``perfbench/reference.json``.  The file is recorded at the commit that
introduced the benchmark and is the yardstick for later commits, so rerun
this only when a change to the benchmark's catalogue requires it, never to
absorb a change in the program's results.  Each entry also gets a cost, its
fastest time in seconds, which only ranks and balances the draws (see
``workloads.balanced``).  An entry whose operation raises or
exits nonzero is recorded with that outcome only if it is listed in
``workloads.KNOWN_DEFECTS``; any other failure, or a listed entry that no
longer fails, stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from hullmap.errors import HullmapError  # noqa: E402

# Rounds of timing over a whole catalogue.  An entry's cost is its fastest
# round, and rounds are spread over minutes so that a spell of host load
# rarely covers all of them.  Costs only rank and balance the draws.
COST_ROUNDS = 8


def costs(runs) -> list[float]:
    """Each run's fastest time, in seconds, over COST_ROUNDS rounds through all of them."""
    best = [float("inf")] * len(runs)
    for _ in range(COST_ROUNDS):
        for k, run in enumerate(runs):
            started = time.perf_counter()
            try:
                run()
            except HullmapError:
                pass
            best[k] = min(best[k], time.perf_counter() - started)
    return best


def check_failures(workload: str, failing: list[int]) -> None:
    known = sorted(wl.KNOWN_DEFECTS[workload])
    if failing != known:
        raise RuntimeError(f"{workload}: entries {failing} failed, KNOWN_DEFECTS lists {known}")


def record_gallery() -> dict:
    out = {}
    for name, section in wl.gallery_entries().items():
        report = wl.run_search(section)
        problems = wl.constraint_problems(section, report.best_fit.coefficients)
        if problems:
            raise RuntimeError(f"{name}: {problems}")
        out[name] = wl.search_summary(report)
        print(f"search-gallery {name}: {out[name]}", flush=True)
    return out


def record_stations() -> list[dict]:
    out, failing, runs = [], [], []
    for index, spec in enumerate(wl.station_specs()):
        section = wl.station_section(spec)
        config = wl.station_config(section, spec)
        try:
            result = wl.run_station(section, config)
        except HullmapError as exc:
            result = exc
            failing.append(index)
            print(f"fit-stations {index} {spec}: {wl.outcome(exc)}", flush=True)
        else:
            problems = wl.constraint_problems(section, result.coefficients)
            if problems:
                raise RuntimeError(f"station {index}: {problems}")
        out.append(wl.station_record(result))
        runs.append(lambda s=section, c=config: wl.run_station(s, c))
    check_failures("fit-stations", failing)
    for entry, cost in zip(out, costs(runs)):
        entry["cost"] = cost
    return out


def record_cli(workdir: Path) -> list[dict]:
    stations = wl.station_specs()
    out, failing, runs = [], [], []
    for index, spec in enumerate(wl.cli_specs()):
        argv, folder, stem = wl.cli_command(spec, index, workdir, stations)
        code, console = wl.run_cli(argv)
        if code != 0:
            failing.append(index)
            print(f"cli-batch {index} {argv[0]}: exit {code}: {console.strip()}", flush=True)
        out.append(wl.cli_summary(code, spec, stem, folder))
        runs.append(lambda argv=argv: wl.run_cli(argv))
    check_failures("cli-batch", failing)
    for entry, cost in zip(out, costs(runs)):
        entry["cost"] = cost
    return out


def main() -> int:
    workdir = BENCH.parent / ".perfbench_work" / "record"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        reference = {
            "search-gallery": record_gallery(),
            "fit-stations": record_stations(),
            "cli-batch": record_cli(workdir),
        }
    finally:
        wl.remove_workdir(workdir)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
