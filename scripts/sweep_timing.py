"""Time the angle step of this tree against a git revision of it, on the search-gallery sweeps.

Usage: python scripts/sweep_timing.py REF

Exports REF's `src/` with `git archive` into a temporary directory and
imports its package as `hullmap_ref`, in this process next to this tree's
`hullmap`; every import inside the package is relative, so the two load
side by side.  Runs `search_optimum(section, (5, 7))` once with this tree
on the four 41-point gallery shapes of perfbench's search-gallery
workload, capturing the arguments of every `assign_thetas` call its fits
make.  Then it times each captured call on both trees, alternating REF and
this tree call by call, and keeps the fastest of `REPEATS` runs of each.
It prints the number of calls, both totals, their ratio (this tree over
REF) and how many calls gave different angles or unresolved points on the
two trees.  The temporary directory is removed afterwards.
"""

import argparse
import gc
import importlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hullmap.fit  # noqa: E402
from hullmap.search import search_optimum  # noqa: E402
from hullmap.shapes import bulb_section, chine_section, fine_section, rectangle_section  # noqa: E402

REPEATS = 7
ORDER_RANGE = (5, 7)
GALLERY = (
    lambda: rectangle_section(41, breadth=2.0, draft=1.0),
    lambda: bulb_section(41),
    lambda: fine_section(41),
    lambda: chine_section(41),
)


def _captured_calls() -> list[tuple]:
    """The (scaled, section, previous) arguments of every `assign_thetas` call of the gallery searches."""
    real, calls = hullmap.fit.assign_thetas, []

    def capture(scaled, section, previous=None):
        out = real(scaled, section, previous)
        calls.append((scaled, section, previous))
        return out

    hullmap.fit.assign_thetas = capture
    try:
        for build in GALLERY:
            search_optimum(build(), ORDER_RANGE)
    finally:
        hullmap.fit.assign_thetas = real
    return calls


def _ref_calls(ref, calls: list[tuple]) -> list[tuple]:
    """``calls`` with REF's own objects: one REF section per section, as a search holds one."""
    sections = {}
    out = []
    for scaled, section, previous in calls:
        if section not in sections:
            sections[section] = ref.section.from_points(section.points, section.symmetric)
        before = None if previous is None else ref.theta.ThetaAssignment(previous.theta, previous.unresolved)
        out.append((ref.mapping.ScaledCoefficients(scaled.values), sections[section], before))
    return out


def _seconds(solve, args) -> float:
    started = time.perf_counter()
    solve(*args)
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against, such as HEAD~1")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.ref, "src/hullmap"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        (Path(tmp) / "src" / "hullmap").rename(Path(tmp) / "hullmap_ref")
        sys.path.insert(0, tmp)
        ref = importlib.import_module("hullmap_ref")
        for module in ("mapping", "section", "theta"):
            importlib.import_module(f"hullmap_ref.{module}")
        here_calls = _captured_calls()
        ref_calls = _ref_calls(ref, here_calls)
        solvers = (ref.theta.assign_thetas, hullmap.fit.assign_thetas)
        best = np.full((2, len(here_calls)), np.inf)
        differ = 0
        gc.disable()
        try:
            for k, pair in enumerate(zip(ref_calls, here_calls)):
                theirs, ours = (solve(*call) for solve, call in zip(solvers, pair))
                same = np.array_equal(theirs.theta, ours.theta) and theirs.unresolved == ours.unresolved
                differ += not same
                for _ in range(REPEATS):
                    for side, (solve, call) in enumerate(zip(solvers, pair)):
                        best[side, k] = min(best[side, k], _seconds(solve, call))
        finally:
            gc.enable()
    total_ref, total_here = best.sum(axis=1)
    print(f"calls: {len(here_calls)} (search_optimum on 4 gallery shapes, orders {ORDER_RANGE})")
    print(f"fastest of {REPEATS} per call, summed: {args.ref} {total_ref:.4f} s, here {total_here:.4f} s")
    print(f"ratio here/{args.ref}: {total_here / total_ref:.4f}")
    print(f"calls with different angles or unresolved points: {differ}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
