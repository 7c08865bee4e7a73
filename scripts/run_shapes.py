"""Run the optimum-order search over the section gallery and tabulate results.

Usage: python scripts/run_shapes.py [--quick] [--out DIR]

With --quick the search range is capped at N=40, which trades the last few
digits of E_min for a much shorter run.  With --out the full JSON report of
each shape is written alongside the table.
"""

import argparse
import math
import time
from pathlib import Path

from hullmap.fit import FitConfig, fit_section
from hullmap.report import AccuracyReport, build_report, nash_sutcliffe, write_report
from hullmap.search import search_optimum
from hullmap.shapes import (
    bulb_section,
    chine_section,
    fine_section,
    heeled_rectangle,
    rectangle_section,
)

SYMMETRIC_GALLERY = {
    "rectangle": lambda: rectangle_section(41, breadth=2.0, draft=1.0),
    "bulb": lambda: bulb_section(41),
    "fine": lambda: fine_section(41),
    "chine": lambda: chine_section(41),
}


def run_search(name, section, order_cap, out_dir):
    started = time.perf_counter()
    outcome = search_optimum(section, order_range=(5, order_cap))
    elapsed = time.perf_counter() - started
    best = outcome.best_fit
    ex, ey = nash_sutcliffe(section.points, best.mapped_points)
    log_e = math.log10(outcome.best_error) if outcome.best_error > 0.0 else float("-inf")
    print(
        f"{name:18s} N={outcome.best_order:3d}  E_min={outcome.best_error:11.4e}  "
        f"log10={log_e:7.2f}  NS=({ex:.9f}, {ey:.9f})  {elapsed:6.1f}s  "
        f"{len(outcome.per_order)} accepted orders"
    )
    if out_dir is not None:
        report = build_report(best, AccuracyReport(ex, ey, elapsed), name, section.symmetric, outcome)
        write_report(out_dir / f"{name}_search.json", report)


def run_heeled(out_dir):
    section = heeled_rectangle(21, heel_deg=15.0)
    for order in (12, 30):
        started = time.perf_counter()
        result = fit_section(section, FitConfig(order, 0.2))
        elapsed = time.perf_counter() - started
        print(
            f"{'heeled_rectangle':18s} N={order:3d}  E    ={result.error:11.4e}  "
            f"{result.iterations} sweeps ({result.stop_reason})  {elapsed:6.1f}s"
        )
        if out_dir is not None:
            ex, ey = nash_sutcliffe(section.points, result.mapped_points)
            report = build_report(
                result, AccuracyReport(ex, ey, elapsed), "heeled_rectangle", False
            )
            write_report(out_dir / f"heeled_rectangle_n{order}_fit.json", report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    order_cap = 40 if args.quick else 100
    for name, build in SYMMETRIC_GALLERY.items():
        run_search(name, build(), order_cap, args.out)
    run_heeled(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
