"""Print three SHA-256 digests: the trajectories of fixed fits, the gallery searches, the order floors.

Usage: PYTHONPATH=src python scripts/trajectory_digest.py [--verbose]

The first line covers fits of the four gallery shapes (rectangle, bulb,
fine, chine; 41 points each), circle41 and heeled_rectangle(21, 15 deg),
each at N = 5, 8 and 12, plus rectangle41 and bulb41 at N = 30 and 60 (the
angle solver's rounding bounds grow with N), all to tolerance
1e-8 * scale^2.  It covers the raw bytes of every fit's error_history,
fa_history, each sweep's angles and unresolved set, and mapped_points.  A
fit that raises contributes its exception type and message instead.

The second line covers `search_optimum(section, (5, 7))` of the four
gallery shapes, the searches of perfbench's search-gallery workload: each
report's per_order records without their seconds, tolerance_trace, best
order and error, and the bytes of best_fit's last coefficient vector,
angles and mapped points.

The third line covers the `min_error_for_order` floors that the acceptance
tests compute: rectangle41 at N = 5, 6 and 12 to tolerance 10, and
heeled_rectangle(21, 15 deg) at N = 12 and 30 to tolerance 0.2, as the
bytes of each floor error.

hullmap is imported from whatever tree is on PYTHONPATH, so running the
script against two checkouts shows whether a change keeps every trajectory
bit-identical.  The digest depends on the numpy and BLAS build, so compare
two trees on one machine; it is not a value to pin in a test.
"""

import argparse
import hashlib

import numpy as np

import hullmap
from hullmap.errors import HullmapError
from hullmap.fit import FitConfig, fit_section
from hullmap.search import min_error_for_order, search_optimum
from hullmap.shapes import (
    bulb_section,
    chine_section,
    circle_section,
    fine_section,
    heeled_rectangle,
    rectangle_section,
)

SECTIONS = {
    "rectangle41": lambda: rectangle_section(41, breadth=2.0, draft=1.0),
    "bulb41": lambda: bulb_section(41),
    "fine41": lambda: fine_section(41),
    "chine41": lambda: chine_section(41),
    "circle41": lambda: circle_section(41),
    "heeled_rectangle21": lambda: heeled_rectangle(21, heel_deg=15.0),
}
ORDERS = (5, 8, 12)
HIGH_ORDERS = {"rectangle41": (30, 60), "bulb41": (30, 60)}
GALLERY = ("rectangle41", "bulb41", "fine41", "chine41")
SEARCH_ORDERS = (5, 7)
FLOORS = {"rectangle41": ((5, 6, 12), 10.0), "heeled_rectangle21": ((12, 30), 0.2)}


def _fit_bytes(section, order: int) -> bytes:
    scale = max(section.breadth, section.draft)
    try:
        result = fit_section(section, FitConfig(order, 1e-8 * scale * scale))
    except HullmapError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    parts = [np.asarray(result.error_history, dtype=float).tobytes()]
    parts.extend(np.asarray(fa, dtype=float).tobytes() for fa in result.fa_history)
    for sweep in result.theta_history:
        parts.append(sweep.theta.tobytes())
        parts.append(np.array(sorted(sweep.unresolved), dtype=np.int64).tobytes())
    parts.append(np.asarray(result.mapped_points, dtype=float).tobytes())
    return b"".join(parts)


def _search_bytes(section) -> bytes:
    try:
        report = search_optimum(section, SEARCH_ORDERS)
    except HullmapError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    records = [(r.order, r.e_min, r.iterations) for r in report.per_order]
    fit = report.best_fit
    parts = [
        np.array(records, dtype=float).tobytes(),
        np.array(report.tolerance_trace, dtype=float).tobytes(),
        np.array([report.best_order, report.best_error], dtype=float).tobytes(),
        np.asarray(fit.fa_history[-1], dtype=float).tobytes(),
        fit.thetas.theta.tobytes(),
        np.asarray(fit.mapped_points, dtype=float).tobytes(),
    ]
    return b"".join(parts)


def _floor_bytes(section, order: int, tolerance: float) -> bytes:
    try:
        floor = min_error_for_order(section, order, FitConfig(order, tolerance))
    except HullmapError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return np.array([floor], dtype=float).tobytes()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print one digest per fit, search and floor")
    args = parser.parse_args()
    fits, searches, floors = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for name, build in SECTIONS.items():
        section = build()
        for order in ORDERS + HIGH_ORDERS.get(name, ()):
            blob = _fit_bytes(section, order)
            fits.update(blob)
            if args.verbose:
                print(f"{name} N={order}: {hashlib.sha256(blob).hexdigest()}")
        if name in GALLERY:
            blob = _search_bytes(section)
            searches.update(blob)
            if args.verbose:
                print(f"{name} search {SEARCH_ORDERS}: {hashlib.sha256(blob).hexdigest()}")
        orders, tolerance = FLOORS.get(name, ((), 0.0))
        for order in orders:
            blob = _floor_bytes(section, order, tolerance)
            floors.update(blob)
            if args.verbose:
                print(f"{name} floor N={order} tol={tolerance}: {hashlib.sha256(blob).hexdigest()}")
    if args.verbose:
        print(f"hullmap from {hullmap.__file__}")
    print(fits.hexdigest())
    print(searches.hexdigest())
    print(floors.hexdigest())


if __name__ == "__main__":
    main()
