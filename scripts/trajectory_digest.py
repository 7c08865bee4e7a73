"""Print three SHA-256 digests: the trajectories of fixed fits, the gallery searches, the order floors.

Usage: PYTHONPATH=src python scripts/trajectory_digest.py [--verbose] [--dump FILE.npz]

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
bit-identical.  `--dump` also writes each digested trajectory's angles,
scaled coefficients and errors (or the exception a fit raised) to an .npz
file, which `scripts/compare_trees.py --diff` reads to say by how much two
trees differ.  The digest depends on the numpy and BLAS build, so compare
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


# A digested trajectory as numbers: "theta" (angles), "fa" (scaled
# coefficients) and "E" (errors), each flattened in sweep order; a search's
# E holds its per-order floors, then its best error.
Trajectory = dict[str, np.ndarray]


def _raised(exc: HullmapError) -> tuple[bytes, str]:
    message = f"{type(exc).__name__}: {exc}"
    return message.encode(), message


def _fit_bytes(section, order: int) -> tuple[bytes, Trajectory | str]:
    scale = max(section.breadth, section.draft)
    try:
        result = fit_section(section, FitConfig(order, 1e-8 * scale * scale))
    except HullmapError as exc:
        return _raised(exc)
    parts = [np.asarray(result.error_history, dtype=float).tobytes()]
    parts.extend(np.asarray(fa, dtype=float).tobytes() for fa in result.fa_history)
    for sweep in result.theta_history:
        parts.append(sweep.theta.tobytes())
        parts.append(np.array(sorted(sweep.unresolved), dtype=np.int64).tobytes())
    parts.append(np.asarray(result.mapped_points, dtype=float).tobytes())
    numbers = {
        "theta": np.concatenate([sweep.theta for sweep in result.theta_history]),
        "fa": np.concatenate([np.asarray(fa, dtype=float) for fa in result.fa_history]),
        "E": np.asarray(result.error_history, dtype=float),
    }
    return b"".join(parts), numbers


def _search_bytes(section) -> tuple[bytes, Trajectory | str]:
    try:
        report = search_optimum(section, SEARCH_ORDERS)
    except HullmapError as exc:
        return _raised(exc)
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
    numbers = {
        "theta": fit.thetas.theta,
        "fa": np.asarray(fit.fa_history[-1], dtype=float),
        "E": np.array([r.e_min for r in report.per_order] + [report.best_error]),
    }
    return b"".join(parts), numbers


def _floor_bytes(section, order: int, tolerance: float) -> tuple[bytes, Trajectory | str]:
    try:
        floor = min_error_for_order(section, order, FitConfig(order, tolerance))
    except HullmapError as exc:
        return _raised(exc)
    return np.array([floor], dtype=float).tobytes(), {"E": np.array([floor], dtype=float)}


def _save(path: str, trajectories: dict[str, tuple[float, Trajectory | str]]) -> None:
    """Write every trajectory's numbers, or its exception text, to one .npz file."""
    arrays = {"labels": np.array(list(trajectories))}
    for index, (scale, numbers) in enumerate(trajectories.values()):
        arrays[f"{index}.scale"] = np.array(scale)
        if isinstance(numbers, str):
            arrays[f"{index}.error"] = np.array(numbers)
        else:
            arrays.update({f"{index}.{key}": value for key, value in numbers.items()})
    np.savez(path, **arrays)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print one digest per fit, search and floor")
    parser.add_argument("--dump", metavar="FILE.npz", help="also write every trajectory's numbers to FILE.npz")
    args = parser.parse_args()
    fits, searches, floors = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    trajectories = {}

    def record(total, label: str, scale: float, blob: bytes, numbers) -> None:
        total.update(blob)
        trajectories[label] = (scale, numbers)
        if args.verbose:
            print(f"{label}: {hashlib.sha256(blob).hexdigest()}")

    for name, build in SECTIONS.items():
        section = build()
        scale = max(section.breadth, section.draft)
        for order in ORDERS + HIGH_ORDERS.get(name, ()):
            record(fits, f"{name} N={order}", scale, *_fit_bytes(section, order))
        if name in GALLERY:
            record(searches, f"{name} search {SEARCH_ORDERS}", scale, *_search_bytes(section))
        orders, tolerance = FLOORS.get(name, ((), 0.0))
        for order in orders:
            label = f"{name} floor N={order} tol={tolerance}"
            record(floors, label, scale, *_floor_bytes(section, order, tolerance))
    if args.dump:
        _save(args.dump, trajectories)
    if args.verbose:
        print(f"hullmap from {hullmap.__file__}")
    print(fits.hexdigest())
    print(searches.hexdigest())
    print(floors.hexdigest())


if __name__ == "__main__":
    main()
