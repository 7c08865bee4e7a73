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
file, with its point count, the sweep each error was read off, and what
the contract of `scripts/compare_trees.py` reads of every sweep of those
fits (`_sweep_rows`).  `scripts/compare_trees.py --diff` reads the file to
say by how much two trees differ, and whether within that contract.  The
digest depends on the numpy and BLAS build, so compare two trees on one
machine; it is not a value to pin in a test.
"""

import argparse
import contextlib
import hashlib

import numpy as np

import hullmap
import hullmap.search
from hullmap.errors import HullmapError
from hullmap.fit import FitConfig, _seed_asymmetric, _seed_symmetric, fit_section
from hullmap.linsys import assemble_general, assemble_symmetric
from hullmap.search import min_error_for_order, search_optimum
from hullmap.shapes import (
    bulb_section,
    chine_section,
    circle_section,
    fine_section,
    heeled_rectangle,
    rectangle_section,
)
from hullmap.theta import _free_normals

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
# E holds its per-order floors, then its best error, and its theta and fa
# are those of the last.  "points" is the point count, "rows" holds the
# `_sweep_rows` of every fit the errors were read off, and "entries" names
# each error's sweep as (fit, sweep number).
Trajectory = dict[str, np.ndarray]


def _raised(exc: HullmapError) -> tuple[bytes, str]:
    message = f"{type(exc).__name__}: {exc}"
    return message.encode(), message


def _sweep_rows(section, result, fit: int) -> np.ndarray:
    """One row per sweep of ``result``, for the contract of `scripts/compare_trees.py`.

    The row is (``fit``, sweep number, order, the infinity-norm condition
    number of the sweep's coefficient system, its largest |F a_n| / s, and
    the largest and the sum of s / |r'| over its solved points), s being
    max(B, D) and r' the slope of a point's angle residual at its angle,
    for the coefficients the angle was solved for (the seed's on sweep 1).
    """
    scale = max(section.breadth, section.draft)
    order = result.coefficients.order
    assemble = assemble_symmetric if section.symmetric else assemble_general
    seed = (_seed_symmetric if section.symmetric else _seed_asymmetric)(section, order)
    normals = _free_normals(section)
    free = slice(1, -1) if section.symmetric else slice(None)
    odd = 2.0 * np.arange(order + 1) - 1.0
    weights = np.where(np.arange(order + 1) % 2 == 0, 1.0, -1.0) * odd
    rows = []
    for k, (thetas, fa) in enumerate(zip(result.theta_history, result.fa_history)):
        # x(t) = -sum (-1)^n c_n sin(odd t) and y(t) = sum (-1)^n c_n cos(odd t),
        # so x' = -cos(odd t) @ w and y' = -sin(odd t) @ w for w = (-1)^n odd c_n.
        w = weights * (result.fa_history[k - 1] if k else seed)
        angles = np.outer(thetas.theta[free], odd)
        slope = normals[:, 0] * (np.cos(angles) @ w) - normals[:, 1] * (np.sin(angles) @ w)
        with np.errstate(divide="ignore"):
            inverse = scale / np.abs(slope)
        kappa = np.linalg.cond(assemble(thetas, section, order).matrix, np.inf)
        size = np.abs(fa).max() / scale
        rows.append([fit, k + 1, order, kappa, size, inverse.max(), inverse.sum()])
    return np.array(rows).reshape(-1, 7)


def _floor_entry(fit: int, result, error: float) -> tuple[int, int]:
    """(``fit``, the number of the first reportable sweep of ``result`` with ``error``, or 0)."""
    for index, (e, fa) in enumerate(zip(result.error_history, result.fa_history)):
        if e == error and fa[0] > 0.0:
            return fit, index + 1
    return fit, 0


@contextlib.contextmanager
def _fits_made():
    """Collect, by order, every fit that `hullmap.search` makes inside the block."""
    real = hullmap.search.fit_section
    fits = {}

    def record(section, config):
        fits[config.order] = real(section, config)
        return fits[config.order]

    hullmap.search.fit_section = record
    try:
        yield fits
    finally:
        hullmap.search.fit_section = real


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
        "points": np.array(len(section.points)),
        "rows": _sweep_rows(section, result, 0),
        "entries": np.array([(0, k) for k in range(1, result.iterations + 1)]).reshape(-1, 2),
    }
    return b"".join(parts), numbers


def _search_bytes(section) -> tuple[bytes, Trajectory | str]:
    try:
        with _fits_made() as fits:
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
        "points": np.array(len(section.points)),
        "rows": np.vstack([_sweep_rows(section, fits[r.order], r.order) for r in report.per_order]),
        "entries": np.array(
            [_floor_entry(r.order, fits[r.order], r.e_min) for r in report.per_order]
            + [_floor_entry(report.best_order, fits[report.best_order], report.best_error)]
        ),
    }
    return b"".join(parts), numbers


def _floor_bytes(section, order: int, tolerance: float) -> tuple[bytes, Trajectory | str]:
    try:
        with _fits_made() as fits:
            floor = min_error_for_order(section, order, FitConfig(order, tolerance))
    except HullmapError as exc:
        return _raised(exc)
    numbers = {
        "E": np.array([floor], dtype=float),
        "points": np.array(len(section.points)),
        "rows": _sweep_rows(section, fits[order], 0),
        "entries": np.array([_floor_entry(0, fits[order], floor)]),
    }
    return np.array([floor], dtype=float).tobytes(), numbers


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
