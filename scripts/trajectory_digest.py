"""Write the trajectories of fixed fits, the gallery searches and the order floors to one .npz file.

Usage: PYTHONPATH=src python scripts/trajectory_digest.py FILE.npz

The fits are those of the four gallery shapes (rectangle, bulb, fine,
chine; 41 points each), circle41 and heeled_rectangle(21, 15 deg), each at
N = 5, 8 and 12, plus rectangle41 and bulb41 at N = 30 and 60 (the angle
solver's rounding bounds grow with N), all to tolerance 1e-8 * scale^2.
Each fit's record holds every sweep's angles ("theta"), scaled
coefficients ("fa") and error ("E"), each sweep's unresolved angle indices
as (sweep, index) pairs ("unresolved") and the mapped points ("mapped").

The searches are `search_optimum(section, (5, 7))` of the four gallery
shapes, the searches of perfbench's search-gallery workload.  Each one's
record holds the per-order floors followed by the best error ("E"), the
(order, iterations) of each accepted order ("records"), the best order
("best"), the tolerance trace ("trace"), and best_fit's angles, last
coefficient vector and mapped points.

The floors are the `min_error_for_order` floors that the acceptance tests
compute: rectangle41 at N = 5, 6 and 12 to tolerance 10, and
heeled_rectangle(21, 15 deg) at N = 12 and 30 to tolerance 0.2; each
record's "E" is the floor.

Every record also holds max(B, D) ("scale"), the point count ("points"),
and what the contract of `scripts/compare_trees.py` reads of the fits the
errors were read off: every sweep's `_sweep_rows` ("rows"), and each
error's sweep as (fit, sweep number) ("entries").  A fit, search or floor
that raises records its exception type and message ("raised") instead.
Arrays are stored under "<label>/<field>", one label per trajectory.

hullmap is imported from whatever tree is on PYTHONPATH, so
`scripts/compare_trees.py` runs the script against two checkouts and
compares the files.  The numbers depend on the numpy and BLAS build, so
compare two trees on one machine; they are not values to pin in a test.
"""

import argparse
import contextlib

import numpy as np

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


# One trajectory's fields, as the module docstring names them.
Record = dict[str, np.ndarray]


def _raised(exc: HullmapError) -> Record:
    return {"raised": np.array(f"{type(exc).__name__}: {exc}")}


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


def _fit_record(section, order: int) -> Record:
    scale = max(section.breadth, section.draft)
    try:
        result = fit_section(section, FitConfig(order, 1e-8 * scale * scale))
    except HullmapError as exc:
        return _raised(exc)
    unresolved = [(k, i) for k, sweep in enumerate(result.theta_history, 1) for i in sorted(sweep.unresolved)]
    return {
        "theta": np.concatenate([sweep.theta for sweep in result.theta_history]),
        "fa": np.concatenate([np.asarray(fa, dtype=float) for fa in result.fa_history]),
        "E": np.asarray(result.error_history, dtype=float),
        "unresolved": np.array(unresolved, dtype=np.int64).reshape(-1, 2),
        "mapped": np.asarray(result.mapped_points, dtype=float),
        "rows": _sweep_rows(section, result, 0),
        "entries": np.array([(0, k) for k in range(1, result.iterations + 1)]).reshape(-1, 2),
    }


def _search_record(section) -> Record:
    try:
        with _fits_made() as fits:
            report = search_optimum(section, SEARCH_ORDERS)
    except HullmapError as exc:
        return _raised(exc)
    fit = report.best_fit
    return {
        "theta": fit.thetas.theta,
        "fa": np.asarray(fit.fa_history[-1], dtype=float),
        "E": np.array([r.e_min for r in report.per_order] + [report.best_error]),
        "records": np.array([(r.order, r.iterations) for r in report.per_order]),
        "best": np.array(report.best_order),
        "trace": np.array(report.tolerance_trace, dtype=float),
        "mapped": np.asarray(fit.mapped_points, dtype=float),
        "rows": np.vstack([_sweep_rows(section, fits[r.order], r.order) for r in report.per_order]),
        "entries": np.array(
            [_floor_entry(r.order, fits[r.order], r.e_min) for r in report.per_order]
            + [_floor_entry(report.best_order, fits[report.best_order], report.best_error)]
        ),
    }


def _floor_record(section, order: int, tolerance: float) -> Record:
    try:
        with _fits_made() as fits:
            floor = min_error_for_order(section, order, FitConfig(order, tolerance))
    except HullmapError as exc:
        return _raised(exc)
    return {
        "E": np.array([floor], dtype=float),
        "rows": _sweep_rows(section, fits[order], 0),
        "entries": np.array([_floor_entry(0, fits[order], floor)]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", metavar="FILE.npz", help="the file to write")
    args = parser.parse_args()
    arrays = {}
    for name, build in SECTIONS.items():
        section = build()
        shared = {
            "scale": np.array(max(section.breadth, section.draft)),
            "points": np.array(len(section.points)),
        }
        records = {f"{name} N={order}": _fit_record(section, order)
                   for order in ORDERS + HIGH_ORDERS.get(name, ())}
        if name in GALLERY:
            records[f"{name} search {SEARCH_ORDERS}"] = _search_record(section)
        orders, tolerance = FLOORS.get(name, ((), 0.0))
        for order in orders:
            records[f"{name} floor N={order} tol={tolerance}"] = _floor_record(section, order, tolerance)
        for label, record in records.items():
            arrays.update({f"{label}/{key}": value for key, value in {**shared, **record}.items()})
    np.savez(args.out, **arrays)


if __name__ == "__main__":
    main()
