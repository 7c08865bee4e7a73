"""Outer search for the coefficient order with the lowest reachable error.

Orders are tried in sequence starting from a loose tolerance.  Each order
runs one fit from the standard seed, and `_floor_index` reads the order's
floor off the fit's error history in one forward pass: the gate is the first
sweep under the current tolerance, and the floor then moves to each later
sweep that beats half the error at the current floor, at most
`MAX_TIGHTENING_ROUNDS` times.  That is the outcome of halving the target
and refitting until the fit can no longer follow, since every refit from the
deterministic seed retraces the same sweeps and each halving's first hit
lies after the previous one.  Only sweeps the fit can report count: one
whose leading scaled coefficient is not positive has a flipped contour, and
`_floor_sweep` passes it over.  An order without a gate, which includes one
whose fit solved no sweep or lost its anchor points, leaves the tolerance
unchanged; an accepted order hands the next one a tolerance derived from its
floor (subtract 0.1 above 0.1, otherwise divide by 10).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import ConfigurationError, FitAbortError, SearchFailedError
from .fit import FitConfig, FitResult, _fit_result, fit_section
from .section import SectionOffsets

INITIAL_TOLERANCE = 10.0
MAX_TIGHTENING_ROUNDS = 30
FLOOR_SCALE = 1e-12


@dataclass(frozen=True)
class SearchRecord:
    order: int
    e_min: float
    iterations: int
    seconds: float


@dataclass
class SearchReport:
    per_order: list[SearchRecord]
    best_order: int
    best_error: float
    tolerance_trace: list[tuple[int, float]]
    best_fit: FitResult | None = field(repr=False, default=None)


def next_tolerance(e_min: float) -> float:
    """Tolerance handed to the next order after a floor error of ``e_min``."""
    if e_min > 0.1:
        return e_min - 0.1
    return e_min / 10.0


def _floor_index(history: list[float], tolerance: float) -> int | None:
    """Index of the floor sweep of one order's error history, or None if no sweep gates.

    The gate is the first sweep under ``tolerance``.  From there the index
    moves to each later sweep whose error beats half the error at the
    current index, at most `MAX_TIGHTENING_ROUNDS` times.
    """
    gate = next((k for k, e in enumerate(history) if e < tolerance), None)
    if gate is None:
        return None
    index, rounds = gate, 0
    for k in range(gate + 1, len(history)):
        if rounds < MAX_TIGHTENING_ROUNDS and history[k] < 0.5 * history[index]:
            index, rounds = k, rounds + 1
    return index


def _floor_sweep(result: FitResult, tolerance: float) -> int | None:
    """`_floor_index` of the fit's history, read as if each sweep it cannot report never ran.

    A sweep whose leading scaled coefficient F a_0 is not positive flips
    the contour, so the fit never reports it; it counts as an infinite error,
    which no tolerance gates and no floor moves to.
    """
    history = zip(result.error_history, result.fa_history)
    return _floor_index([e if fa[0] > 0.0 else math.inf for e, fa in history], tolerance)


def min_error_for_order(section: SectionOffsets, order: int, config: FitConfig) -> float:
    """Floor error reachable at ``order`` once the fit passes ``config.tolerance``.

    ``config.order`` must equal ``order``.  A fit that never reaches the
    tolerance reports whatever it achieved.
    """
    if config.order != order:
        raise ConfigurationError(f"order {order} disagrees with config.order {config.order}")
    result = fit_section(section, FitConfig(order, 0.0, config.max_iterations))
    index = _floor_sweep(result, config.tolerance)
    return result.error if index is None else result.error_history[index]


def search_optimum(section: SectionOffsets, order_range: tuple[int, int] = (5, 100)) -> SearchReport:
    """Walk the order range, tracking the floor error wherever a gate passes.

    The optimum is the last order whose gate converged; its floor error is
    also the smallest seen because tolerances only tighten.  An order whose
    fit solved no sweep or lost its anchor has no gate.  The search stops
    early once a floor error reaches `FLOOR_SCALE` times the squared section
    scale.  A search that accepts no order fails with a message that counts
    the orders that solved no system, lost their anchor, or had no
    reportable sweep under the tolerance.
    """
    scale = max(section.breadth, section.draft)
    floor_target = FLOOR_SCALE * scale * scale
    tolerance = INITIAL_TOLERANCE
    trace: list[tuple[int, float]] = []
    records: list[SearchRecord] = []
    floor_sweep: tuple[FitResult, int] | None = None
    # Why each order without a gate had none, as its count.
    no_system, no_anchor, no_sweep = (
        "solved no system", "lost their anchor", "had no reportable sweep under the tolerance"
    )
    missed = dict.fromkeys((no_system, no_anchor, no_sweep), 0)
    for order in range(order_range[0], order_range[1] + 1):
        trace.append((order, tolerance))
        started = time.perf_counter()
        # The trajectory may stop at the floor target; if the gate tolerance
        # has tightened below it the run must push that deep to stay decidable.
        try:
            result = fit_section(section, FitConfig(order, min(tolerance, floor_target)))
        except FitAbortError:
            missed[no_anchor] += 1
            continue
        elapsed = time.perf_counter() - started
        index = _floor_sweep(result, tolerance)
        if index is None:
            missed[no_sweep if result.error_history else no_system] += 1
            continue
        floor = result.error_history[index]
        records.append(SearchRecord(order, floor, result.iterations, elapsed))
        floor_sweep = (result, index)
        if floor <= floor_target:
            break
        tolerance = next_tolerance(floor)
    if floor_sweep is None:
        reasons = ", ".join(f"{count} {reason}" for reason, count in missed.items())
        raise SearchFailedError(
            f"no order in {order_range} converged at tolerance {INITIAL_TOLERANCE}: {reasons}"
        )
    result, index = floor_sweep
    end = index + 1
    state = (result.error_history[index], result.fa_history[index], result.theta_history[index])
    histories = (result.error_history[:end], result.fa_history[:end], result.theta_history[:end])
    return SearchReport(
        per_order=records,
        best_order=records[-1].order,
        best_error=records[-1].e_min,
        tolerance_trace=trace,
        best_fit=_fit_result(state, *histories, "converged"),
    )
