"""Outer search for the coefficient order with the lowest reachable error.

Orders are tried in sequence starting from a loose tolerance.  A converged
order triggers a tightening stage that repeatedly halves the target until the
fit can no longer follow, which pins that order's floor error; the tolerance
for the next order is then derived from the floor (subtract 0.1 above 0.1,
otherwise divide by 10).  Orders that fail their gate leave the tolerance
unchanged.  One fit trajectory from the standard seed is deterministic, so
the tightening stage replays the recorded error history instead of refitting
from scratch; the outcome is identical because every refit would retrace the
same sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SearchFailedError
from .fit import FitConfig, FitResult, _mapped, fit_section
from .mapping import ScaledCoefficients
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
    if e_min > 0.1 and e_min - 0.1 > 0.0:
        return e_min - 0.1
    return e_min / 10.0


def _replay_tightening(history: list[float], gate_index: int) -> tuple[float, int]:
    """Outcome of the halving stage over a recorded error trajectory.

    Returns the floor error and the sweep index that produced it.  Each round
    targets half the previous achieved error and succeeds at the first sweep
    whose error beats the target, exactly as a rerun from the deterministic
    seed would.
    """
    achieved = history[gate_index]
    index = gate_index
    for _ in range(MAX_TIGHTENING_ROUNDS):
        target = 0.5 * achieved
        hit = next((k for k, e in enumerate(history) if e < target), None)
        if hit is None:
            break
        achieved = history[hit]
        index = hit
    return achieved, index


def _gate_index(history: list[float], tolerance: float) -> int | None:
    return next((k for k, e in enumerate(history) if e < tolerance), None)


def min_error_for_order(section: SectionOffsets, order: int, config: FitConfig) -> float:
    """Floor error reachable at ``order`` once the fit passes ``config.tolerance``.

    A fit that never reaches the tolerance reports whatever it achieved.
    """
    result = fit_section(
        section, FitConfig(order, 0.0, config.max_iterations)
    )
    gate = _gate_index(result.error_history, config.tolerance)
    if gate is None:
        return result.error
    floor, _ = _replay_tightening(result.error_history, gate)
    return floor


def _snapshot(result: FitResult, index: int) -> FitResult:
    fa = result.fa_history[index]
    thetas = result.theta_history[index]
    return FitResult(
        coefficients=ScaledCoefficients(fa).to_mapping(),
        thetas=thetas,
        error=result.error_history[index],
        error_history=result.error_history[: index + 1],
        fa_history=result.fa_history[: index + 1],
        theta_history=result.theta_history[: index + 1],
        iterations=index + 1,
        converged=True,
        diverged=False,
        mapped_points=_mapped(fa, thetas),
    )


def search_optimum(
    section: SectionOffsets,
    order_range: tuple[int, int] = (5, 100),
    e_floor: float | None = None,
    initial_tolerance: float = INITIAL_TOLERANCE,
) -> SearchReport:
    """Walk the order range, tracking the floor error wherever a gate passes.

    The optimum is the last order whose gate converged; its floor error is
    also the smallest seen because tolerances only tighten.  The search stops
    early once a floor error reaches ``e_floor`` (default: 1e-12 times the
    squared section scale).
    """
    scale = max(section.breadth, section.draft)
    floor_target = e_floor if e_floor is not None else FLOOR_SCALE * scale * scale
    tolerance = initial_tolerance
    trace: list[tuple[int, float]] = []
    records: list[SearchRecord] = []
    best_fit: FitResult | None = None
    for order in range(order_range[0], order_range[1] + 1):
        trace.append((order, tolerance))
        started = time.perf_counter()
        # The trajectory may stop at the floor target; if the gate tolerance
        # has tightened below it the run must push that deep to stay decidable.
        result = fit_section(section, FitConfig(order, min(tolerance, floor_target)))
        elapsed = time.perf_counter() - started
        gate = _gate_index(result.error_history, tolerance)
        if gate is None:
            continue
        floor, index = _replay_tightening(result.error_history, gate)
        records.append(SearchRecord(order, floor, result.iterations, elapsed))
        best_fit = _snapshot(result, index)
        if floor <= floor_target:
            break
        tolerance = next_tolerance(floor)
    if not records:
        raise SearchFailedError(
            f"no order in {order_range} converged at tolerance {initial_tolerance}"
        )
    return SearchReport(
        per_order=records,
        best_order=records[-1].order,
        best_error=records[-1].e_min,
        tolerance_trace=trace,
        best_fit=best_fit,
    )
