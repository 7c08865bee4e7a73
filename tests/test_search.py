from math import nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullmap.search
from hullmap.errors import ConfigurationError, FitAbortError, SearchFailedError
from hullmap.fit import FitConfig, _fit_result, compute_error, fit_section
from hullmap.mapping import boundary_from_scaled
from hullmap.search import (
    MAX_TIGHTENING_ROUNDS,
    _floor_index,
    min_error_for_order,
    next_tolerance,
    search_optimum,
)
from hullmap.shapes import ellipse_section, heeled_rectangle, rectangle_section
from hullmap.theta import ThetaAssignment

from oracles import replay_floor


def test_next_tolerance_subtracts_above_a_tenth():
    assert next_tolerance(1.0) == pytest.approx(0.9)
    assert next_tolerance(0.2) == pytest.approx(0.1)
    assert next_tolerance(0.11) == pytest.approx(0.01)


def test_next_tolerance_divides_below_a_tenth():
    assert next_tolerance(0.01) == pytest.approx(0.001)
    assert next_tolerance(0.1) == pytest.approx(0.01)
    assert next_tolerance(1e-9) == pytest.approx(1e-10)


def test_floor_index_gates_at_the_first_crossing():
    history = [5.0, 1.2, 0.6, 0.8, 0.3]
    # Gate at 0.6; 0.3 is exactly half of it and does not beat it.
    assert _floor_index(history, 1.0) == 2
    # Gate at 5.0; halving moves to 1.2, then to 0.3.
    assert _floor_index(history, 10.0) == 4
    assert _floor_index(history, 0.1) is None


def test_floor_index_walks_down_the_history():
    # Gate at 0.6; halving targets 0.3 -> hits 0.25, then 0.125 -> hits 0.1,
    # then 0.05 -> no entry below, so the floor is 0.1.
    history = [5.0, 0.6, 0.4, 0.25, 0.3, 0.1, 0.2]
    assert _floor_index(history, 1.0) == 5


def test_floor_index_stops_when_no_entry_beats_half():
    assert _floor_index([1.0, 0.8, 0.7], 0.75) == 2


def test_floor_index_stops_after_the_last_tightening_round():
    history = [0.4**k for k in range(MAX_TIGHTENING_ROUNDS + 10)]
    assert _floor_index(history, np.inf) == MAX_TIGHTENING_ROUNDS
    assert replay_floor(history, np.inf) == MAX_TIGHTENING_ROUNDS


@st.composite
def error_histories(draw):
    """An error history and a tolerance, with runs of halvings and exact halves.

    Each entry is a fresh error, exactly half of the entry before it, just
    under that half, or a repeat of it; a run of more than
    `MAX_TIGHTENING_ROUNDS` entries just under half can sit anywhere.
    """
    steps = st.tuples(st.sampled_from(["fresh", "half", "under", "repeat"]), st.floats(0.0, 10.0))
    before = draw(st.lists(steps, max_size=20))
    run = [("under", 0.0)] * draw(st.integers(0, MAX_TIGHTENING_ROUNDS + 5))
    after = draw(st.lists(steps, max_size=20))
    history: list[float] = []
    for kind, value in before + [("fresh", draw(st.floats(0.0, 10.0)))] + run + after:
        last = history[-1] if history else value
        history.append(
            {"fresh": value, "half": 0.5 * last, "under": nextafter(0.5 * last, 0.0), "repeat": last}[kind]
        )
    tolerance = draw(st.one_of(st.floats(0.0, 20.0), st.sampled_from(history)))
    return history, tolerance


@given(error_histories())
@settings(max_examples=300)
def test_floor_index_equals_the_replay_oracle(case):
    history, tolerance = case
    assert _floor_index(history, tolerance) == replay_floor(history, tolerance)


def test_min_error_for_order_matches_a_manual_replay(rectangle41):
    config = FitConfig(order=6, tolerance=1e-2)
    floor = min_error_for_order(rectangle41, 6, config)
    history = fit_section(rectangle41, FitConfig(6, 0.0)).error_history
    assert floor == history[replay_floor(history, 1e-2)]
    assert floor <= 1e-2


def test_min_error_without_a_gate_reports_the_best_error(rectangle41):
    floor = min_error_for_order(rectangle41, 5, FitConfig(5, 1e-30))
    best = fit_section(rectangle41, FitConfig(5, 0.0)).error
    assert floor == pytest.approx(best, rel=1e-12)


def test_min_error_for_order_rejects_a_config_of_another_order(rectangle41):
    with pytest.raises(ConfigurationError):
        min_error_for_order(rectangle41, 6, FitConfig(5, 10.0))


def _stub_fits(monkeypatch, section, histories, flipped=()):
    """Fit each order by replaying its made-up error history; returns the configs received.

    Like the fit, the stub stops at the first reportable sweep under its
    tolerance.  Sweep k's coefficients are (1 + k, 0), or (-1 - k, 0) where
    (order, k) is in ``flipped``, and its angles are all 0.01 k.  An order
    whose history is None aborts.
    """
    received: list[FitConfig] = []

    def fit(sec, config):
        assert sec is section
        received.append(config)
        history = histories[config.order]
        if history is None:
            raise FitAbortError("first two points have no projected angle")
        kept = [k for k, e in enumerate(history) if e < config.tolerance and (config.order, k) not in flipped]
        stop = kept[0] + 1 if kept else len(history)
        errors = history[:stop]
        signs = [-1.0 if (config.order, k) in flipped else 1.0 for k in range(stop)]
        fas = [np.array([sign * (1.0 + k), 0.0]) for k, sign in enumerate(signs)]
        angles = [ThetaAssignment(np.full(len(sec.points), 0.01 * k), ()) for k in range(stop)]
        reason = "converged" if errors[-1] < config.tolerance else "budget"
        return _fit_result((errors[-1], fas[-1], angles[-1]), errors, fas, angles, reason)

    monkeypatch.setattr(hullmap.search, "fit_section", fit)
    return received


def _set_floor_target(monkeypatch, section, target):
    """Make the search's floor target, `FLOOR_SCALE` times the squared scale, ``target``."""
    scale = max(section.breadth, section.draft)
    monkeypatch.setattr(hullmap.search, "FLOOR_SCALE", target / (scale * scale))
    assert hullmap.search.FLOOR_SCALE * scale * scale == target


def test_an_order_that_misses_its_gate_leaves_the_tolerance(monkeypatch, tiny_symmetric):
    histories = {5: [20.0, 12.0], 6: [8.0, 3.0, 2.5], 7: [4.0, 2.0]}
    _stub_fits(monkeypatch, tiny_symmetric, histories)
    report = search_optimum(tiny_symmetric, (5, 7))
    # Order 6 gates at 8.0 and halves to 3.0; order 7 gates under 2.9 at 2.0.
    assert report.tolerance_trace == [(5, 10.0), (6, 10.0), (7, next_tolerance(3.0))]
    assert [(r.order, r.e_min, r.iterations) for r in report.per_order] == [(6, 3.0, 3), (7, 2.0, 2)]
    assert (report.best_order, report.best_error) == (7, 2.0)


def test_an_order_whose_fit_aborts_has_no_gate(monkeypatch, tiny_symmetric):
    histories = {5: [20.0, 3.0], 6: None, 7: [4.0, 2.0]}
    received = _stub_fits(monkeypatch, tiny_symmetric, histories)
    report = search_optimum(tiny_symmetric, (5, 7))
    assert [c.order for c in received] == [5, 6, 7]
    assert report.tolerance_trace == [(5, 10.0), (6, next_tolerance(3.0)), (7, next_tolerance(3.0))]
    assert [(r.order, r.e_min) for r in report.per_order] == [(5, 3.0), (7, 2.0)]


def test_a_tolerance_below_the_floor_target_is_the_fit_target(monkeypatch, tiny_symmetric):
    # Order 5's floor 1.05 lies above the floor target 1.0, and the tolerance
    # it hands on, 0.95, below it: order 6 must fit down to 0.95.
    histories = {5: [5.0, 1.05, 0.9], 6: [0.98, 0.96, 0.94, 0.93]}
    received = _stub_fits(monkeypatch, tiny_symmetric, histories)
    _set_floor_target(monkeypatch, tiny_symmetric, 1.0)
    report = search_optimum(tiny_symmetric, (5, 6))
    assert [(c.order, c.tolerance) for c in received] == [(5, 1.0), (6, next_tolerance(1.05))]
    assert [(r.order, r.e_min) for r in report.per_order] == [(5, 1.05), (6, 0.94)]


def test_the_walk_stops_at_the_floor_target(monkeypatch, tiny_symmetric):
    histories = {5: [5.0, 2.0], 6: [1.5, 0.5], 7: [0.1]}
    received = _stub_fits(monkeypatch, tiny_symmetric, histories)
    _set_floor_target(monkeypatch, tiny_symmetric, 0.5)
    report = search_optimum(tiny_symmetric, (5, 7))
    assert [c.order for c in received] == [5, 6]
    assert [order for order, _ in report.tolerance_trace] == [5, 6]
    assert report.best_order == 6 and report.best_error == 0.5


def test_best_fit_is_the_floor_sweeps_snapshot(monkeypatch, tiny_symmetric):
    # The fit runs on to 0.3, but the floor is the halving hit 0.6.
    histories = {5: [9.0, 4.0, 0.6, 0.5, 0.4, 0.3]}
    _stub_fits(monkeypatch, tiny_symmetric, histories)
    monkeypatch.setattr(hullmap.search, "INITIAL_TOLERANCE", 5.0)
    _set_floor_target(monkeypatch, tiny_symmetric, 0.35)
    report = search_optimum(tiny_symmetric, (5, 5))
    fit = report.best_fit
    assert (fit.error, fit.error_history, fit.iterations) == (0.6, [9.0, 4.0, 0.6], 3)
    assert fit.converged and not fit.diverged
    assert [fa.tolist() for fa in fit.fa_history] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    assert fit.coefficients.scale == 3.0
    assert fit.thetas is fit.theta_history[-1]
    assert np.array_equal(fit.thetas.theta, np.full(len(tiny_symmetric.points), 0.02))
    mapped = np.column_stack(boundary_from_scaled(fit.fa_history[-1], fit.thetas.theta))
    assert np.array_equal(fit.mapped_points, mapped)


def test_a_search_that_accepts_no_order_fails(monkeypatch, tiny_symmetric):
    received = _stub_fits(monkeypatch, tiny_symmetric, {5: [20.0, 11.0], 6: [10.0], 7: None})
    with pytest.raises(SearchFailedError) as caught:
        search_optimum(tiny_symmetric, (5, 7))
    assert [c.order for c in received] == [5, 6, 7]
    assert str(caught.value) == (
        "no order in (5, 7) converged at tolerance 10.0: 0 solved no system, "
        "1 lost their anchor, 2 had no reportable sweep under the tolerance"
    )


def test_the_search_passes_over_sweeps_with_a_flipped_contour(monkeypatch, tiny_symmetric):
    # Order 5's one sweep under 10 flips the contour, so order 5 has no
    # gate.  Order 6 gates at 8.0; its flipped 3.5 would be the floor, and
    # the floor moves to 2.0 instead.
    histories = {5: [20.0, 3.0, 12.0], 6: [8.0, 3.5, 2.0, 1.9]}
    _stub_fits(monkeypatch, tiny_symmetric, histories, flipped={(5, 1), (6, 1)})
    report = search_optimum(tiny_symmetric, (5, 6))
    assert report.tolerance_trace == [(5, 10.0), (6, 10.0)]
    assert [(r.order, r.e_min, r.iterations) for r in report.per_order] == [(6, 2.0, 4)]
    assert report.best_fit.error_history == [8.0, 3.5, 2.0]
    assert report.best_fit.coefficients.scale == 3.0


def test_a_search_whose_only_gate_is_a_flipped_sweep_fails():
    # Perfbench station 71: at N = 8 the fit's only sweeps under 10 have
    # F a_0 <= 0; the search used to build a report from one and raise
    # ValueError, and the floor was that sweep's error.
    sec = heeled_rectangle(80, breadth=1.69, draft=1.596, heel_deg=8.91)
    fit = fit_section(sec, FitConfig(8, 0.0))
    under = [fa[0] for e, fa in zip(fit.error_history, fit.fa_history) if e < 10.0]
    assert under and max(under) <= 0.0
    with pytest.raises(SearchFailedError, match="1 had no reportable sweep under the tolerance"):
        search_optimum(sec, (8, 8))
    assert min_error_for_order(sec, 8, FitConfig(8, 10.0)) == fit.error > 10.0


def test_search_stops_at_the_floor_on_an_exact_shape():
    sec = ellipse_section(41, breadth=4.0, draft=1.0)
    report = search_optimum(sec)
    assert report.best_order == report.per_order[-1].order
    assert report.best_error <= 1e-12 * max(sec.breadth, sec.draft) ** 2
    assert report.tolerance_trace[0] == (5, 10.0)
    assert len(report.per_order) == 1


def test_an_aborted_order_does_not_end_a_real_search():
    # Order 5 loses both leading angles at sweep 25; order 6 fits.
    sec = heeled_rectangle(37, 3.688, 1.028, 18.64)
    with pytest.raises(FitAbortError):
        fit_section(sec, FitConfig(5, 0.0))
    report = search_optimum(sec, (5, 6))
    assert report.tolerance_trace == [(5, 10.0), (6, 10.0)]
    assert [(r.order, r.iterations) for r in report.per_order] == [(6, 19)]
    assert report.best_error == pytest.approx(3.0727, rel=1e-4)


def test_search_report_is_internally_consistent(rectangle41):
    report = search_optimum(rectangle41, order_range=(5, 12))
    errors = [rec.e_min for rec in report.per_order]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    assert report.best_error == report.per_order[-1].e_min
    fit = report.best_fit
    assert fit.error == pytest.approx(report.best_error, rel=1e-15)
    assert fit.error == compute_error(rectangle41, fit.mapped_points)
    tolerances = [tol for _, tol in report.tolerance_trace]
    assert all(b <= a for a, b in zip(tolerances, tolerances[1:]))


def test_search_fails_when_nothing_converges(monkeypatch, rectangle41):
    monkeypatch.setattr(hullmap.search, "INITIAL_TOLERANCE", 1e-30)
    with pytest.raises(SearchFailedError):
        search_optimum(rectangle41, order_range=(5, 6))
