from math import pi

import numpy as np
import pytest

import hullmap.fit
from hullmap.errors import ConfigurationError, DimensionMismatchError, SingularSystemError
from hullmap.fit import (
    FitConfig,
    _mapped,
    _seed_asymmetric,
    _seed_symmetric,
    compute_error,
    fit_nonsymmetric,
    fit_section,
    fit_symmetric,
)
from hullmap.linsys import assemble_symmetric, lu_solve
from hullmap.mapping import ScaledCoefficients, breadth_and_draft, lewis_initial_guess
from hullmap.section import from_points, full_area, mirror_to_full
from hullmap.shapes import bulb_section, chine_section, fine_section, heeled_rectangle
from hullmap.theta import THETA_TOL, assign_thetas


@pytest.fixture(autouse=True)
def _check_how_each_fit_ended(monkeypatch):
    """Checks every `FitResult` a fit here builds: ``diverged`` and ``orientation`` follow the stop reason.

    ``orientation`` ends exactly the fits with no reportable sweep (none
    with a positive F a_0) that a singular system did not end.
    """
    real = hullmap.fit._fit_result

    def checked(*args):
        res = real(*args)
        assert res.diverged == (res.stop_reason in {"singular", "orientation"})
        unreportable = not any(fa[0] > 0.0 for fa in res.fa_history)
        assert (res.stop_reason == "orientation") == (unreportable and res.stop_reason != "singular")
        return res

    monkeypatch.setattr(hullmap.fit, "_fit_result", checked)


def test_config_validation(circle41, tiny_asymmetric):
    with pytest.raises(ConfigurationError):
        fit_symmetric(circle41, FitConfig(order=1, tolerance=1e-6))
    with pytest.raises(ConfigurationError):
        fit_nonsymmetric(tiny_asymmetric, FitConfig(order=0, tolerance=1e-6))
    with pytest.raises(ConfigurationError):
        fit_symmetric(circle41, FitConfig(order=3, tolerance=1e-6, max_iterations=0))
    with pytest.raises(ConfigurationError):
        fit_symmetric(tiny_asymmetric, FitConfig(order=3, tolerance=1e-6))
    with pytest.raises(ConfigurationError):
        fit_nonsymmetric(circle41, FitConfig(order=3, tolerance=1e-6))


def test_compute_error_is_the_summed_squared_distance(tiny_symmetric):
    mapped = tiny_symmetric.points + np.array([0.1, -0.2])
    want = len(tiny_symmetric) * (0.1**2 + 0.2**2)
    assert compute_error(tiny_symmetric, mapped) == pytest.approx(want, rel=1e-12)


def test_compute_error_rejects_shape_mismatch(tiny_symmetric):
    with pytest.raises(DimensionMismatchError):
        compute_error(tiny_symmetric, np.zeros((2, 2)))


def test_symmetric_seed_is_the_padded_lewis_form(rectangle41):
    seed = _seed_symmetric(rectangle41, 6)
    guess = lewis_initial_guess(
        rectangle41.breadth, rectangle41.draft, full_area(rectangle41)
    )
    fa = guess.coefficients.scale * guess.coefficients.a
    assert len(seed) == 7
    assert np.array_equal(seed[:3], fa)
    assert np.all(seed[3:] == 0.0)


def test_asymmetric_seed_averages_the_half_sections():
    sec = heeled_rectangle(21)
    seed = _seed_asymmetric(sec, 5)
    assert len(seed) == 6
    assert seed[0] > 0.0
    implied_b, implied_d = breadth_and_draft(ScaledCoefficients(seed).to_mapping())
    # Averaging two breadth-matched halves keeps the total breadth.
    assert implied_b == pytest.approx(sec.breadth, rel=1e-12)
    assert implied_d == pytest.approx(sec.draft, rel=1e-12)


def test_circle_fit_is_exact(circle41):
    res = fit_symmetric(circle41, FitConfig(order=3, tolerance=1e-10))
    assert res.converged and not res.diverged
    assert res.error <= 1e-10
    assert res.coefficients.scale == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.abs(res.coefficients.a[1:]) <= 1e-6)


def test_ellipse_fit_recovers_the_closed_form(ellipse41):
    res = fit_symmetric(ellipse41, FitConfig(order=2, tolerance=1e-10))
    assert res.converged
    assert res.coefficients.a[1] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert abs(res.coefficients.a[2]) < 1e-6
    assert res.coefficients.scale == pytest.approx(1.5, abs=1e-6)


def test_error_field_matches_the_mapped_points(rectangle41):
    res = fit_symmetric(rectangle41, FitConfig(order=6, tolerance=1e-3))
    assert res.error == compute_error(rectangle41, res.mapped_points)


def test_histories_align_with_iterations(rectangle41):
    res = fit_symmetric(rectangle41, FitConfig(order=6, tolerance=1e-3))
    assert len(res.error_history) == res.iterations
    assert len(res.fa_history) == res.iterations
    assert len(res.theta_history) == res.iterations


def test_nonconverged_fit_reports_its_best_state():
    sec = fine_section(41)
    res = fit_section(sec, FitConfig(order=8, tolerance=1e-12, max_iterations=60))
    assert not res.converged
    positive = [
        e for e, fa in zip(res.error_history, res.fa_history) if fa[0] > 0.0
    ]
    assert res.error == pytest.approx(min(positive), rel=1e-15)


def test_a_fit_whose_first_system_is_singular_reports_the_seed():
    # Three points cannot pin order 5's seven unknowns.
    sec = from_points([(0.0, 1.0), (0.7, 0.6), (1.0, 0.0)], symmetric=True)
    res = fit_section(sec, FitConfig(order=5, tolerance=1e-6))
    assert (res.error_history, res.fa_history, res.theta_history) == ([], [], [])
    assert res.iterations == 0
    assert res.diverged and not res.converged and res.stop_reason == "singular"
    seed = _seed_symmetric(sec, 5)
    thetas = assign_thetas(ScaledCoefficients(seed), sec, None)
    assert np.array_equal(res.thetas.theta, thetas.theta)
    assert np.array_equal(res.mapped_points, _mapped(seed, thetas))
    assert res.error == compute_error(sec, res.mapped_points)


def test_a_singular_system_after_solved_sweeps_keeps_the_best_sweep(monkeypatch, rectangle41):
    solved = fit_symmetric(rectangle41, FitConfig(6, 0.0, 3))
    real, calls = lu_solve, []

    def solve_three(system):
        calls.append(system)
        if len(calls) > 3:
            raise SingularSystemError("fourth system")
        return real(system)

    monkeypatch.setattr(hullmap.fit, "lu_solve", solve_three)
    res = fit_symmetric(rectangle41, FitConfig(6, 0.0))
    assert res.diverged and not res.converged and res.stop_reason == "singular"
    assert res.error_history == solved.error_history and res.iterations == 3
    best = int(np.argmin(res.error_history))
    assert res.error == res.error_history[best]
    assert res.thetas is res.theta_history[best]
    assert np.array_equal(res.mapped_points, _mapped(solved.fa_history[best], res.thetas))


def test_a_fit_that_never_keeps_a_positive_anchor_reports_the_seed(monkeypatch, rectangle41):
    real = lu_solve
    monkeypatch.setattr(hullmap.fit, "lu_solve", lambda system: ScaledCoefficients(-real(system).values))
    res = fit_symmetric(rectangle41, FitConfig(order=6, tolerance=1e3, max_iterations=3))
    assert all(fa[0] < 0.0 for fa in res.fa_history) and res.iterations == 3
    # Every solved sweep flipped the contour, so the loop's own reason
    # (here the budget) gives way to the orientation.
    assert res.diverged and not res.converged and res.stop_reason == "orientation"
    # The seed state is reported at the first sweep's angles.
    assert np.array_equal(res.thetas.theta, res.theta_history[0].theta)
    mapped = _mapped(_seed_symmetric(rectangle41, 6), res.thetas)
    assert np.array_equal(res.mapped_points, mapped)
    assert res.error == compute_error(rectangle41, mapped)


def _largest_angle_step(res, k):
    """The largest angle change from sweep k to sweep k + 1 of ``res`` (both counted from 0)."""
    return float(np.max(np.abs(res.theta_history[k + 1].theta - res.theta_history[k].theta)))


def test_a_fit_stops_once_no_angle_moves(monkeypatch, rectangle41):
    stopped = fit_symmetric(rectangle41, FitConfig(5, 0.0))
    # No angle step is at most -1, so the stop never fires.
    monkeypatch.setattr(hullmap.fit, "THETA_TOL", -1.0)
    full = fit_symmetric(rectangle41, FitConfig(5, 0.0))
    k = stopped.iterations
    assert stopped.stop_reason == "stalled" and not stopped.converged and not stopped.diverged
    assert k < full.iterations == 200 and full.stop_reason == "budget"
    assert stopped.error_history == full.error_history[:k]
    for ours, theirs in zip(stopped.fa_history, full.fa_history[:k], strict=True):
        assert np.array_equal(ours, theirs)
    for ours, theirs in zip(stopped.theta_history, full.theta_history[:k], strict=True):
        assert np.array_equal(ours.theta, theirs.theta) and ours.unresolved == theirs.unresolved
    # The last sweep is the first whose angles moved by at most THETA_TOL.
    assert _largest_angle_step(stopped, k - 2) <= THETA_TOL
    assert all(_largest_angle_step(stopped, j) > THETA_TOL for j in range(k - 2))
    assert abs(stopped.error - full.error) <= 2e-9 * full.error


def test_a_fit_that_converges_says_so(circle41):
    res = fit_symmetric(circle41, FitConfig(3, 1e-10))
    assert res.stop_reason == "converged" and res.converged


def test_a_fit_whose_error_keeps_rising_says_so():
    res = fit_symmetric(chine_section(41), FitConfig(6, 0.0))
    assert res.stop_reason == "rising" and not res.converged and not res.diverged
    assert all(b > a for a, b in zip(res.error_history[-11:], res.error_history[-10:]))


def test_constraints_hold_at_every_sweep(rectangle41):
    res = fit_symmetric(rectangle41, FitConfig(order=8, tolerance=1e-4))
    for fa in res.fa_history:
        breadth, draft = breadth_and_draft(ScaledCoefficients(fa).to_mapping())
        assert breadth == pytest.approx(rectangle41.breadth, rel=1e-10)
        assert draft == pytest.approx(rectangle41.draft, rel=1e-10)


def _one_more_sweep_delta(section, res):
    fa = res.coefficients.scale * res.coefficients.a
    thetas = assign_thetas(ScaledCoefficients(fa), section, res.thetas)
    solved = lu_solve(assemble_symmetric(thetas, section, res.coefficients.order)).values
    return abs(compute_error(section, _mapped(solved, thetas)) - res.error)


@pytest.mark.parametrize(
    "maker,order",
    [
        (lambda: bulb_section(41), 8),
    ],
)
def test_settled_fit_is_a_fixed_point(maker, order):
    # Drive the iteration to its floor first, then converge right at it; one
    # further sweep must leave the error essentially unchanged.
    sec = maker()
    floor = fit_symmetric(
        sec, FitConfig(order=order, tolerance=0.0, max_iterations=400)
    ).error
    res = fit_symmetric(
        sec, FitConfig(order=order, tolerance=floor * (1.0 + 1e-9), max_iterations=400)
    )
    assert res.converged
    delta = _one_more_sweep_delta(sec, res)
    assert delta < max(1e-12, 0.01 * res.error)


def test_exactly_representable_fits_are_fixed_points(circle41, ellipse41):
    for sec, order, tol in [(circle41, 3, 1e-10), (ellipse41, 2, 1e-12)]:
        res = fit_symmetric(sec, FitConfig(order=order, tolerance=tol))
        assert res.converged
        assert _one_more_sweep_delta(sec, res) < max(1e-12, 0.01 * res.error)


def test_scale_equivariance(rectangle41):
    s = 2.0
    scaled = from_points(rectangle41.points * s, symmetric=True)
    base = fit_symmetric(rectangle41, FitConfig(order=8, tolerance=1e-3))
    big = fit_symmetric(scaled, FitConfig(order=8, tolerance=1e-3 * s * s))
    fa_base = base.coefficients.scale * base.coefficients.a
    fa_big = big.coefficients.scale * big.coefficients.a
    assert np.allclose(fa_big, s * fa_base, rtol=1e-8)
    assert np.allclose(big.coefficients.a, base.coefficients.a, atol=1e-8)
    assert big.error == pytest.approx(s * s * base.error, rel=1e-6)


def test_mirrored_ellipse_fits_without_constraints(ellipse41):
    full = mirror_to_full(ellipse41)
    res = fit_nonsymmetric(full, FitConfig(order=2, tolerance=1e-8))
    assert res.converged
    assert res.error <= 1e-8
    assert res.coefficients.a[1] == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert res.thetas.theta[0] == pytest.approx(-pi / 2.0, abs=0.05)
    assert res.thetas.theta[-1] == pytest.approx(pi / 2.0, abs=0.05)


def test_dispatch_follows_the_symmetry_flag(circle41):
    sym = fit_section(circle41, FitConfig(order=3, tolerance=1e-8))
    assert sym.converged
    full = mirror_to_full(circle41)
    asym = fit_section(full, FitConfig(order=2, tolerance=1e-8))
    assert asym.converged
