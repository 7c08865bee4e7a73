from math import copysign, log, pi

import numpy as np
import pytest

from hullmap.mapping import (
    MappingCoefficients,
    ScaledCoefficients,
    _boundary,
    _series_terms,
    boundary_from_scaled,
    breadth_and_draft,
    evaluate_boundary,
    evaluate_offset_contour,
    lewis_initial_guess,
)

from oracles import series_point, shoelace_area

CIRCLE = MappingCoefficients(1.0, np.array([1.0]))
# 2:1 half-ellipse: semiaxes 2 and 1.
ELLIPSE = MappingCoefficients(1.5, np.array([1.0, 1.0 / 3.0]))


def test_leading_coefficient_must_be_one():
    with pytest.raises(ValueError, match="leading"):
        MappingCoefficients(1.0, np.array([0.9, 0.1]))


def test_scale_must_be_positive():
    with pytest.raises(ValueError, match="scale"):
        MappingCoefficients(0.0, np.array([1.0]))


@pytest.mark.parametrize(
    "scale, a",
    [
        (1.0, [1.0, float("nan")]),
        (1.0, [1.0, 0.2, float("inf")]),
        (1.0, [1.0, -float("inf")]),
        (float("inf"), [1.0, 0.1]),
        (float("nan"), [1.0, 0.1]),
    ],
)
def test_non_finite_coefficients_are_rejected(scale, a):
    with pytest.raises(ValueError, match="finite"):
        MappingCoefficients(scale, np.array(a))


def test_coefficients_are_read_only():
    with pytest.raises(ValueError):
        CIRCLE.a[0] = 2.0


def test_order_counts_coefficients():
    assert CIRCLE.order == 0
    assert ELLIPSE.order == 1
    assert MappingCoefficients(2.0, np.array([1.0, 0.1, 0.2, 0.3])).order == 3


def test_scaled_round_trip():
    back = ScaledCoefficients(ELLIPSE.scale * ELLIPSE.a).to_mapping()
    assert back.scale == pytest.approx(1.5)
    assert np.allclose(back.a, ELLIPSE.a)


def test_scaled_to_mapping_needs_positive_leading_value():
    with pytest.raises(ValueError):
        ScaledCoefficients(np.array([-1.0, 0.3])).to_mapping()


def test_circle_boundary_is_the_unit_circle():
    theta = np.linspace(0.0, pi / 2.0, 101)
    x, y = evaluate_boundary(CIRCLE, theta)
    assert np.allclose(x, np.sin(theta), atol=1e-15)
    assert np.allclose(y, np.cos(theta), atol=1e-15)


def test_ellipse_boundary_hits_keel_and_waterline():
    x0, y0 = evaluate_boundary(ELLIPSE, 0.0)
    assert (x0, y0) == (pytest.approx(0.0, abs=1e-15), pytest.approx(1.0))
    x1, y1 = evaluate_boundary(ELLIPSE, pi / 2.0)
    assert (x1, y1) == (pytest.approx(2.0), pytest.approx(0.0, abs=1e-15))


def test_boundary_matches_term_by_term_series():
    coeffs = MappingCoefficients(1.3, np.array([1.0, 0.21, -0.07, 0.02]))
    for theta in (0.0, 0.3, 1.1, pi / 2.0):
        x, y = evaluate_boundary(coeffs, theta)
        ox, oy = series_point(coeffs.scale, coeffs.a, theta)
        assert x == pytest.approx(ox, abs=1e-14)
        assert y == pytest.approx(oy, abs=1e-14)


def test_offset_contour_of_circle_is_a_larger_circle():
    # The leading term carries angle -theta, so its amplitude grows as e^beta.
    theta = np.linspace(0.0, pi / 2.0, 33)
    x, y = evaluate_offset_contour(CIRCLE, theta, beta=log(2.0))
    assert np.allclose(np.hypot(x, y), 2.0, atol=1e-14)
    x0, y0 = evaluate_offset_contour(CIRCLE, 0.0, beta=log(2.0))
    assert (x0, y0) == (pytest.approx(0.0, abs=1e-15), pytest.approx(2.0))


def test_offset_contour_at_zero_beta_is_the_boundary():
    theta = np.linspace(0.0, pi / 2.0, 17)
    bx, by = evaluate_boundary(ELLIPSE, theta)
    cx, cy = evaluate_offset_contour(ELLIPSE, theta, beta=0.0)
    assert np.array_equal(bx, cx) and np.array_equal(by, cy)


@pytest.mark.parametrize("beta", [0.0, 0.4])
def test_contours_end_on_the_waterline_exactly(beta):
    coeffs = MappingCoefficients(1.3, np.array([1.0, 0.1, -0.02]))
    theta = np.linspace(-pi / 2.0, pi / 2.0, 9)
    x, y = evaluate_offset_contour(coeffs, theta, beta)
    assert y[0] == 0.0 and y[-1] == 0.0
    bx, by = boundary_from_scaled(coeffs.scale * coeffs.a * np.exp(-beta * np.arange(-1, 5, 2)), theta)
    assert np.array_equal(x, bx)
    assert np.array_equal(y[1:-1], by[1:-1]) and abs(by[-1]) > 0.0
    assert evaluate_offset_contour(coeffs, pi / 2.0, beta)[1] == 0.0
    assert evaluate_offset_contour(coeffs, -pi / 2.0, beta)[1] == 0.0


def test_offset_contour_rejects_negative_beta():
    with pytest.raises(ValueError):
        evaluate_offset_contour(CIRCLE, 0.3, beta=-0.1)


def test_higher_terms_decay_with_beta():
    coeffs = MappingCoefficients(1.0, np.array([1.0, 0.0, 0.3]))
    # At theta = pi/2 the a3 term adds to x with weight e^(-3 beta).
    beta = 0.7
    x, _ = evaluate_offset_contour(coeffs, pi / 2.0, beta)
    expected = np.exp(beta) + 0.3 * np.exp(-3.0 * beta)
    assert x == pytest.approx(expected, abs=1e-14)


def test_breadth_and_draft_of_the_ellipse():
    breadth, draft = breadth_and_draft(ELLIPSE)
    assert breadth == pytest.approx(4.0)
    assert draft == pytest.approx(1.0)


def test_breadth_and_draft_match_boundary_extremes():
    coeffs = MappingCoefficients(0.9, np.array([1.0, 0.15, -0.04, 0.01, 0.002]))
    breadth, draft = breadth_and_draft(coeffs)
    x_wl, _ = evaluate_boundary(coeffs, pi / 2.0)
    _, y_keel = evaluate_boundary(coeffs, 0.0)
    assert breadth == pytest.approx(2.0 * x_wl, abs=1e-14)
    assert draft == pytest.approx(y_keel, abs=1e-14)


def test_keel_x_is_positive_zero():
    # The x sign lives in the series weights; negating the sum instead
    # would print the keel as -0.0 in reports.
    values = np.array([1.2, 0.3, -0.1])
    coeffs = ScaledCoefficients(values).to_mapping()
    for x in (
        boundary_from_scaled(values, 0.0)[0],
        boundary_from_scaled(values, np.array([0.0]))[0][0],
        evaluate_boundary(coeffs, 0.0)[0],
        evaluate_boundary(coeffs, np.array([0.0, 0.5]))[0][0],
    ):
        assert copysign(1.0, x) == 1.0


def test_boundary_scalar_and_array_forms_agree():
    values = np.array([1.2, 0.3, -0.1])
    theta = np.array([0.1, 0.7, 1.4])
    xs, ys = boundary_from_scaled(values, theta)
    for k, t in enumerate(theta):
        x, y = boundary_from_scaled(values, float(t))
        assert isinstance(x, float)
        # The array form sums rows inside one matrix product, which may
        # reorder the additions; agreement is to rounding, not bitwise.
        assert x == pytest.approx(xs[k], rel=1e-14, abs=1e-15)
        assert y == pytest.approx(ys[k], rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(37,), (3, 64)])
def test_weight_columns_sum_like_one_weight_vector_each(seed, shape):
    # A K-row weight matrix gives one sum per column.  BLAS sums a matrix
    # product in another order than a matrix-vector product, so a column
    # agrees with its 1-D call to the rounding of a K-term sum, not bitwise.
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 70))
    odd, wx, wy = _series_terms(10.0 ** rng.uniform(-3.0, 3.0, count) * rng.standard_normal(count))
    other = rng.standard_normal(count)
    theta = rng.uniform(-2.0, 2.0, shape)
    x2, y2 = _boundary((odd, np.array([wx, other]).T, np.array([wy, other]).T), theta)
    assert x2.shape == y2.shape == shape + (2,)
    for column, (sin_w, cos_w) in enumerate([(wx, wy), (other, other)]):
        x, y = _boundary((odd, sin_w, cos_w), theta)
        assert x.shape == y.shape == shape
        bound = 2.0 * count * np.finfo(float).eps * np.abs(sin_w).sum()
        assert np.all(np.abs(x2[..., column] - x) <= bound)
        assert np.all(np.abs(y2[..., column] - y) <= bound)


def _lewis_area(coeffs: MappingCoefficients) -> float:
    theta = np.linspace(0.0, pi / 2.0, 20001)
    x, y = evaluate_boundary(coeffs, theta)
    half = np.column_stack([x, y])
    closed = np.vstack([[0.0, 0.0], half])
    return 2.0 * shoelace_area(closed)


@pytest.mark.parametrize(
    "breadth,draft,sigma",
    [(2.0, 1.0, 1.0), (2.0, 1.0, 0.8), (4.0, 1.0, 0.9), (1.0, 2.0, 0.6), (3.0, 3.0, 0.785)],
)
def test_lewis_matches_breadth_draft_and_area(breadth, draft, sigma):
    area = sigma * breadth * draft
    guess = lewis_initial_guess(breadth, draft, area)
    assert guess.area_matched
    got_b, got_d = breadth_and_draft(guess.coefficients)
    assert got_b == pytest.approx(breadth, rel=1e-12)
    assert got_d == pytest.approx(draft, rel=1e-12)
    assert _lewis_area(guess.coefficients) == pytest.approx(area, rel=1e-4)


def test_lewis_falls_back_outside_the_valid_region():
    guess = lewis_initial_guess(2.0, 1.0, 3.0)
    assert not guess.area_matched
    got_b, got_d = breadth_and_draft(guess.coefficients)
    assert got_b == pytest.approx(2.0, rel=1e-12)
    assert got_d == pytest.approx(1.0, rel=1e-12)
    assert guess.coefficients.a[2] == 0.0


def test_lewis_rejects_flat_input():
    with pytest.raises(ValueError):
        lewis_initial_guess(0.0, 1.0, 0.5)
