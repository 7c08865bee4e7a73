from math import asin, cos, hypot, pi, sin, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import hullmap.theta as theta_mod
from hullmap.errors import ConfigurationError, DegenerateNormalError, FitAbortError
from hullmap.fit import FitConfig, fit_section
from hullmap.mapping import ScaledCoefficients, boundary_from_scaled
from hullmap.shapes import rectangle_section
from hullmap.theta import (
    NormalDirection,
    ThetaAssignment,
    _batch_roots,
    assign_thetas,
    theta_residual,
)

from oracles import lockstep_bisect_roots, projection_residual, scan_and_bisect_root

CIRCLE = ScaledCoefficients(np.array([1.0, 0.0]))


def _listed(roots, found):
    """The ``(roots, found)`` arrays of `_batch_roots` as a list, None where no root was found."""
    return [root if ok else None for root, ok in zip(roots.tolist(), found.tolist())]


def _solve(scaled, pts, normals, lo, hi, prefer):
    """`_batch_roots` on the row table of ``pts`` and ``normals``, `_listed`."""
    return _listed(*_batch_roots(scaled, theta_mod._row_table(pts, normals), lo, hi, prefer))


def _normals(points, symmetric):
    """`_free_normals` of bare points: it reads only a section's points and symmetry."""
    return theta_mod._free_normals(SimpleNamespace(points=np.array(points), symmetric=symmetric))


def test_interior_normal_of_a_diagonal_run():
    (n,) = _normals([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], symmetric=True)
    assert n[0] == pytest.approx(1.0 / sqrt(2.0))
    assert n[1] == pytest.approx(-1.0 / sqrt(2.0))


def test_endpoint_normals_use_the_one_sided_secant():
    first, _, last = _normals([[0.0, 0.0], [0.2, 0.3], [0.5, 0.5]], symmetric=False)
    ell = sqrt(0.13)
    assert first[0] == pytest.approx(0.2 / ell)
    assert first[1] == pytest.approx(-0.3 / ell)
    ell = sqrt(0.3**2 + 0.2**2)
    assert last[0] == pytest.approx(0.3 / ell)
    assert last[1] == pytest.approx(-0.2 / ell)


def test_zero_length_secant_raises():
    with pytest.raises(DegenerateNormalError):
        _normals([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], symmetric=True)


def test_section_normals_leave_pinned_endpoints_unset(tiny_symmetric, tiny_asymmetric):
    # A symmetric section's pinned endpoints get no row; every point of a
    # non-symmetric one does.
    assert theta_mod._free_normals(tiny_symmetric).shape == (len(tiny_symmetric.points) - 2, 2)
    assert theta_mod._free_normals(tiny_asymmetric).shape == (len(tiny_asymmetric.points), 2)


def test_normals_depend_only_on_geometry(tiny_symmetric):
    # Angle assignment must not perturb them between sweeps.
    before = theta_mod._free_normals(tiny_symmetric)
    assign_thetas(CIRCLE, tiny_symmetric)
    after = theta_mod._free_normals(tiny_symmetric)
    assert np.array_equal(before, after)


def test_residual_of_point_off_the_circle():
    r = theta_residual(CIRCLE, (0.5, 0.9), NormalDirection(1.0, 0.0), 0.0)
    assert r == pytest.approx(0.5, abs=1e-15)


def test_residual_scalar_matches_array_form():
    normal = NormalDirection(0.6, -0.8)
    grid = np.array([0.0, 0.4, 1.1])
    batch = theta_residual(CIRCLE, (0.3, 0.7), normal, grid)
    for k, t in enumerate(grid):
        assert theta_residual(CIRCLE, (0.3, 0.7), normal, float(t)) == pytest.approx(
            batch[k], rel=1e-13, abs=1e-15
        )


@given(
    st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=6),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0 * pi),
    st.floats(-2.0, 2.0),
)
def test_residual_equals_projection_onto_the_normal_line(values, px, py, phi, theta):
    scaled = ScaledCoefficients(np.array(values))
    normal = NormalDirection(cos(phi), sin(phi))
    got = theta_residual(scaled, (px, py), normal, theta)
    want = projection_residual(scaled.values, (px, py), normal.cos_phi, normal.sin_phi, theta)
    assert got == pytest.approx(want, abs=1e-12)


# One case per row: point, bracket, hint (None: the bracket midpoint).
BATCH_CASES = (
    ((sin(0.7), 0.123), (0.0, pi / 2.0), None),
    ((5.0, 0.0), (0.0, pi / 2.0), None),
    ((0.5, 0.5), (1.0, 1.0), None),
    # sin(theta) = 0.5 has roots pi/6 and 5 pi/6 inside the wide bracket.
    ((0.5, 0.0), (0.0, pi), 0.3),
    ((0.5, 0.0), (0.0, pi), 2.8),
    # At theta = 0 the residual vanishes exactly for a point on the centreline.
    ((0.0, 0.4), (0.0, pi / 2.0), 0.0),
    # On the integer grid 0..63 the zero at 0 and the sign changes at
    # midpoints 3.5 and 6.5 (around pi and 2 pi) tie for each hint.  The
    # hint 5.0 sits on sample 5: the 4 samples around it hold the sign
    # change at 6.5 and leave its tie at 3.5 outside, so only the full scan
    # may decide the row.
    ((0.0, 0.5), (0.0, 63.0), 1.75),
    ((0.0, 0.5), (0.0, 63.0), 5.0),
)


def _circle_roots(cases):
    """Batched roots on the unit circle, every point against a vertical normal."""
    pts = np.array([point for point, _, _ in cases], dtype=float)
    lo = np.array([bracket[0] for _, bracket, _ in cases])
    hi = np.array([bracket[1] for _, bracket, _ in cases])
    prefer = np.array(
        [0.5 * (b[0] + b[1]) if hint is None else hint for _, b, hint in cases]
    )
    vertical = np.tile([1.0, 0.0], (len(cases), 1))
    return _solve(CIRCLE, pts, vertical, lo, hi, prefer)


def test_solve_theta_on_the_circle():
    (root,) = _circle_roots(BATCH_CASES[0:1])
    assert root == pytest.approx(0.7, abs=1e-11)


def test_solve_theta_without_sign_change_returns_none():
    assert _circle_roots(BATCH_CASES[1:2]) == [None]


def test_solve_theta_rejects_empty_bracket():
    assert _circle_roots(BATCH_CASES[2:3]) == [None]


def test_solve_theta_prefers_the_candidate_nearest_the_hint():
    low, high = _circle_roots(BATCH_CASES[3:5])
    assert low == pytest.approx(asin(0.5), abs=1e-11)
    assert high == pytest.approx(pi - asin(0.5), abs=1e-11)


def test_solve_theta_returns_exact_grid_zeros():
    assert _circle_roots(BATCH_CASES[5:6]) == [0.0]


def test_solve_theta_breaks_ties_toward_zeros_then_lower_angles():
    at_zero, lower = _circle_roots(BATCH_CASES[6:8])
    assert at_zero == 0.0
    assert lower == pytest.approx(pi, abs=1e-11)


def test_solve_theta_batches_each_case_as_if_alone():
    together = _circle_roots(BATCH_CASES)
    alone = [_circle_roots([case])[0] for case in BATCH_CASES]
    assert together == alone


@given(
    st.lists(st.floats(0.3, 1.5), min_size=1, max_size=1).flatmap(
        lambda lead: st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=4).map(
            lambda rest: np.array(lead + rest)
        )
    ),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=60)
def test_batch_roots_match_scalar_roots(values, count, data):
    scaled = ScaledCoefficients(values)
    pts = np.array(
        [
            [data.draw(st.floats(-1.5, 1.5)), data.draw(st.floats(0.0, 1.5))]
            for _ in range(count)
        ]
    )
    phi = np.array([data.draw(st.floats(0.0, 2.0 * pi)) for _ in range(count)])
    normals = np.column_stack([np.cos(phi), np.sin(phi)])
    lo = np.array([data.draw(st.floats(-2.0, 1.0)) for _ in range(count)])
    hi = lo + np.array([data.draw(st.floats(0.0, 3.0)) for _ in range(count)])
    prefer = 0.5 * (lo + hi)
    batch = _solve(scaled, pts, normals, lo, hi, prefer)
    for i in range(count):
        c, s = normals[i]
        scalar = scan_and_bisect_root(values, pts[i], c, s, lo[i], hi[i], prefer[i])
        got = batch[i]
        if got == scalar or (None not in (got, scalar) and abs(got - scalar) <= 1e-10):
            continue
        # The library and the oracle round the residual differently, so they
        # may disagree only where a scan sample's residual is zero to rounding,
        # and the library's answer must then still be a root in the bracket.
        samples = np.linspace(lo[i], hi[i], theta_mod.SCAN_SAMPLES)
        assert min(abs(projection_residual(values, pts[i], c, s, t)) for t in samples) < 1e-12
        if got is not None:
            assert lo[i] <= got <= hi[i]
            assert abs(projection_residual(values, pts[i], c, s, got)) < 1e-9


def _lockstep(scaled, pts, normals, lo, hi, prefer):
    """The reference solver on the arguments `_batch_roots` takes."""
    listed = [NormalDirection(c, s) for c, s in normals.tolist()]
    return lockstep_bisect_roots(scaled, pts, listed, list(range(len(pts))), lo, hi, prefer)


# One row: kind, x, y, phi, lo, width, hint offset, scan sample j,
# hint kind, hint sample shift d.  The kinds other than "free" and "tie"
# place the point so that the residual is zero to rounding at a sample or at
# a first bisection midpoint, which makes the candidate and the root depend
# on the residual's last bits: "centreline" is (0, y) against a vertical
# normal with lo = 0 (an exact zero at the first sample for any
# coefficients); "sample" and "midpoint" put the point on the boundary at
# scan sample j or halfway to sample j + 1.  "tie" puts the hint on sample
# k = j (kept in 2..61) and the point and normal where the normal line meets
# the boundary at the midpoints of intervals k - 2 and k + 1: the two
# candidates are 1.5 steps from the hint, and the lower one lies outside the
# hint's 4 samples, so only the full scan may pick it.  The hint kinds
# decide whether those 4 samples settle the other rows' picks: "offset" puts
# the hint at lo + the hint offset, "sample" and "midpoint" on scan sample
# i = j + d or halfway to sample i + 1, near the point's root for the point
# kinds that place one, where a candidate outside those 4 samples can tie
# with one inside, "lo" and "hi" on the bracket's ends, and "far" well
# below it.
#
# The width comes from a choice 0..31: a float width up to 3 for 0..27 and
# an empty bracket for 28..30.  Choice 31 is the bracket [0,
# UNDERFLOW_WIDTH], 20 subnormal ulps, whose scan step underflows: one such
# row sends the whole batch to linspace and the full grid, so it is kept
# rare, and the float widths are never subnormal.  Most batches then reach
# `_window_picks`.
UNDERFLOW_WIDTH = 1e-322


def _width(choice: int):
    if choice == 31:
        return st.just(UNDERFLOW_WIDTH)
    if choice >= 28:
        return st.floats(-0.5, 0.0)
    return st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False)


BATCH_ROW = st.tuples(
    st.sampled_from(["free", "centreline", "sample", "midpoint", "tie"]),
    st.floats(-1.5, 1.5),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2.0 * pi),
    st.floats(-2.0, 1.0),
    st.integers(0, 31).flatmap(_width),
    st.floats(-1.0, 4.0),
    st.integers(0, theta_mod.SCAN_SAMPLES - 2),
    st.sampled_from(["offset", "sample", "midpoint", "lo", "hi", "far"]),
    st.integers(-1, 1),
)


@given(
    st.lists(st.floats(0.3, 1.5), min_size=1, max_size=1).flatmap(
        lambda lead: st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=6).map(
            lambda rest: np.array(lead + rest)
        )
    ),
    st.lists(BATCH_ROW, min_size=1, max_size=40),
)
# No shrink phase: shrinking a failing batch of up to 40 rows took minutes
# and over 1 GB, while the unshrunk batch already names the failure.
@settings(max_examples=150, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_batch_roots_equal_the_lockstep_oracle_bit_for_bit(values, rows):
    # Whole batches are compared: a row's bits depend on the rows sharing its
    # residual calls.
    scaled = ScaledCoefficients(values)
    lo = np.array([0.0 if row[0] == "centreline" or row[5] == UNDERFLOW_WIDTH else row[4] for row in rows])
    hi = lo + np.array([row[5] for row in rows])
    # Each row's own scan samples, as the solver places them when no
    # other row's step underflows.
    grid = np.array([np.linspace(a, b, theta_mod.SCAN_SAMPLES) for a, b in zip(lo, hi)])
    pts = np.empty((len(rows), 2))
    normals = np.empty((len(rows), 2))
    prefer = np.empty(len(rows))
    for i, (kind, x, y, phi, _, _, offset, j, hint, shift) in enumerate(rows):
        h = min(max(j + shift, 0), theta_mod.SCAN_SAMPLES - 2)
        prefer[i] = {
            "offset": lo[i] + offset,
            "sample": grid[i, h],
            "midpoint": 0.5 * (grid[i, h] + grid[i, h + 1]),
            "lo": lo[i],
            "hi": hi[i],
            "far": lo[i] - 50.0,
        }[hint]
        normals[i] = (cos(phi), sin(phi))
        if kind == "centreline":
            pts[i], normals[i] = (0.0, y), (1.0, 0.0)
        elif kind == "free":
            pts[i] = (x, y)
        elif kind == "tie":
            k = min(max(j, 2), theta_mod.SCAN_SAMPLES - 3)
            ends = [boundary_from_scaled(values, 0.5 * (grid[i, m] + grid[i, m + 1])) for m in (k - 2, k + 1)]
            (x0, y0), (x1, y1) = ends
            length = hypot(x1 - x0, y1 - y0)
            if length:
                pts[i] = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
                normals[i] = ((y1 - y0) / length, (x1 - x0) / length)
            else:
                pts[i] = (x, y)
            prefer[i] = grid[i, k]
        else:
            t = grid[i, j] if kind == "sample" else 0.5 * (grid[i, j] + grid[i, j + 1])
            pts[i] = boundary_from_scaled(values, t)
    got = _solve(scaled, pts, normals, lo, hi, prefer)
    assert got == _lockstep(scaled, pts, normals, lo, hi, prefer)


def test_fit_sweeps_equal_the_lockstep_oracle_bit_for_bit(rectangle41, monkeypatch):
    real = _batch_roots
    compared = []
    pts = rectangle41.points[1:-1]
    normals = theta_mod._free_normals(rectangle41)

    def checked(scaled, table, lo, hi, prefer):
        assert np.array_equal(table, theta_mod._row_table(pts, normals))
        out = real(scaled, table, lo, hi, prefer)
        assert _listed(*out) == _lockstep(scaled, pts, normals, lo, hi, prefer)
        compared.append(len(out[0]))
        return out

    monkeypatch.setattr(theta_mod, "_batch_roots", checked)
    result = fit_section(rectangle41, FitConfig(5, 1e-8))
    assert len(compared) == len(result.theta_history) > 1
    assert all(n == len(rectangle41.points) - 2 for n in compared)


def _exact_series(values, x, y, c, s, t):
    """The residual and its slope at 40 digits, from the float inputs as given."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, y, c, s, t = (mpmath.mpf(float(v)) for v in (x, y, c, s, t))
        bx = by = dbx = dby = mpmath.mpf(0)
        for n, fa in enumerate(values):
            weight, odd = (-1) ** n * mpmath.mpf(float(fa)), 2 * n - 1
            bx -= weight * mpmath.sin(odd * t)
            by += weight * mpmath.cos(odd * t)
            dbx -= weight * odd * mpmath.cos(odd * t)
            dby -= weight * odd * mpmath.sin(odd * t)
        return x * c - c * bx - y * s + s * by, s * dby - c * dbx


@pytest.mark.parametrize("seed", range(24))
def test_rounding_bounds_hold_against_40_digit_arithmetic(seed):
    # Each bound carries the factor ROUNDING_SAFETY over its derivation, so
    # the observed error must stay within a 1 / ROUNDING_SAFETY share of it.
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 65))
    values = 10.0 ** rng.uniform(-2.0, 2.0) * rng.standard_normal(count)
    rows, samples = 3, 6
    edge = pi / 2.0 + theta_mod.ASYM_DOMAIN_SLACK
    theta = rng.uniform(-edge, edge, (rows, samples))
    scale = np.abs(values).sum()
    x, y = rng.uniform(-scale, scale, (2, rows, 1))
    phi = rng.uniform(0.0, 2.0 * pi, (rows, 1))
    c, s = np.cos(phi), np.sin(phi)
    terms = theta_mod._series_terms(values)
    odd, wx, wy = terms
    mult = np.abs(odd)
    fa = np.abs(values)
    low, high, high2 = fa.sum(), fa @ mult, fa @ (mult * mult)
    cs, xys = np.abs(c) + np.abs(s), np.abs(x * c) + np.abs(y * s)
    residual = theta_mod._residual(terms, x * c, y * s, c, s, theta)
    horner = theta_mod._horner_residual(values, x * c, y * s, c, s, theta)
    flat = [np.broadcast_to(v, theta.shape).ravel() for v in (x * c, y * s, c, s, theta)]
    sin_w, cos_w = np.column_stack([wx, -(wy * odd)]), np.column_stack([wy, wx * odd])
    value, slope = theta_mod._value_and_slope(odd, sin_w, cos_w, *flat)
    bound = theta_mod._rounding_bound(cs, np.abs(theta), low, high, count, xys)
    horner_bound = theta_mod._horner_bound(cs, low, high, count, xys)
    slope_bound = theta_mod._rounding_bound(cs, np.abs(theta), high, high2, count)
    share = theta_mod.ROUNDING_SAFETY
    for i in range(rows):
        for j in range(samples):
            true, true_slope = _exact_series(values, x[i, 0], y[i, 0], c[i, 0], s[i, 0], theta[i, j])
            k = i * samples + j
            assert abs(residual[i, j] - true) <= bound[i, j] / share
            assert abs(value[k] - true) <= bound[i, j] / share
            assert abs(horner[i, j] - true) <= horner_bound[i, 0] / share
            assert abs(slope[k] - true_slope) <= slope_bound[i, j] / share


class _CountingResidual:
    """Stands in for `theta._residual`, counting scan (2-d) and bisection calls.

    ``angles`` lists the angles of each bisection call.
    """

    def __init__(self, monkeypatch):
        self.real = theta_mod._residual
        self.scans = self.steps = 0
        self.angles = []
        monkeypatch.setattr(theta_mod, "_residual", self)

    def __call__(self, terms, xc, ys, c, s, theta):
        if np.ndim(theta) == 2:
            self.scans += 1
        else:
            self.steps += 1
            self.angles.append(np.array(theta))
        return self.real(terms, xc, ys, c, s, theta)


def _circle_rows_with_exact_zeros(offset, count=24, seed=0):
    """Unit-circle rows whose float residual is exactly zero at a chosen angle.

    Each point is (sin t, y) against the normal (1, 0), whose residual
    x - sin(theta) the library evaluates as exactly 0.0 at theta = t.  With
    ``offset`` 0, t is scan sample j; with 0.5 it is the midpoint of samples
    j and j + 1, the first midpoint the bisection of that interval tries.
    """
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-0.5, 0.3, count)
    hi = lo + rng.uniform(0.5, 0.9, count)
    grid = np.linspace(lo, hi, theta_mod.SCAN_SAMPLES, axis=-1)
    rows, j = np.arange(count), rng.integers(1, theta_mod.SCAN_SAMPLES - 2, count)
    at = grid[rows, j] if offset == 0 else 0.5 * (grid[rows, j] + grid[rows, j + 1])
    pts = np.column_stack([boundary_from_scaled(CIRCLE.values, at)[0], rng.uniform(0.0, 1.0, count)])
    return pts, np.tile([1.0, 0.0], (count, 1)), lo, hi, at


def test_a_sample_residual_zero_to_rounding_forces_the_exact_scan(monkeypatch):
    pts, normals, lo, hi, at = _circle_rows_with_exact_zeros(0.0)
    counter = _CountingResidual(monkeypatch)
    got = _solve(CIRCLE, pts, normals, lo, hi, at)
    assert counter.scans == 1
    assert got == at.tolist()
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, at)


def test_a_midpoint_in_the_zone_of_doubt_forces_an_exact_step(monkeypatch):
    pts, normals, lo, hi, at = _circle_rows_with_exact_zeros(0.5)
    counter = _CountingResidual(monkeypatch)
    got = _solve(CIRCLE, pts, normals, lo, hi, at)
    assert counter.scans == 0 and counter.steps >= 1
    assert got == at.tolist()
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, at)


def _bisection_midpoint(a, b, turns):
    """The midpoint the bisection of [a, b] tries after halving toward ``turns``.

    Each turn is "lower" or "upper", the half kept at that step.
    """
    for turn in turns:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if turn == "lower" else (mid, b)
    return 0.5 * (a + b)


def _record_blocks(monkeypatch):
    """Wraps `theta._certified_steps`; the list gets (steps run, steps kept) per block."""
    real = theta_mod._certified_steps
    blocks = []

    def recorded(state, lo_neg, terms, count):
        out = real(state, lo_neg, terms, count)
        blocks.append((count, out[0]))
        return out

    monkeypatch.setattr(theta_mod, "_certified_steps", recorded)
    return blocks


def test_doubt_in_mid_block_rolls_back_to_that_step(monkeypatch):
    # Unit-circle rows (sin t, y) against the normal (1, 0), whose float
    # residual is exactly zero at theta = t.  Row 0 puts t on the midpoint
    # its bisection tries at step 6, after six steps the certificate decides;
    # row 1 on its first midpoint; row 2's root is on no midpoint.  An exact
    # zero moves both ends, which no prediction does.  So the first block
    # rolls back to step 0 for row 1, whose exact call holds all three rows;
    # row 1 closes on its zero.  The next block runs from step 1, rolls back
    # to its sixth step for row 0, and makes the exact call on rows 0 and 2,
    # at their step-6 midpoints.
    lo, hi = np.array([0.1, -0.2, 0.25]), np.array([0.9, 0.5, 1.05])
    grid = np.linspace(lo, hi, theta_mod.SCAN_SAMPLES, axis=-1)
    at = np.array(
        [
            _bisection_midpoint(
                grid[0, 20], grid[0, 21], ["lower", "upper", "upper", "lower", "upper", "lower"]
            ),
            _bisection_midpoint(grid[1, 40], grid[1, 41], []),
            0.5,
        ]
    )
    x = boundary_from_scaled(CIRCLE.values, at)[0]
    x[2] = 0.4
    pts = np.column_stack([x, [0.3, 0.6, 0.9]])
    normals = np.tile([1.0, 0.0], (3, 1))
    prefer = np.array([at[0], at[1], np.arcsin(0.4)])
    counter = _CountingResidual(monkeypatch)
    got = _solve(CIRCLE, pts, normals, lo, hi, prefer)
    assert counter.scans == 0
    assert [len(angles) for angles in counter.angles] == [3, 2]
    # Row 2's bisection keeps the half of its scan interval holding asin(0.4).
    k = int(np.searchsorted(grid[2], asin(0.4))) - 1
    a, b = grid[2, k], grid[2, k + 1]
    for _ in range(6):
        mid = 0.5 * (a + b)
        a, b = (a, mid) if sin(mid) > 0.4 else (mid, b)
    assert counter.angles[1].tolist() == [at[0], 0.5 * (a + b)]
    assert got[:2] == at[:2].tolist()
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, prefer)


def test_a_doubtful_step_whose_exact_call_agrees_keeps_the_block(monkeypatch):
    # Row 0's root lies 5e-15 above the first midpoint its bisection tries:
    # inside that step's zone of doubt, but on the side the certificate
    # predicts.  Row 1's root, asin(0.4), is on no midpoint.  The step's
    # exact call holds both rows and moves the ends the certificate moved,
    # so the one block runs to its end with no other exact call.
    lo, hi = np.array([0.1, 0.25]), np.array([0.9, 1.05])
    grid = np.linspace(lo, hi, theta_mod.SCAN_SAMPLES, axis=-1)
    first = 0.5 * (grid[0, 30] + grid[0, 31])
    pts = np.array([[sin(first + 5e-15), 0.3], [0.4, 0.9]])
    normals = np.tile([1.0, 0.0], (2, 1))
    prefer = np.array([first, asin(0.4)])
    counter = _CountingResidual(monkeypatch)
    blocks = _record_blocks(monkeypatch)
    got = _solve(CIRCLE, pts, normals, lo, hi, prefer)
    k = int(np.searchsorted(grid[1], asin(0.4))) - 1
    assert counter.scans == 0
    assert [angles.tolist() for angles in counter.angles] == [[first, 0.5 * (grid[1, k] + grid[1, k + 1])]]
    assert len(blocks) == 1 and blocks[0][0] == blocks[0][1]
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, prefer)


def test_a_root_estimate_on_a_midpoint_rolls_the_block_back(monkeypatch):
    # Row 0's root estimate r is moved onto the midpoint its bisection tries
    # at step j, bit for bit, and its eta widened by the move, so that the
    # certificate still holds.  The prediction then moves neither end at
    # step j, while the root lies above that midpoint: the block must roll
    # back there and let the exact call move the lower end, or the bracket
    # never shrinks again.
    lo, hi = np.array([0.25, 0.1]), np.array([1.05, 0.9])
    grid = np.linspace(lo, hi, theta_mod.SCAN_SAMPLES, axis=-1)
    root = asin(0.4)
    k = int(np.searchsorted(grid[0], root)) - 1
    a, b = grid[0, k], grid[0, k + 1]
    mids = []
    for _ in range(8):
        mids.append(0.5 * (a + b))
        a, b = (a, mids[-1]) if sin(mids[-1]) > 0.4 else (mids[-1], b)
    j = next(j for j in range(1, 8) if sin(mids[j]) < 0.4)
    real = theta_mod._enclosures

    def moved(*args):
        r, eta = real(*args)
        eta[0] += abs(r[0] - mids[j])
        r[0] = mids[j]
        return r, eta

    monkeypatch.setattr(theta_mod, "_enclosures", moved)
    counter = _CountingResidual(monkeypatch)
    blocks = _record_blocks(monkeypatch)
    pts = np.array([[0.4, 0.3], [0.55, 0.9]])
    normals = np.tile([1.0, 0.0], (2, 1))
    prefer = np.array([root, asin(0.55)])
    got = _solve(CIRCLE, pts, normals, lo, hi, prefer)
    assert blocks[0][1] == j
    assert counter.angles[0][0] == mids[j]
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, prefer)


def test_a_bracket_whose_scan_step_underflows_is_sampled_as_linspace_samples_it():
    # The first bracket is 20 subnormal ulps wide, so its scan step
    # 1e-322 / 63 rounds to zero.  linspace then spreads k / 63 * width over
    # the bracket, which puts a sample on the root 3e-323 of x - sin(theta),
    # x = 3e-323; k * step + lo would not.
    pts = np.array([[3e-323, 0.5], [0.5, 0.5]])
    normals = np.tile([1.0, 0.0], (2, 1))
    lo, hi = np.array([0.0, 0.1]), np.array([1e-322, 0.9])
    got = _solve(CIRCLE, pts, normals, lo, hi, np.array([0.0, 0.5]))
    assert got[0] == 3e-323
    assert got == _lockstep(CIRCLE, pts, normals, lo, hi, np.array([0.0, 0.5]))


# Bracket lower ends anywhere in and beyond the widest domain, negative
# ones included, or within a few ulps of +-pi/2; widths of 1 to 8 ulps of
# the lower end, or floats.  Ends below 1e-290 would give ulp widths whose
# scan step underflows, which the window never sees.
_BRACKET_ENDS = st.one_of(
    st.floats(-4.0, 4.0).filter(lambda end: abs(end) > 1e-290),
    st.sampled_from([-pi / 2.0, pi / 2.0]).flatmap(
        lambda edge: st.integers(-4, 4).map(lambda n: edge + n * float(np.spacing(edge)))
    ),
)
_BRACKET_WIDTHS = st.one_of(
    st.integers(1, 8).map(lambda n: lambda end: n * abs(float(np.spacing(end)))),
    st.floats(1e-9, 3.0).map(lambda width: lambda end: width),
)


@given(st.lists(st.tuples(_BRACKET_ENDS, _BRACKET_WIDTHS, st.floats(-1.0, 2.0)), min_size=1, max_size=20))
# A hint past hi puts the last sample in the window; here 63 steps from lo
# overshoot hi, 1.96, by an ulp, and linspace writes hi itself.
@example([(-0.02, lambda end: 1.98, 2.0)])
def test_every_window_sample_is_the_linspace_sample(rows):
    # The window's pick equals the full scan's only if its samples are the
    # full scan's, np.linspace's, bit for bit.
    lo = np.array([end for end, _, _ in rows])
    hi = np.array([end + width(end) for end, width, _ in rows])
    step = (hi - lo) / (theta_mod.SCAN_SAMPLES - 1)
    assume((lo < hi).all() and step.all())
    hint = lo + np.array([share for _, _, share in rows]) * (hi - lo)
    grid = np.linspace(lo, hi, theta_mod.SCAN_SAMPLES, axis=-1)
    real = theta_mod._samples
    strips = []

    def recorded(*args):
        strips.append((args[3], real(*args)))
        return strips[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theta_mod, "_samples", recorded)
        _solve(CIRCLE, np.tile([0.5, 0.5], (len(rows), 1)), np.tile([1.0, 0.0], (len(rows), 1)), lo, hi, hint)
    ((index, strip),) = strips
    assert np.array_equal(strip.view(np.uint64), np.take_along_axis(grid, index, axis=1).view(np.uint64))
    every = real(lo[:, None], hi[:, None], step[:, None], np.arange(theta_mod.SCAN_SAMPLES))
    assert np.array_equal(every.view(np.uint64), grid.view(np.uint64))


def test_a_fit_builds_its_normals_once(monkeypatch):
    section = rectangle_section(41, breadth=2.0, draft=1.0)
    built = []
    real = theta_mod._free_normals

    def counted(sec):
        built.append(sec)
        return real(sec)

    monkeypatch.setattr(theta_mod, "_free_normals", counted)
    result = fit_section(section, FitConfig(5, 1e-8))
    assert result.iterations > 1
    assert built == [section]


def test_three_roots_in_one_scan_interval_leave_the_row_uncertified(monkeypatch):
    # -x(t) = (3 - 3k) t - 13.5 k t**3 + ... for coefficients (1, 0, k/3):
    # with k just above 1 the residual of (0, y) against the normal (1, 0)
    # has roots at 0 and about +-1e-3, all between scan samples -0.0055 and
    # 0.0045, so no slope bound proves it monotone there.
    k = 1.0 + 4.5e-6
    scaled = ScaledCoefficients(np.array([1.0, 0.0, k / 3.0]))
    pts = np.array([[0.0, 0.3], [0.2, 0.9]])
    normals = np.array([[1.0, 0.0], [0.6, -0.8]])
    lo, hi = np.array([-0.3155, -0.3155]), np.array([0.3145, 0.3145])
    prefer = np.zeros(2)
    counter = _CountingResidual(monkeypatch)
    got = _solve(scaled, pts, normals, lo, hi, prefer)
    assert counter.steps >= 1
    assert got == _lockstep(scaled, pts, normals, lo, hi, prefer)
    assert abs(got[0]) < 2e-3


def test_a_converging_sweep_calls_the_exact_residual_a_few_times(rectangle41, monkeypatch):
    result = fit_section(rectangle41, FitConfig(5, 1e-8))
    scaled = ScaledCoefficients(result.fa_history[-1])
    counter = _CountingResidual(monkeypatch)
    assign_thetas(scaled, rectangle41, result.theta_history[-2])
    assert counter.scans + counter.steps < 10


def test_assign_thetas_pins_symmetric_endpoints(circle41):
    out = assign_thetas(CIRCLE, circle41)
    assert out.theta[0] == 0.0
    assert out.theta[-1] == pi / 2.0
    assert out.unresolved == frozenset()
    assert np.all(out.theta >= 0.0) and np.all(out.theta <= pi / 2.0)


def test_assign_thetas_recovers_circle_angles(circle41):
    out = assign_thetas(CIRCLE, circle41)
    expected = np.linspace(0.0, pi / 2.0, 41)
    assert np.allclose(out.theta, expected, atol=1e-10)


def test_assign_thetas_second_sweep_tracks_the_first(circle41):
    first = assign_thetas(CIRCLE, circle41)
    second = assign_thetas(CIRCLE, circle41, first)
    assert np.allclose(second.theta, first.theta, atol=1e-10)


def test_assign_thetas_needs_a_free_coefficient(circle41):
    with pytest.raises(ConfigurationError):
        assign_thetas(ScaledCoefficients(np.array([1.0])), circle41)


def test_unresolved_points_step_by_extrapolation(tiny_symmetric, monkeypatch):
    reference = assign_thetas(CIRCLE, tiny_symmetric)

    real = _batch_roots

    def drop_last_interior(scaled, table, lo, hi, prefer):
        roots, found = real(scaled, table, lo, hi, prefer)
        roots[-1], found[-1] = np.nan, False
        return roots, found

    monkeypatch.setattr(theta_mod, "_batch_roots", drop_last_interior)
    out = assign_thetas(CIRCLE, tiny_symmetric, reference)
    i = len(tiny_symmetric) - 2
    assert i in out.unresolved
    stepped = out.theta[i - 1] + (out.theta[i - 1] - out.theta[i - 2])
    assert out.theta[i] == pytest.approx(min(stepped, pi / 2.0), abs=1e-15)


def test_extrapolation_clamps_to_the_domain(tiny_asymmetric, monkeypatch):
    reference = assign_thetas(CIRCLE, tiny_asymmetric)
    real = _batch_roots

    def no_roots(scaled, table, lo, hi, prefer):
        roots, found = real(scaled, table, lo, hi, prefer)
        roots[2:], found[2:] = np.nan, False
        return roots, found

    monkeypatch.setattr(theta_mod, "_batch_roots", no_roots)
    out = assign_thetas(CIRCLE, tiny_asymmetric, reference)
    hi = pi / 2.0 + theta_mod.ASYM_DOMAIN_SLACK
    assert np.all(out.theta <= hi + 1e-15)
    assert np.all(out.theta >= -hi - 1e-15)


def test_abort_when_the_leading_points_have_no_angle(tiny_asymmetric, monkeypatch):
    monkeypatch.setattr(
        theta_mod,
        "_batch_roots",
        lambda scaled, table, lo, hi, prefer: (np.full(len(lo), np.nan), np.zeros(len(lo), dtype=bool)),
    )
    with pytest.raises(FitAbortError):
        assign_thetas(CIRCLE, tiny_asymmetric)


def test_theta_assignment_is_read_only():
    out = ThetaAssignment(np.array([0.0, 0.5]), frozenset())
    with pytest.raises(ValueError):
        out.theta[0] = 1.0
