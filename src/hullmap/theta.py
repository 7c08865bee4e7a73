"""Assigning a circle angle to every offset point.

Each input point gets the angle at which the mapped boundary point lies on
the straight line through the input point along its local inward normal.
Normals come from secants through neighbouring points, so they depend only on
the geometry and stay fixed while the coefficients iterate.  The angle
condition is the scalar root of a residual that is linear in the scaled
coefficients.  `_batch_roots` is the one solver: it brackets every point's
root by a uniform scan (``np.linspace``'s samples), picks each point's
candidate, the one nearest its previous angle, and polishes all of them by
bisection in lockstep.  It returns the roots, and where one was found, as
arrays.  It reads each point from a table of rows that depend only on the
geometry, x cos_phi, y sin_phi, cos_phi, sin_phi and the magnitudes its
rounding bounds need (`_row_table`), built once per section.  The
residual, and the values and slopes of the certificate below, evaluate the
boundary through `mapping._boundary`, the package's one sin/cos sum of the
odd-harmonic series, with the series terms built once per sweep.  The one
other evaluation of the series is `_horner_residual`, the scan's complex
Horner form: it takes one sine and one cosine per angle where the sum takes
one per term, and the scan with the sum in its place (under a doubled doubt
bound) made the full order searches slower.

Which rows share each residual call is part of the numerical result: the
series ends in a matrix-vector product whose rounding of a row can depend
on how many rows the call holds.  So the bisection calls the residual on
exactly the brackets still open, in point order, and nothing else.  A change
that regroups, pads or speculatively evaluates rows can move roots by an
ulp, and through them every later sweep.

The solver reads only the residual's sign, and whether it is exactly zero,
never its value.  So most signs come from cheaper computations that provably
agree with the float residual: a complex Horner evaluation of the series for
the scan, and for the bisection a Newton estimate of each root inside an
interval where the residual is proved monotone.  Each comes with a rigorous
bound on its distance from the float residual, and a sign is taken from it
only where the value clears that bound.  Where any sign is in doubt, the
solver makes the exact call it always made, on the same rows: the whole grid
of every row for the scan, all the open brackets for a bisection step.
Since every sign decided either way equals the float residual's, the
brackets, the open rows and so the grouping of every exact call stay as they
were, and the roots stay bit-identical.  A certificate may only ever remove
exact calls, never add, move or regroup one.  `_batch_roots` derives the
bounds.

The scan first looks only at the 4 samples around each point's previous
angle.  Where their signs are certified and hold a sign change strictly
nearer that angle than every sample and interval midpoint outside them, the
full scan could pick nothing else, so the point takes that pick; the other
points scan the whole grid.  The distances are the full pick's own float
keys, and they grow away from the angle on each side, so the nearest outside
midpoint on each side stands for everything outside.

While every open bracket is certified, the bisection runs its steps in
blocks of in-place halvings, as many as no open bracket can close in, so
every step of a block holds all its rows open.  A step with a midpoint in
doubt makes its exact call on all those rows; the block keeps its path
while each such call moves the ends the certificate moved, and rolls back
to the first step whose call does not.  So every exact call happens at the
same step with the same rows as it would one step at a time.

A point whose residual never changes sign inside its bracket keeps moving by
linear extrapolation from its two predecessors and is reported as unresolved.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import frexp, hypot, ldexp, pi

import numpy as np

from .errors import ConfigurationError, DegenerateNormalError, FitAbortError
from .mapping import ScaledCoefficients, _boundary, _series_terms, boundary_from_scaled
from .section import SectionOffsets

THETA_TOL = 1e-12
SCAN_SAMPLES = 64
BRACKET_SLACK = 0.1
ASYM_DOMAIN_SLACK = 0.35
MAX_BISECTIONS = 200
# The rounding bounds of `_batch_roots` are this many times their derived
# worst case; the slack also covers the rounding of the certificate's own
# arithmetic and the ignored second-order terms.
ROUNDING_SAFETY = 4.0
# Newton steps from an interval's centre to the estimate the bisection
# compares against; three take a scan interval's centre to rounding level on
# later sweeps, and the estimate only needs to be close, not exact.
NEWTON_STEPS = 3
_UNIT = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class NormalDirection:
    """Unit inward normal of a point, stored as (cos_phi, sin_phi)."""

    cos_phi: float
    sin_phi: float


@dataclass(frozen=True)
class ThetaAssignment:
    """Nondecreasing angles for all points plus the indices not pinned by a root."""

    theta: np.ndarray
    unresolved: frozenset

    def __post_init__(self):
        arr = np.array(self.theta, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)
        object.__setattr__(self, "unresolved", frozenset(self.unresolved))


def _unit_normals(secants: np.ndarray) -> np.ndarray:
    """Unit normals (cos_phi, sin_phi) = (dx, -dy) / |(dx, dy)|, one per secant row."""
    length = np.array([hypot(dx, dy) for dx, dy in secants.tolist()])
    if np.any(length == 0.0):
        raise DegenerateNormalError("zero-length secant between neighbouring points")
    return np.column_stack([secants[:, 0], -secants[:, 1]]) / length[:, None]


def _free_normals(section: SectionOffsets) -> np.ndarray:
    """(cos_phi, sin_phi) rows for the points whose angle is solved, in point order.

    Interior points take the secant through their neighbours.  A non-symmetric
    section's endpoints take the one-sided secant; a symmetric section's
    endpoints are pinned and have no row.
    """
    pts = section.points
    secants = pts[2:] - pts[:-2]
    if not section.symmetric:
        secants = np.vstack([pts[1] - pts[0], secants, pts[-1] - pts[-2]])
    return _unit_normals(secants)


def _row_table(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The rows `_batch_roots` reads, one column per point (x, y) with normal (c, s).

    The rows are x c, y s, c, s, |c| + |s| and |x c| + |y s|.
    """
    c, s = normals[:, 0], normals[:, 1]
    xc, ys = points[:, 0] * c, points[:, 1] * s
    return np.array([xc, ys, c, s, np.abs(c) + np.abs(s), np.abs(xc) + np.abs(ys)])


# Per-section sweep invariants, keyed by the section object: a section's
# points are read-only, so its rows are built on its first sweep and dropped
# with the section.
_FREE_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _free_rows(section: SectionOffsets) -> tuple:
    """The solved points' and their neighbours' indices, their `_row_table` and the angle domain.

    The tuple is (free, before, after, table, theta_min, theta_max).  The
    domain is [0, pi/2] for a symmetric section, and otherwise [-pi/2, pi/2]
    widened by `ASYM_DOMAIN_SLACK` at each end.  Built once per section; the
    arrays are read-only.
    """
    rows = _FREE_ROWS.get(section)
    if rows is None:
        last = len(section.points) - 1
        if section.symmetric:
            free, domain = np.arange(1, last), (0.0, pi / 2.0)
        else:
            edge = pi / 2.0 + ASYM_DOMAIN_SLACK
            free, domain = np.arange(last + 1), (-edge, edge)
        arrays = (
            free,
            np.maximum(free - 1, 0),
            np.minimum(free + 1, last),
            _row_table(section.points[free], _free_normals(section)),
        )
        for array in arrays:
            array.setflags(write=False)
        rows = _FREE_ROWS[section] = (*arrays, *domain)
    return rows


def _residual(terms, xc, ys, cos_phi, sin_phi, theta):
    """Projection residual at ``theta`` of points with normals (cos_phi, sin_phi).

    ``xc`` and ``ys`` are the points' x*cos_phi and y*sin_phi.  The arguments
    broadcast against each other; ``theta`` fixes the shape of the series
    evaluation.  The operation order, x*c - c*bx - y*s + s*by, is part of the
    result's bits.
    """
    bx, by = _boundary(terms, theta)
    return ((xc - cos_phi * bx) - ys) + sin_phi * by


def theta_residual(scaled: ScaledCoefficients, point, normal: NormalDirection, theta):
    """Projection residual of ``point`` onto the boundary at angle ``theta``.

    Zero means the mapped point at ``theta`` lies on the normal line through
    the input point.  Accepts a scalar angle or an array of angles.
    """
    th = np.asarray(theta, dtype=float)
    x, y = float(point[0]), float(point[1])
    c, s = normal.cos_phi, normal.sin_phi
    res = _residual(_series_terms(scaled.values), x * c, y * s, c, s, th)
    return float(res) if th.ndim == 0 else res


def _rounding_bound(cs, t_abs, low, high, count, xys=0.0):
    """Bound E on |fl(f) - f| for the residual (or slope) summed from np.sin/np.cos terms.

    ``cs`` = |cos_phi| + |sin_phi|, ``xys`` = |x cos_phi| + |y sin_phi| (0 for
    the slope), ``t_abs`` bounds |theta|, ``count`` is the number of terms,
    and ``low`` and ``high`` are the sums of the term weights' magnitudes
    without and with one more factor |2n - 1|.  `_batch_roots` derives it.
    """
    return ROUNDING_SAFETY * _UNIT * (cs * (t_abs * high + (1.01 * count + 20.0) * low) + 4.0 * xys)


def _horner_bound(cs, low, high, count, xys):
    """Bound E_h on |g - f| for the residual g of `_horner_residual`; see `_batch_roots`."""
    return ROUNDING_SAFETY * _UNIT * (cs * (25.0 * high + (4.0 * count + 56.0) * low) + 4.0 * xys)


def _horner_residual(values, xc, ys, cos_phi, sin_phi, theta):
    """The residual by complex Horner, with one sine and one cosine per angle.

    The boundary is y - i x = conj(z) * sum_n Fa_n w**n with z = exp(i theta)
    and w = -z**2, for the scaled coefficients Fa_n = ``values``.
    """
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    w = -(z * z)
    acc = np.full(theta.shape, values[-1], dtype=complex)
    for coeff in values[-2::-1]:
        acc *= w
        acc += coeff
    acc *= np.conj(z)
    return (xc - ys) + (cos_phi * acc.imag + sin_phi * acc.real)


def _value_and_slope(odd, sin_weights, cos_weights, xc, ys, cos_phi, sin_phi, theta):
    """The residual and its derivative in theta, from one `_boundary` call.

    ``sin_weights`` and ``cos_weights`` are the columns (wx, -wy * odd) and
    (wy, wx * odd) built from the series terms (odd, wx, wy).
    """
    sin_part, cos_part = _boundary((odd, sin_weights, cos_weights), theta)
    value = ((xc - cos_phi * sin_part[:, 0]) - ys) + sin_phi * cos_part[:, 0]
    slope = sin_phi * sin_part[:, 1] - cos_phi * cos_part[:, 1]
    return value, slope


def _enclosures(series, sums, table, a, b, a_neg):
    """Root estimates r and half-widths eta of the zones where a sign is in doubt.

    Row k, column k of the `_row_table` ``table``, has its residual proved
    monotone on ``[a[k], b[k]]``, with the sign ``a_neg[k]`` at its lower
    end, and every t there with |t - r| > eta has the float residual's sign
    of (t - r) * slope; rows without that proof get eta = inf.  ``series``
    holds the arguments (odd, sin_weights, cos_weights) of
    `_value_and_slope` and ``sums`` K, A, B and B2 (see `_batch_roots`).
    """
    count, low, high, high2 = sums
    cs, xys = table[4:]
    t_abs = np.maximum(np.abs(a), np.abs(b))
    r = 0.5 * (a + b)
    f, slope = _value_and_slope(*series, *table[:4], r)
    f_min = np.abs(slope) - _rounding_bound(cs, t_abs, high, high2, count) - cs * high2 * (b - a) * 0.5
    certified = (f_min > 0.0) & (a_neg == (slope > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            r = np.clip(r - f / slope, a, b)
            f, slope = _value_and_slope(*series, *table[:4], r)
        eta = (np.abs(f) + 2.0 * _rounding_bound(cs, t_abs, low, high, count, xys)) / f_min
    eta[~certified] = np.inf
    return r, eta


def _block_length(width: float, t_max: float) -> int:
    """Bisection steps that no bracket at least ``width`` wide can close in.

    That is 1 + the largest j with width >= tau * 2**j, and 1 if there is
    none, for tau = THETA_TOL + 4u (THETA_TOL + t_max) and brackets inside
    [-t_max, t_max]; `_batch_roots` derives it.
    """
    tau = THETA_TOL + 4.0 * _UNIT * (THETA_TOL + t_max)
    exponent = frexp(width / tau)[1]
    if ldexp(tau, exponent - 1) > width:
        exponent -= 1
    return max(exponent, 1)


def _certified_steps(state, lo_neg, terms, count):
    """Up to ``count`` bisection steps decided by the certificate, in place.

    ``state`` holds the open rows as `_batch_roots` stacks them: lower ends,
    upper ends, x cos_phi, y sin_phi, cos_phi, sin_phi, r and eta.  Each
    step moves a row's lower end to its midpoint where r > mid and its upper
    end where mid > r, and records its midpoints and which ends moved.  Then,
    in step order, each step with a midpoint inside its row's zone of doubt
    makes the exact `_residual` call on all the rows.  The recorded path
    stands while every such call moves exactly the ends the step moved.
    Returns ``(count, None, None)`` when it stands to the end.  Otherwise,
    at the first step ``j`` whose call disagrees, it rolls ``state``'s
    brackets back to what that step started from, by replaying the
    recorded moves of the steps before it from the block's start, and returns
    ``(j, mid, f_mid)``, the step's midpoints and residuals, for the caller
    to apply.
    """
    brackets, r, eta = state[:2], state[6], state[7]
    lo, hi = brackets
    # Each step's midpoints sit between two copies of r, so that one
    # comparison of overlapping rows gives r > mid (the lower end moves)
    # over mid > r (the upper end moves).
    steps = np.empty((count, 3, lo.size))
    steps[:, ::2] = r
    mids = steps[:, 1]
    moves = np.empty((count, 2, lo.size), dtype=bool)
    start = brackets.copy()
    # The same product as 0.5 * (lo + hi); numpy multiplies by an array of
    # halves faster than by a Python float.
    half = np.full(lo.size, 0.5)
    for mid, lower, upper, move in zip(mids, steps[:, :2], steps[:, 1:], moves):
        np.add(lo, hi, out=mid)
        np.multiply(mid, half, out=mid)
        np.greater(lower, upper, out=move)
        np.copyto(brackets, mid, where=move)
    sure = np.logical_and.reduce(np.abs(mids - r) > eta, axis=1)
    for j in np.flatnonzero(~sure).tolist():
        f_mid = _residual(terms, state[2], state[3], state[4], state[5], mids[j])
        # The call's step: an exact zero moves both ends, any other value
        # the upper end where shrink_hi and the lower end elsewhere.
        shrink_hi = lo_neg != (f_mid < 0.0)
        if f_mid.all() and (moves[j, 1] == shrink_hi).all() and (moves[j, 0] != shrink_hi).all():
            continue
        brackets[...] = start
        for mid, move in zip(mids[:j], moves[:j]):
            np.copyto(brackets, mid, where=move)
        return j, mids[j], f_mid
    return count, None, None


# Scan-sample offsets from a hint's sample k: the window k - 1 .. k + 2, and
# k - 2 and k + 3 for the nearest midpoints outside it.
_STRIP = np.arange(-2, 4)
_STRIP.setflags(write=False)


def _samples(lo, hi, step, index):
    """Scan samples ``index`` of [lo, hi] by linspace's arithmetic for a nonzero ``step``."""
    samples = index * step + lo
    np.copyto(samples, hi, where=index == SCAN_SAMPLES - 1)
    return samples


def _window_picks(values, rows, lo, hi, step, hint, doubt):
    """The scan's pick of each row that the 4 samples around its hint decide.

    ``rows`` holds the rows' x cos_phi, y sin_phi, cos_phi and sin_phi as
    columns, ``step`` their scan steps (all nonzero) and ``doubt`` their
    E + E_h.  Returns a mask of the rows decided and, valid on those rows,
    the ends of the picked interval and whether the residual is negative at
    its lower end.  `_batch_roots` states the rule.
    """
    last = SCAN_SAMPLES - 1
    # The sample below the hint, kept 2 samples from either end; the hint is
    # clamped to the bracket so that the quotient stays finite, and fmax
    # sends a NaN to the first window.
    position = (np.minimum(np.maximum(hint, lo), hi) - lo) / step
    k = np.fmin(np.fmax(np.floor(position), 2.0), last - 3.0).astype(np.intp)
    strip = _samples(lo[:, None], hi[:, None], step[:, None], k[:, None] + _STRIP)
    res = _horner_residual(values, *rows, strip[:, 1:-1])
    neg = res < 0.0
    # Signed distances from the hint of the midpoints of intervals k - 2 .. k + 2.
    offset = 0.5 * (strip[:, :-1] + strip[:, 1:]) - hint[:, None]
    # With every sign certified, no sample is zero and a sign change is a
    # change of neg.
    keys = np.where(neg[:, :-1] != neg[:, 1:], np.abs(offset[:, 1:-1]), np.inf)
    pick = keys.argmin(axis=1)
    nearest_outside = np.minimum(-offset[:, 0], offset[:, -1])
    decided = (keys.min(axis=1) < nearest_outside) & (np.abs(res) > doubt[:, None]).all(axis=1)
    every = np.arange(len(k))
    return decided, strip[every, pick + 1], strip[every, pick + 2], neg[every, pick]


def _batch_roots(
    scaled: ScaledCoefficients,
    table: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    prefer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the projection residual, one per column of ``table``, and where one was found.

    Row k solves the point and unit normal (cos_phi, sin_phi) of column k of
    the `_row_table` ``table`` in the bracket ``[lo[k], hi[k]]``.  The
    bracket is scanned at `SCAN_SAMPLES` uniform angles,
    ``np.linspace(lo, hi, SCAN_SAMPLES, axis=-1)``.  Every exact zero (placed
    at its sample) and every sign change (placed at its interval's midpoint)
    is a candidate; the one nearest ``prefer[k]`` is kept, zeros before sign
    changes and the lower sample first on a tie.  Kept sign changes are
    refined by bisection in lockstep across rows, each until it is at most
    tol = `THETA_TOL` wide.  Returns the arrays ``(roots, found)``; an empty
    bracket or a scan without a candidate gives found false and root nan.

    Only the signs of `_residual`, and whether it is exactly zero, decide
    anything, so a sign proved by a cheaper computation stands in for a call.
    The proofs rest on a bound E on |fl(f) - f|, the float `_residual` against
    the exact residual f of the same float inputs.  With u = 2**-53, K
    coefficients Fa_n, A = sum |Fa_n|, B = sum |Fa_n| |2n - 1|, cs = |c| + |s|
    and xys = |x c| + |y s|:

    * the angle t (2n - 1) rounds by at most u |t| |2n - 1|, and np.sin or
      np.cos adds at most 8 ulp <= 16u, so each term is off by at most
      |Fa_n| (u |t| |2n - 1| + 16u), in all at most u (|t| B + 16 A);
    * the K-term product, summed in any order and so for any number of rows
      per call, adds at most gamma_K (1 + 16u) A <= 1.01 K u A;
    * the products c*bx and s*by and the three additions add at most
      u cs A + 3u (xys + cs A), and forming x c and y s adds u xys,

    so |fl(f) - f| <= u [cs (|t| B + (1.01 K + 20) A) + 4 xys] up to terms of
    order u**2.  The slope f' = s * dby - c * dbx from the same sin/cos terms
    obeys the same bound E' with (A, B) -> (B, B2), B2 = sum |Fa_n| (2n - 1)**2,
    and no xys (the weights Fa_n (2n - 1) round once more: counted in the 20).
    `_rounding_bound` multiplies both by `ROUNDING_SAFETY`.  The slack, three
    quarters of each bound, also covers the terms of order u**2 and the
    rounding of the certificate's own arithmetic: a few u times quantities
    no larger than xys + cs A (cs B for the slope), where E >= 16u (xys + cs A)
    and E' >= 84u cs B.

    Scan.  `_horner_residual` computes the residual without a sine per term.
    With z = fl(cos t) + i fl(sin t), |z - exp(it)| <= 23u, w = -z*z is off by
    at most 49u, which moves P(w) = sum Fa_n w**n by at most
    49u sum n |Fa_n| <= 25u (A + B); each of the K - 1 complex multiply-adds
    rounds by at most (2 sqrt 2 + 1) u A, and the product with conj(z) adds
    (23 + 2 sqrt 2) u A.  That error reaches f multiplied by at most cs, and
    the outer arithmetic adds 3u cs A + 4u xys.  So the Horner value g is
    within E_h = `ROUNDING_SAFETY` u [cs (25 B + (4 K + 56) A) + 4 xys] of f,
    and where |g| > E + E_h, f is farther than E from zero: `_residual` has
    g's sign and is not zero.

    The scan first computes g only at the 4 samples k - 1 .. k + 2 around
    each row's hint, k being the sample below the hint, kept 2 samples from
    either end of the grid, with linspace's own arithmetic (`_samples` in
    `_window_picks`); a step that underflows to zero takes linspace's other
    arithmetic, so then every row takes the full scan.
    A row takes its pick from that window when all 4 signs are certified
    and the key of the window's nearest sign change is strictly smaller than
    hint - m(k - 2) and m(k + 2) - hint, m(j) being interval j's midpoint as
    the pick computes it.  The full scan then picks the same interval.  No
    window sample is a zero.  Float rounding is monotone, so samples and
    midpoints are nondecreasing in their index, m(k - 2) lies at or above
    sample k - 2 and m(k + 2) at or below sample k + 3.  Every sample and
    midpoint outside the window therefore lies at or below m(k - 2), itself
    below the hint, or at or above m(k + 2), above it, and its key is at
    least that midpoint's: every candidate outside, whatever the residual's
    sign there, is farther than the window's pick.  The test is strict
    because the full pick breaks a tie toward the lower index, and a tie can
    lie outside: a hint on sample k is 1.5 steps from the midpoints of
    intervals k + 1 (inside) and k - 2 (outside).  Every other row takes the
    full scan: g at all its samples, and if any of those is in doubt,
    `_residual` on the whole grid of every usable row, the call that was
    made before any certificate, so the rows it decides see the same bits.
    Where every full-scan sign is certified no sample is an exact zero, so
    the pick is the nearest sign change, as the float signs give it.

    Bisection.  Each kept interval [a, b], of width h, gets an enclosure from
    f and f' at its centre: |f''| <= M2 = cs B2, so
    f_min = |f'(centre)| - E' - M2 h / 2 > 0 proves f monotone on [a, b] with
    |f'| >= f_min.  `NEWTON_STEPS` Newton steps, each clipped to [a, b], give
    r; for any t in [a, b] with |t - r| > eta = (|fl(f(r))| + 2E) / f_min,
    the mean value theorem gives |f(t)| > E with the sign of
    f' * (t - r), so `_residual` at t is nonzero with that sign.  When the
    sign the scan saw at a is the opposite of the slope's, the step's
    decision, "the root lies below mid", is just mid > r.  A step whose open
    midpoints all lie outside their rows' [r - eta, r + eta] decides them so
    and calls nothing; a step with any midpoint inside, or any uncertified
    row open (eta = inf), calls `_residual` on exactly the open rows, which
    is the call the bisection made before the certificate.  Every decision
    equals the float sign's, so the brackets, the open rows and the grouping
    of every call are unchanged, and so are the roots, bit for bit.

    Blocks.  While every open row is certified, the steps run in blocks
    (`_certified_steps`): each step halves the brackets in place by the
    prediction r > mid or mid > r, and records its midpoints and masks.  A
    block holds only steps that no open bracket can close in, so it skips
    no width check that would have closed a row.  With T = max |lo|, |hi|
    over the rows, the midpoint fl(a + b) / 2 lies within u T of
    (a + b) / 2, so a bracket of true width W is at least W / 2 - u T wide
    one step on, and at least W / 2**j - 2 u T after j steps; rounding its
    computed width costs a factor 1 - u.  A computed narrowest width
    w >= tau 2**j, tau = tol + 4u (tol + T), therefore keeps every computed
    width above tol for j more steps, and `_block_length` gives the block
    1 + the largest such j steps.  So the open rows of every step in a block
    are all the block's rows, and each step with a midpoint in its row's
    zone of doubt makes its exact call on all of them, the call the
    step-by-step bisection makes there.  Where that call moves the ends the
    prediction moved, the step and the path after it stand; at the first
    step where it does not (an exact zero, or r on the midpoint, which moves
    neither end), the block rolls back to that step and the call decides
    it.  So each exact call falls on the same step, with the same rows in
    the same order, as in the step-by-step bisection: a certificate only
    ever removes calls.
    """
    roots, found = np.full(len(lo), np.nan), np.zeros(len(lo), dtype=bool)
    usable = np.flatnonzero(lo < hi)
    if not usable.size:
        return roots, found
    if usable.size < len(lo):
        table, lo, hi = table[:, usable], lo[usable], hi[usable]
    hint = prefer[usable]
    values = scaled.values
    terms = _series_terms(values)
    odd, wx, wy = terms
    fa = np.abs(values)
    mult = np.abs(odd)
    sums = (len(fa), fa.sum(), fa @ mult, fa @ (mult * mult))
    count, low, high, _ = sums
    cs, xys = table[4:]
    t_abs = np.maximum(np.abs(lo), np.abs(hi))
    doubt = _rounding_bound(cs, t_abs, low, high, count, xys) + _horner_bound(cs, low, high, count, xys)
    rows = table[:4, :, None]

    # Per usable row: whether it has a candidate, the picked zero (its root)
    # or sign change [b_lo, b_hi] with the residual's sign at b_lo.
    step = (hi - lo) / (SCAN_SAMPLES - 1)
    if step.all():
        picked, b_lo, b_hi, lo_neg = _window_picks(values, rows, lo, hi, step, hint, doubt)
    else:
        picked = np.zeros(usable.size, dtype=bool)
        b_lo, b_hi, lo_neg = np.empty(usable.size), np.empty(usable.size), picked.copy()
    bisect = picked.copy()
    rest = np.flatnonzero(~picked)
    if rest.size:
        whole = np.linspace(lo, hi, SCAN_SAMPLES, axis=-1)
        grid = whole[rest]
        res = _horner_residual(values, *rows[:, rest], grid)
        if not (np.abs(res) > doubt[rest, None]).all():
            res = _residual(terms, *rows, whole)[rest]
        neg, pos, zero = res < 0.0, res > 0.0, res == 0.0
        flip = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
        # One distance per sample for the zeros, then one per interval for
        # the sign changes, inf where there is no candidate: argmin returns
        # the first nearest candidate in that order.
        hint_col = hint[rest, None]
        keys = np.concatenate([
            np.where(zero, np.abs(grid - hint_col), np.inf),
            np.where(flip, np.abs(0.5 * (grid[:, :-1] + grid[:, 1:]) - hint_col), np.inf),
        ], axis=1)
        pick = keys.argmin(axis=1)
        changes = flip.any(axis=1) | zero.any(axis=1)
        picked[rest] = changes
        # The picked zero, or the left end of the picked sign change.
        left = pick % SCAN_SAMPLES
        every = np.arange(rest.size)
        b_lo[rest] = grid[every, left]
        sign_change = changes & (pick >= SCAN_SAMPLES)
        bisect[rest] = sign_change
        moved = rest[sign_change]
        b_hi[moved] = grid[sign_change, left[sign_change] + 1]
        lo_neg[moved] = neg[sign_change, left[sign_change]]
    # The picked zeros are roots; the bisection writes the other roots.
    out = b_lo

    jobs = np.flatnonzero(bisect)
    if jobs.size < usable.size:
        b_lo, b_hi, lo_neg, table = b_lo[jobs], b_hi[jobs], lo_neg[jobs], table[:, jobs]
    # The sin and cos weight columns of `_value_and_slope`; -(wy * odd) is
    # wx * odd bit for bit.
    slope_weights = wx * odd
    series = (odd, np.array([wx, slope_weights]).T, np.array([wy, slope_weights]).T)
    r, eta = _enclosures(series, sums, table, b_lo, b_hi, lo_neg)
    # All a residual call or a block reads about a row, one column per row,
    # so that closing rows drops them with one index.
    state = np.vstack([b_lo, b_hi, table[:4], r, eta])
    certified = bool(np.isfinite(eta).all())
    t_max = float(t_abs.max())
    # Each residual call holds exactly the brackets still open, in row order
    # (see the module docstring for why the grouping matters).
    steps = 0
    while steps < MAX_BISECTIONS:
        width = state[1] - state[0]
        still_open = width > THETA_TOL
        if np.count_nonzero(still_open) < jobs.size:
            closed = ~still_open
            out[jobs[closed]] = 0.5 * (state[0, closed] + state[1, closed])
            state, jobs, lo_neg, width = state[:, still_open], jobs[still_open], lo_neg[still_open], width[still_open]
            certified = bool(np.isfinite(state[7]).all())
        if not jobs.size:
            break
        if certified:
            count = min(_block_length(float(width.min()), t_max), MAX_BISECTIONS - steps)
            done, mid, f_mid = _certified_steps(state, lo_neg, terms, count)
            steps += done
            if mid is None:
                continue
        else:
            mid = 0.5 * (state[0] + state[1])
            f_mid = _residual(terms, state[2], state[3], state[4], state[5], mid)
        steps += 1
        shrink_hi = lo_neg != (f_mid < 0.0)
        np.copyto(state[1], mid, where=shrink_hi)
        np.copyto(state[0], mid, where=~shrink_hi)
        if np.count_nonzero(f_mid) < jobs.size:
            # An exact zero collapses the bracket onto mid, which the next
            # width check closes with 0.5 * (mid + mid) == mid.
            hit = f_mid == 0.0
            state[:2, hit] = mid[hit]
    out[jobs] = 0.5 * (state[0] + state[1])
    found[usable] = picked
    roots[found] = out[picked]
    return roots, found


SEED_GRID = 512


def _seed_angles(scaled: ScaledCoefficients, points: np.ndarray, symmetric: bool) -> np.ndarray:
    """First-sweep angles: nearest seed-contour angle per point.

    Pairing each point with the closest point of the initial-guess contour
    starts every bracket near a genuine root, which a blind uniform spread
    does not do for strongly asymmetric or hollow sections.
    """
    lo, hi = (0.0, pi / 2.0) if symmetric else (-pi / 2.0, pi / 2.0)
    grid = np.linspace(lo, hi, SEED_GRID)
    gx, gy = boundary_from_scaled(scaled.values, grid)
    d2 = (points[:, 0, None] - gx[None, :]) ** 2 + (points[:, 1, None] - gy[None, :]) ** 2
    return grid[np.argmin(d2, axis=1)]


def assign_thetas(
    scaled: ScaledCoefficients,
    section: SectionOffsets,
    previous: ThetaAssignment | None = None,
) -> ThetaAssignment:
    """Solve the angle of every point, bracketing around the previous sweep.

    Symmetric sections pin the keel at 0 and the waterline point at pi/2 and
    solve the interior; non-symmetric sections solve every point inside a
    domain widened by `ASYM_DOMAIN_SLACK` beyond +-pi/2.  The first sweep
    scans the whole domain and keeps the root nearest each point's
    closest-approach seed angle; later sweeps bracket around the previous
    assignment of the neighbouring points.
    """
    if len(scaled.values) < 2:
        raise ConfigurationError("need at least one free coefficient to assign angles")
    free, before, after, table, theta_min, theta_max = _free_rows(section)
    if previous is None:
        # The seed angles carry no neighbour history worth trusting, so every
        # point scans the whole domain and keeps the root nearest its seed.
        prev = _seed_angles(scaled, section.points, section.symmetric)
        lo = np.full(len(free), theta_min)
        hi = np.full(len(free), theta_max)
    else:
        prev = previous.theta
        lo = np.maximum(prev[before] - BRACKET_SLACK, theta_min)
        hi = np.minimum(prev[after] + BRACKET_SLACK, theta_max)
    roots, found = _batch_roots(scaled, table, lo, hi, prev[free])

    count = len(section.points)
    theta = np.empty(count)
    theta[free] = roots
    solved = np.ones(count, dtype=bool)
    solved[free] = found
    if section.symmetric:
        theta[0], theta[-1] = 0.0, pi / 2.0
    # Unresolved points step on from the points before them, in point order.
    unresolved = np.flatnonzero(~solved).tolist()
    for i in unresolved:
        if i >= 2:
            stepped = theta[i - 1] + (theta[i - 1] - theta[i - 2])
            theta[i] = min(max(stepped, theta_min), theta_max)
        elif i == 1:
            if not solved[0]:
                raise FitAbortError("first two points have no projected angle")
            theta[1] = min(max(float(prev[1]), theta[0]), theta_max)
        else:
            theta[0] = min(max(float(prev[0]), theta_min), theta_max)
    return ThetaAssignment(theta, frozenset(unresolved))
