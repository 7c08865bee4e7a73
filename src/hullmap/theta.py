"""Assigning a circle angle to every offset point.

Each input point gets the angle at which the mapped boundary point lies on
the straight line through the input point along its local inward normal.
Normals come from secants through neighbouring points, so they depend only on
the geometry and stay fixed while the coefficients iterate.  The angle
condition is the scalar root of a residual that is linear in the scaled
coefficients.  `_batch_roots` is the one solver: it brackets every point's
root by a uniform scan, picks each point's candidate with one vectorised
argmin over the whole scan, and polishes all of them by bisection in
lockstep.  The residual evaluates the boundary through `mapping._boundary`,
the package's one evaluation of the odd-harmonic series, with the series
terms built once per sweep.

Which rows share each residual call is part of the numerical result: the
series ends in a matrix-vector product whose rounding of a row can depend
on how many rows the call holds.  So the bisection calls the residual on
exactly the brackets still open, in point order, and nothing else.  A change
that regroups, pads or speculatively evaluates rows can move roots by an
ulp, and through them every later sweep.

A point whose residual never changes sign inside its bracket keeps moving by
linear extrapolation from its two predecessors and is reported as unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, pi

import numpy as np

from .errors import ConfigurationError, DegenerateNormalError, FitAbortError
from .mapping import ScaledCoefficients, _boundary, _series_terms, boundary_from_scaled
from .section import SectionOffsets

THETA_TOL = 1e-12
SCAN_SAMPLES = 64
BRACKET_SLACK = 0.1
ASYM_DOMAIN_SLACK = 0.35
MAX_BISECTIONS = 200


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


def _normal_from_secant(dx: float, dy: float) -> NormalDirection:
    cos_phi, sin_phi = _unit_normals(np.array([[dx, dy]], dtype=float))[0].tolist()
    return NormalDirection(cos_phi, sin_phi)


def interior_normal(points: np.ndarray, i: int) -> NormalDirection:
    """Normal of interior point ``i`` from the secant through its neighbours."""
    if not 0 < i < len(points) - 1:
        raise IndexError("interior_normal needs an interior index")
    dx = float(points[i + 1, 0] - points[i - 1, 0])
    dy = float(points[i + 1, 1] - points[i - 1, 1])
    return _normal_from_secant(dx, dy)


def endpoint_normal(points: np.ndarray, end: str) -> NormalDirection:
    """One-sided normal at the first or last point of a non-symmetric section."""
    if end == "first":
        i, j = 1, 0
    elif end == "last":
        i, j = len(points) - 1, len(points) - 2
    else:
        raise ValueError("end must be 'first' or 'last'")
    dx = float(points[i, 0] - points[j, 0])
    dy = float(points[i, 1] - points[j, 1])
    return _normal_from_secant(dx, dy)


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


def section_normals(section: SectionOffsets) -> list:
    """Normals for every point; symmetric endpoints are pinned and get None."""
    normals = [NormalDirection(c, s) for c, s in _free_normals(section).tolist()]
    return [None, *normals, None] if section.symmetric else normals


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


def _batch_roots(
    scaled: ScaledCoefficients,
    points: np.ndarray,
    normals: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    prefer: np.ndarray,
    tol: float = THETA_TOL,
) -> list:
    """Roots of the projection residual, one per row of ``points``, or None each.

    Row k solves point ``points[k]`` against the unit normal ``normals[k]`` =
    (cos_phi, sin_phi) in the bracket ``[lo[k], hi[k]]``.  The bracket is
    scanned at `SCAN_SAMPLES` uniform angles.  Every exact zero (placed at its
    sample) and every sign change (placed at its interval's midpoint) is a
    candidate; the one nearest ``prefer[k]`` is kept, zeros before sign
    changes and the lower sample first on a tie.  Kept sign changes are
    refined by bisection in lockstep across rows.  An empty bracket or a scan
    without a candidate gives None.
    """
    roots: list[float | None] = [None] * len(points)
    usable = np.flatnonzero(lo < hi)
    if not usable.size:
        return roots
    c, s = normals[usable, 0], normals[usable, 1]
    xc, ys = points[usable, 0] * c, points[usable, 1] * s
    grid = np.linspace(lo[usable], hi[usable], SCAN_SAMPLES, axis=-1)
    terms = _series_terms(scaled.values)
    res = _residual(terms, xc[:, None], ys[:, None], c[:, None], s[:, None], grid)

    # One distance per sample for the zeros, then one per interval for the
    # sign changes, inf where there is no candidate: argmin returns the first
    # nearest candidate in that order.
    zero = res == 0.0
    flip = np.sign(res[:, :-1]) * np.sign(res[:, 1:]) < 0.0
    hint = prefer[usable, None]
    keys = np.concatenate(
        [
            np.where(zero, np.abs(grid - hint), np.inf),
            np.where(flip, np.abs(0.5 * (grid[:, :-1] + grid[:, 1:]) - hint), np.inf),
        ],
        axis=1,
    )
    pick = keys.argmin(axis=1)
    found = zero.any(axis=1) | flip.any(axis=1)
    # The picked zero, or the left end of the picked sign change.
    left = pick % SCAN_SAMPLES
    out = grid[np.arange(usable.size), left]

    jobs = np.flatnonzero(found & (pick >= SCAN_SAMPLES))
    k = left[jobs]
    b_lo, b_hi = grid[jobs, k], grid[jobs, k + 1]
    lo_neg = res[jobs, k] < 0.0
    xc, ys, c, s = xc[jobs], ys[jobs], c[jobs], s[jobs]
    # Each residual call holds exactly the brackets still open, in row order
    # (see the module docstring for why the grouping matters).
    for _ in range(MAX_BISECTIONS):
        still_open = (b_hi - b_lo) > tol
        if np.count_nonzero(still_open) < jobs.size:
            closed = ~still_open
            out[jobs[closed]] = 0.5 * (b_lo[closed] + b_hi[closed])
            jobs, b_lo, b_hi, lo_neg, xc, ys, c, s = (
                v[still_open] for v in (jobs, b_lo, b_hi, lo_neg, xc, ys, c, s)
            )
        if not jobs.size:
            break
        mid = 0.5 * (b_lo + b_hi)
        f_mid = _residual(terms, xc, ys, c, s, mid)
        shrink_hi = lo_neg != (f_mid < 0.0)
        b_lo = np.where(shrink_hi, b_lo, mid)
        b_hi = np.where(shrink_hi, mid, b_hi)
        if np.count_nonzero(f_mid) < jobs.size:
            # An exact zero collapses the bracket onto mid, which the next
            # width check closes with 0.5 * (mid + mid) == mid.
            hit = f_mid == 0.0
            b_lo[hit] = b_hi[hit] = mid[hit]
    out[jobs] = 0.5 * (b_lo + b_hi)
    for k, root in zip(usable[found].tolist(), out[found].tolist()):
        roots[k] = root
    return roots


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
    pts = section.points
    count = len(pts)
    last = count - 1
    if section.symmetric:
        theta_min, theta_max = 0.0, pi / 2.0
    else:
        theta_min = -pi / 2.0 - ASYM_DOMAIN_SLACK
        theta_max = pi / 2.0 + ASYM_DOMAIN_SLACK
    first_sweep = previous is None
    if first_sweep:
        prev = _seed_angles(scaled, pts, section.symmetric)
    else:
        prev = previous.theta

    free = np.arange(1, last) if section.symmetric else np.arange(count)
    if first_sweep:
        # The seed angles carry no neighbour history worth trusting, so every
        # point scans the whole domain and keeps the root nearest its seed.
        lo = np.full(len(free), theta_min)
        hi = np.full(len(free), theta_max)
    else:
        lo = np.maximum(prev[np.maximum(free - 1, 0)] - BRACKET_SLACK, theta_min)
        hi = np.minimum(prev[np.minimum(free + 1, last)] + BRACKET_SLACK, theta_max)
    roots = _batch_roots(scaled, pts[free], _free_normals(section), lo, hi, prev[free])
    if section.symmetric:
        roots = [0.0, *roots, pi / 2.0]

    theta = np.empty(count)
    unresolved: set[int] = set()
    for i in range(count):
        root = roots[i]
        if root is not None:
            theta[i] = root
            continue
        unresolved.add(i)
        if i >= 2:
            stepped = theta[i - 1] + (theta[i - 1] - theta[i - 2])
            theta[i] = min(max(stepped, theta_min), theta_max)
        elif i == 1:
            if roots[0] is None:
                raise FitAbortError("first two points have no projected angle")
            theta[1] = min(max(float(prev[1]), theta[0]), theta_max)
        else:
            theta[0] = min(max(float(prev[0]), theta_min), theta_max)
    return ThetaAssignment(theta, frozenset(unresolved))
