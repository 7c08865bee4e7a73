"""Assigning a circle angle to every offset point.

Each input point gets the angle at which the mapped boundary point lies on
the straight line through the input point along its local inward normal.
Normals come from secants through neighbouring points, so they depend only on
the geometry and stay fixed while the coefficients iterate.  The angle
condition is the scalar root of a residual that is linear in the scaled
coefficients.  `_batch_roots` is the one solver: it brackets every point's
root by a uniform scan and polishes all of them by bisection in lockstep.
The residual evaluates the boundary through `mapping._boundary`, the
package's one evaluation of the odd-harmonic series, with the series terms
built once per sweep.

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


def _normal_from_secant(dx: float, dy: float) -> NormalDirection:
    length = hypot(dx, dy)
    if length == 0.0:
        raise DegenerateNormalError("zero-length secant between neighbouring points")
    return NormalDirection(dx / length, -dy / length)


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


def section_normals(section: SectionOffsets) -> list:
    """Normals for every point; symmetric endpoints are pinned and get None."""
    pts = section.points
    normals: list = [None] * len(pts)
    for i in range(1, len(pts) - 1):
        normals[i] = interior_normal(pts, i)
    if not section.symmetric:
        normals[0] = endpoint_normal(pts, "first")
        normals[-1] = endpoint_normal(pts, "last")
    return normals


def _residual(terms, x, y, cos_phi, sin_phi, theta):
    """Projection residual of points (x, y) with normals (cos_phi, sin_phi) at ``theta``.

    The arguments broadcast against each other; ``theta`` fixes the shape of
    the series evaluation.
    """
    bx, by = _boundary(terms, theta)
    return x * cos_phi - cos_phi * bx - y * sin_phi + sin_phi * by


def theta_residual(scaled: ScaledCoefficients, point, normal: NormalDirection, theta):
    """Projection residual of ``point`` onto the boundary at angle ``theta``.

    Zero means the mapped point at ``theta`` lies on the normal line through
    the input point.  Accepts a scalar angle or an array of angles.
    """
    th = np.asarray(theta, dtype=float)
    x, y = float(point[0]), float(point[1])
    res = _residual(_series_terms(scaled.values), x, y, normal.cos_phi, normal.sin_phi, th)
    return float(res) if th.ndim == 0 else res


def _pick_subinterval(samples: np.ndarray, res: np.ndarray, prefer: float):
    """Scan-sample candidate nearest ``prefer``: (a, b, f_a), or None without one.

    Exact zeros collapse to a degenerate candidate with a == b.
    """
    candidates: list[tuple[float, float, float, float]] = []
    for k in np.flatnonzero(res == 0.0):
        t = float(samples[k])
        candidates.append((t, t, t, 0.0))
    flips = np.flatnonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0.0)
    for k in flips:
        a, b = float(samples[k]), float(samples[k + 1])
        candidates.append((0.5 * (a + b), a, b, float(res[k])))
    if not candidates:
        return None
    _, a, b, f_a = min(candidates, key=lambda c: abs(c[0] - prefer))
    return a, b, f_a


def _batch_roots(
    scaled: ScaledCoefficients,
    points: np.ndarray,
    normals: list,
    indices: list,
    lo: np.ndarray,
    hi: np.ndarray,
    prefer: np.ndarray,
    tol: float = THETA_TOL,
) -> list:
    """Roots of the projection residual for points ``indices``, or None each.

    Each point's bracket ``[lo, hi]`` is scanned at `SCAN_SAMPLES` uniform
    angles.  Among the sign changes and exact zeros, the candidate nearest
    ``prefer`` is kept and refined by bisection, in lockstep across points.
    An empty bracket or a scan without a candidate gives None.
    """
    roots: list[float | None] = [None] * len(indices)
    usable = [k for k in range(len(indices)) if lo[k] < hi[k]]
    if not usable:
        return roots
    lo_u, hi_u = lo[usable], hi[usable]
    grid = np.linspace(lo_u, hi_u, SCAN_SAMPLES, axis=-1)
    xv = points[[indices[k] for k in usable], 0][:, None]
    yv = points[[indices[k] for k in usable], 1][:, None]
    cv = np.array([normals[indices[k]].cos_phi for k in usable])[:, None]
    sv = np.array([normals[indices[k]].sin_phi for k in usable])[:, None]
    terms = _series_terms(scaled.values)
    res = _residual(terms, xv, yv, cv, sv, grid)

    job_rows: list[int] = []
    job_lo: list[float] = []
    job_hi: list[float] = []
    job_flo: list[float] = []
    for row, k in enumerate(usable):
        picked = _pick_subinterval(grid[row], res[row], float(prefer[k]))
        if picked is None:
            continue
        a, b, f_a = picked
        if a == b:
            roots[k] = a
            continue
        job_rows.append(row)
        job_lo.append(a)
        job_hi.append(b)
        job_flo.append(f_a)
    if not job_rows:
        return roots

    b_lo = np.array(job_lo)
    b_hi = np.array(job_hi)
    b_flo = np.array(job_flo)
    b_root = np.full(len(job_rows), np.nan)
    xj = xv[job_rows, 0]
    yj = yv[job_rows, 0]
    cj = cv[job_rows, 0]
    sj = sv[job_rows, 0]
    active = np.arange(len(job_rows))
    for _ in range(MAX_BISECTIONS):
        active = active[(b_hi[active] - b_lo[active]) > tol]
        if active.size == 0:
            break
        mid = 0.5 * (b_lo[active] + b_hi[active])
        f_mid = _residual(terms, xj[active], yj[active], cj[active], sj[active], mid)
        hit = f_mid == 0.0
        b_root[active[hit]] = mid[hit]
        live = active[~hit]
        mid, f_mid = mid[~hit], f_mid[~hit]
        shrink_hi = (b_flo[live] < 0.0) != (f_mid < 0.0)
        b_hi[live[shrink_hi]] = mid[shrink_hi]
        b_lo[live[~shrink_hi]] = mid[~shrink_hi]
        b_flo[live[~shrink_hi]] = f_mid[~shrink_hi]
        active = live
    open_jobs = np.isnan(b_root)
    b_root[open_jobs] = 0.5 * (b_lo[open_jobs] + b_hi[open_jobs])
    for slot, row in enumerate(job_rows):
        roots[usable[row]] = float(b_root[slot])
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

    normals = section_normals(section)
    roots: list[float | None] = [None] * count
    free: list[int] = []
    for i in range(count):
        if section.symmetric and i == 0:
            roots[i] = 0.0
            continue
        if section.symmetric and i == last:
            roots[i] = pi / 2.0
            continue
        free.append(i)
    if first_sweep:
        # The seed angles carry no neighbour history worth trusting, so every
        # point scans the whole domain and keeps the root nearest its seed.
        lo = np.full(len(free), theta_min)
        hi = np.full(len(free), theta_max)
    else:
        lo = np.array([max(prev[max(i - 1, 0)] - BRACKET_SLACK, theta_min) for i in free])
        hi = np.array([min(prev[min(i + 1, last)] + BRACKET_SLACK, theta_max) for i in free])
    prefer = np.array([float(prev[i]) for i in free])
    for k, root in enumerate(_batch_roots(scaled, pts, normals, free, lo, hi, prefer)):
        roots[free[k]] = root

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
