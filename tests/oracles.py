"""Slow reference implementations used only to cross-check the library.

Everything here is written from the defining formula, independent of the
library's own code paths, so a shared bug cannot hide in both sides.  The
exceptions are bit-exact references kept from earlier versions of the
library: `lockstep_bisect_roots`, the batched angle solver, which shares the
library's series kernel on purpose, so that any difference in its roots
comes from the solver alone; `outer_lu_solve`, the elimination with one
`np.outer` update per column; and `replay_floor`, the search's gate and
halving replay over an order's error history.
"""

from itertools import permutations

import numpy as np

from hullmap.errors import SingularSystemError
from hullmap.linsys import PIVOT_FLOOR
from hullmap.mapping import _boundary, _series_terms
from hullmap.search import MAX_TIGHTENING_ROUNDS
from hullmap.theta import MAX_BISECTIONS, SCAN_SAMPLES, THETA_TOL


def permutation_parity(perm) -> int:
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def det_by_permutations(matrix: np.ndarray) -> float:
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        term = permutation_parity(perm)
        for row in range(n):
            term *= a[row, perm[row]]
        total += term
    return total


def cramer_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    d = det_by_permutations(a)
    out = np.empty(len(b))
    for col in range(len(b)):
        patched = a.copy()
        patched[:, col] = b
        out[col] = det_by_permutations(patched) / d
    return out


def outer_lu_solve(matrix, rhs) -> np.ndarray:
    """Gaussian elimination with partial pivoting, as the library once computed it.

    Each column's update of the trailing block is one ``np.outer``, and the
    pivot floor is formed again for every test.  Raises `SingularSystemError`
    where the library does.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    norm = float(np.max(np.abs(a).sum(axis=1)))
    if norm == 0.0:
        raise SingularSystemError("zero matrix")
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < PIVOT_FLOOR * norm:
            raise SingularSystemError(f"pivot below threshold at column {k}")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
        b[k + 1 :] -= factors * b[k]
    if abs(a[n - 1, n - 1]) < PIVOT_FLOOR * norm:
        raise SingularSystemError(f"pivot below threshold at column {n - 1}")
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def replay_floor(history, tolerance):
    """Floor sweep index of an error history, as the search once computed it, or None.

    The gate is the first sweep under ``tolerance``.  Each of up to
    `MAX_TIGHTENING_ROUNDS` rounds then targets half the error reached and
    moves to the first sweep of the whole history under that target.
    """
    index = next((k for k, e in enumerate(history) if e < tolerance), None)
    if index is None:
        return None
    for _ in range(MAX_TIGHTENING_ROUNDS):
        target = 0.5 * history[index]
        hit = next((k for k, e in enumerate(history) if e < target), None)
        if hit is None:
            break
        index = hit
    return index


def shoelace_area(points: np.ndarray) -> float:
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def series_point(scale: float, a: np.ndarray, theta: float) -> tuple[float, float]:
    """Boundary point from the defining sums, term by term."""
    x = 0.0
    y = 0.0
    for n, coeff in enumerate(a):
        odd = 2 * n - 1
        sign = (-1.0) ** n
        x += -scale * sign * coeff * np.sin(odd * theta)
        y += scale * sign * coeff * np.cos(odd * theta)
    return x, y


def projection_residual(scale_a: np.ndarray, point, cos_phi: float, sin_phi: float, theta: float) -> float:
    """Normal-line residual built from the boundary point, not the expanded sums."""
    x0, y0 = series_point(1.0, scale_a, theta)
    return (point[0] - x0) * cos_phi - (point[1] - y0) * sin_phi


def scan_and_bisect_root(scale_a, point, cos_phi, sin_phi, lo, hi, prefer, samples=64, tol=1e-12):
    """Root of the projection residual in ``[lo, hi]`` nearest ``prefer``, or None.

    The residual is sampled at ``samples`` uniform angles.  Every exact zero
    and every sign change between neighbouring samples is a candidate, placed
    at its sample or at its interval midpoint; the candidate nearest
    ``prefer`` is bisected down to ``tol``, one angle at a time.
    """
    if not lo < hi:
        return None

    def f(t):
        return projection_residual(scale_a, point, cos_phi, sin_phi, t)

    grid = [float(t) for t in np.linspace(lo, hi, samples)]
    values = [f(t) for t in grid]
    candidates = [(abs(t - prefer), t, t, 0.0) for t, v in zip(grid, values) if v == 0.0]
    for k in range(samples - 1):
        left, right = values[k], values[k + 1]
        if left != 0.0 and right != 0.0 and (left < 0.0) != (right < 0.0):
            a, b = grid[k], grid[k + 1]
            candidates.append((abs(0.5 * (a + b) - prefer), a, b, left))
    if not candidates:
        return None
    _, a, b, f_a = min(candidates, key=lambda c: c[0])
    while b - a > tol:
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_a < 0.0) != (f_mid < 0.0):
            b = mid
        else:
            a, f_a = mid, f_mid
    return 0.5 * (a + b)


def _lockstep_residual(terms, x, y, cos_phi, sin_phi, theta):
    bx, by = _boundary(terms, theta)
    return x * cos_phi - cos_phi * bx - y * sin_phi + sin_phi * by


def _lockstep_pick(samples: np.ndarray, res: np.ndarray, prefer: float):
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


def lockstep_bisect_roots(scaled, points, normals, indices, lo, hi, prefer, tol=THETA_TOL):
    """Batched scan-and-bisect roots, or None each, as the library once computed them.

    ``normals`` is a list of objects with ``cos_phi`` and ``sin_phi``, looked
    up through ``indices`` like ``points``.  Each row's candidate is picked by
    a Python ``min`` over its zeros, then its sign changes; the bisection
    re-gathers its active rows from full-length state on every step.
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
    res = _lockstep_residual(terms, xv, yv, cv, sv, grid)

    job_rows: list[int] = []
    job_lo: list[float] = []
    job_hi: list[float] = []
    job_flo: list[float] = []
    for row, k in enumerate(usable):
        picked = _lockstep_pick(grid[row], res[row], float(prefer[k]))
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
        f_mid = _lockstep_residual(terms, xj[active], yj[active], cj[active], sj[active], mid)
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
