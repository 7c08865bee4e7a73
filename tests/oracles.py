"""Slow reference implementations used only to cross-check the library.

Everything here is written from the defining formula, independent of the
library's own code paths, so a shared bug cannot hide in both sides.
"""

from itertools import permutations

import numpy as np


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
