"""The circle-to-section mapping family and the Lewis-form seed.

A coefficient vector ``a[0..N]`` with ``a[0]`` fixed at +1, together with a
positive scale factor F, maps the circle angle t onto the boundary point

    x(t) = -F * sum_n (-1)^n a[n] sin((2n - 1) t)
    y(t) = +F * sum_n (-1)^n a[n] cos((2n - 1) t)

in waterline coordinates (y down).  N = 0 is a circle of radius F; t = 0 maps
to the keel and t = pi/2 to the starboard waterline point.  Offset contours
outside the boundary attach a factor exp(-(2n - 1) * beta) to each term,
beta >= 0 being the radial coordinate of the mapped plane.

The iterative fit works on the scaled products F * a[n]; F is only split out
again once a fit has settled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import inf, pi, sqrt

import numpy as np


# The two per-order factors of the series, built once per length because
# every sweep of a fit needs them several times; they are read-only.
@functools.cache
def _odd_multiples(count: int) -> np.ndarray:
    odd = 2.0 * np.arange(count) - 1.0
    odd.setflags(write=False)
    return odd


@functools.cache
def _alternating(count: int) -> np.ndarray:
    signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    signs.setflags(write=False)
    return signs


@dataclass(frozen=True)
class MappingCoefficients:
    """Scale factor and odd-power coefficients, a[0] fixed at +1."""

    scale: float
    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("a must be a 1-d array with at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if arr[0] != 1.0:
            raise ValueError("leading coefficient must be exactly +1")
        if not 0.0 < self.scale < inf:
            raise ValueError("scale must be positive and finite")

    @property
    def order(self) -> int:
        """Highest coefficient index N."""
        return len(self.a) - 1


@dataclass(frozen=True)
class ScaledCoefficients:
    """The fit's working vector of products scale * a[n]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def to_mapping(self) -> MappingCoefficients:
        if not self.values[0] > 0.0:
            raise ValueError("leading scaled coefficient must be positive")
        return MappingCoefficients(float(self.values[0]), self.values / self.values[0])


def _series_terms(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Odd multiples and the signed x and y weights of a scaled coefficient vector.

    The sign of x sits in its weights, so the keel's x stays +0.0.
    """
    weights = _alternating(len(values)) * np.asarray(values, dtype=float)
    return _odd_multiples(len(values)), -weights, weights


def _boundary(terms, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd-harmonic series at angles of any shape: the package's one trig sum.

    The weights ``wx`` and ``wy`` of ``terms`` are vectors of K entries, or
    K-row matrices whose every column is a weight vector; each sum then has
    the shape of ``theta`` followed by one entry per column.
    """
    odd, wx, wy = terms
    angles = theta.reshape(-1, 1) * odd
    shape = theta.shape + wx.shape[1:]
    return (np.sin(angles) @ wx).reshape(shape), (np.cos(angles) @ wy).reshape(shape)


def boundary_from_scaled(values: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points for a scaled coefficient vector at angles ``theta``."""
    x, y = _boundary(_series_terms(values), np.asarray(theta, dtype=float))
    if np.ndim(x) == 0:
        return float(x), float(y)
    return x, y


def evaluate_offset_contour(coeffs: MappingCoefficients, theta, beta: float):
    """Mapped contour at radial coordinate ``beta`` (``beta = 0`` is the boundary).

    Every term's cos((2n - 1) t) vanishes at t = +-pi/2, so y is set to 0.0
    exactly there; the series in floating point leaves some 6e-17 * F.
    """
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    decay = np.exp(-_odd_multiples(len(coeffs.a)) * beta)
    x, y = boundary_from_scaled((coeffs.scale * coeffs.a) * decay, theta)
    waterline = np.abs(theta) == pi / 2.0
    if np.ndim(y) == 0:
        return x, 0.0 if waterline else y
    y[waterline] = 0.0
    return x, y


def evaluate_boundary(coeffs: MappingCoefficients, theta):
    """Section boundary point(s) at circle angle(s) ``theta``."""
    return evaluate_offset_contour(coeffs, theta, 0.0)


def breadth_and_draft(coeffs: MappingCoefficients) -> tuple[float, float]:
    """Waterline breadth and keel draft implied by the coefficients."""
    fa = coeffs.scale * coeffs.a
    breadth = 2.0 * float(np.sum(fa))
    draft = float(np.dot(_alternating(len(fa)), fa))
    return breadth, draft


@dataclass(frozen=True)
class LewisGuess:
    """Closed-form seed; ``area_matched`` is False when the fallback was used."""

    coefficients: MappingCoefficients
    area_matched: bool


def lewis_initial_guess(breadth: float, draft: float, area: float) -> LewisGuess:
    """Classical Lewis-form coefficients matching breadth, draft and area.

    The two-coefficient closed form solves

        c1 = 3 + 4*sigma/pi + (1 - 4*sigma/pi) * lam**2
        a3 = (-c1 + 3 + sqrt(9 - 2*c1)) / c1
        a1 = (a3 + 1) * lam

    with lam = (H - 1)/(H + 1), H the half-breadth to draft ratio and sigma
    the sectional area coefficient.  Outside the Lewis-valid region the guess
    falls back to a1 = lam, a3 = 0, which still matches breadth and draft but
    ignores the area.
    """
    if not (breadth > 0.0 and draft > 0.0):
        raise ValueError("breadth and draft must be positive")
    ratio = breadth / (2.0 * draft)
    lam = (ratio - 1.0) / (ratio + 1.0)
    sigma = area / (breadth * draft)
    if 0.0 < sigma <= 1.0:
        c1 = 3.0 + 4.0 * sigma / pi + (1.0 - 4.0 * sigma / pi) * lam * lam
        disc = 9.0 - 2.0 * c1
        if disc >= 0.0:
            a3 = (-c1 + 3.0 + sqrt(disc)) / c1
            a1 = (a3 + 1.0) * lam
            sum_a = 1.0 + a1 + a3
            alt_a = 1.0 - a1 + a3
            if sum_a > 0.0 and alt_a > 0.0:
                scale = breadth / (2.0 * sum_a)
                return LewisGuess(MappingCoefficients(scale, np.array([1.0, a1, a3])), True)
    scale = breadth / (2.0 * (1.0 + lam))
    return LewisGuess(MappingCoefficients(scale, np.array([1.0, lam, 0.0])), False)
