"""Alternating fit of angles and coefficients for one section.

One sweep assigns an angle to every point from the current coefficients, then
solves the linear system for fresh coefficients at those angles.  The fit
error is the summed squared distance between input points and their mapped
partners.  Sweeps repeat from a Lewis-form seed until one of these ends the
fit, and `FitResult.stop_reason` names it:

* ``converged``: a reportable sweep's error is under the tolerance;
* ``rising``: the error has risen for `DIVERGENCE_RUN` sweeps in a row;
* ``floor``: a reportable sweep's error is exactly 0;
* ``stalled``: no angle moved by more than `THETA_TOL`, the width to which
  each angle is solved, since the previous sweep, so further sweeps only
  jitter within the angle solver's resolution;
* ``singular``: a sweep's coefficient system could not be solved;
* ``budget``: the sweep budget ran out;
* ``orientation``: the loop ended with no reportable sweep, because every
  solved sweep flipped the contour's orientation.

The sweep that ends the fit is recorded first, except a singular one.  A fit
with no reportable sweep reports its seed.  Its reason is ``orientation``,
unless a singular system ended it, which keeps ``singular``.  Either reason
sets ``diverged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, SingularSystemError
from .linsys import assemble_general, assemble_symmetric, lu_solve
from .mapping import (
    MappingCoefficients,
    ScaledCoefficients,
    boundary_from_scaled,
    lewis_initial_guess,
)
from .section import SectionOffsets, full_area, split_areas
from .theta import THETA_TOL, ThetaAssignment, assign_thetas

DEFAULT_SWEEPS_SYMMETRIC = 200
DEFAULT_SWEEPS_ASYMMETRIC = 300
DIVERGENCE_RUN = 10


@dataclass(frozen=True)
class FitConfig:
    """Coefficient order N, error tolerance, and an optional sweep budget."""

    order: int
    tolerance: float
    max_iterations: int | None = None


@dataclass
class FitResult:
    coefficients: MappingCoefficients
    thetas: ThetaAssignment
    error: float
    error_history: list[float]
    fa_history: list[np.ndarray]
    theta_history: list[ThetaAssignment] = field(repr=False)
    iterations: int
    converged: bool
    diverged: bool
    mapped_points: np.ndarray
    stop_reason: str


def compute_error(section: SectionOffsets, mapped_points: np.ndarray) -> float:
    """Summed squared distance between section points and mapped points."""
    mapped = np.asarray(mapped_points, dtype=float)
    if mapped.shape != section.points.shape:
        raise DimensionMismatchError(
            f"mapped shape {mapped.shape} does not match section shape {section.points.shape}"
        )
    diff = section.points - mapped
    return float(np.sum(diff * diff))


def _mapped(fa: np.ndarray, thetas: ThetaAssignment) -> np.ndarray:
    x, y = boundary_from_scaled(fa, thetas.theta)
    return np.column_stack([x, y])


def _pad_to_order(fa: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    take = min(len(fa), order + 1)
    out[:take] = fa[:take]
    return out


def _seed_symmetric(section: SectionOffsets, order: int) -> np.ndarray:
    guess = lewis_initial_guess(section.breadth, section.draft, full_area(section))
    fa = guess.coefficients.scale * guess.coefficients.a
    return _pad_to_order(fa, order)


def _seed_asymmetric(section: SectionOffsets, order: int) -> np.ndarray:
    # Each half is treated as its own symmetric section mirrored about the
    # vertical through the deepest point, then the two seeds are averaged.
    area_left, area_right = split_areas(section)
    left = lewis_initial_guess(2.0 * section.half_breadth_left, section.draft, 2.0 * area_left)
    right = lewis_initial_guess(2.0 * section.half_breadth_right, section.draft, 2.0 * area_right)
    fa_left = _pad_to_order(left.coefficients.scale * left.coefficients.a, order)
    fa_right = _pad_to_order(right.coefficients.scale * right.coefficients.a, order)
    return 0.5 * (fa_left + fa_right)


def _fit_result(best, history, fa_history, theta_history, stop_reason: str) -> FitResult:
    """The state ``best`` = (error, scaled coefficients, angles), reported over the histories."""
    error, fa, thetas = best
    return FitResult(
        coefficients=ScaledCoefficients(fa).to_mapping(),
        thetas=thetas,
        error=error,
        error_history=history,
        fa_history=fa_history,
        theta_history=theta_history,
        iterations=len(history),
        converged=stop_reason == "converged",
        diverged=stop_reason in {"singular", "orientation"},
        mapped_points=_mapped(fa, thetas),
        stop_reason=stop_reason,
    )


def _run_fit(
    section: SectionOffsets,
    config: FitConfig,
    seed: np.ndarray,
    assemble,
    default_sweeps: int,
) -> FitResult:
    budget = config.max_iterations if config.max_iterations is not None else default_sweeps
    if budget < 1:
        raise ConfigurationError("max_iterations must be at least 1")
    fa = seed
    prev: ThetaAssignment | None = None
    history: list[float] = []
    fa_history: list[np.ndarray] = []
    theta_history: list[ThetaAssignment] = []
    best: tuple[float, np.ndarray, ThetaAssignment] | None = None
    rising = 0
    reason = "budget"

    for _ in range(budget):
        thetas = assign_thetas(ScaledCoefficients(fa), section, prev)
        try:
            # A fresh read-only array, which the histories and best keep as is.
            solved = lu_solve(assemble(thetas, section, config.order)).values
        except SingularSystemError:
            reason = "singular"
            break
        error = compute_error(section, _mapped(solved, thetas))
        history.append(error)
        fa_history.append(solved)
        theta_history.append(thetas)
        # A sweep with a nonpositive leading coefficient flips the contour's
        # orientation; it may still recover, but it cannot be reported.  A
        # sweep under the tolerance is the best one: any earlier positive
        # sweep under it would have stopped the fit.
        if solved[0] > 0.0 and (best is None or error < best[0]):
            best = (error, solved, thetas)
        if solved[0] > 0.0 and error < config.tolerance:
            reason = "converged"
            break
        rising = rising + 1 if (len(history) >= 2 and error > history[-2]) else 0
        if rising >= DIVERGENCE_RUN:
            reason = "rising"
            break
        if best is not None and best[0] == 0.0:
            reason = "floor"
            break
        if prev is not None and float(np.max(np.abs(thetas.theta - prev.theta))) <= THETA_TOL:
            reason = "stalled"
            break
        fa, prev = solved, thetas

    if best is None:
        # No sweep solved, or none kept a positive leading coefficient: report
        # the seed state at the first sweep's angles.
        if reason != "singular":
            reason = "orientation"
        thetas = theta_history[0] if theta_history else thetas
        best = (compute_error(section, _mapped(seed, thetas)), seed.copy(), thetas)
    return _fit_result(best, history, fa_history, theta_history, reason)


def fit_symmetric(section: SectionOffsets, config: FitConfig) -> FitResult:
    """Fit a symmetric half-section; breadth and draft are held exactly."""
    if not section.symmetric:
        raise ConfigurationError("fit_symmetric needs a symmetric section")
    if config.order < 2:
        raise ConfigurationError("symmetric fits need order >= 2")
    seed = _seed_symmetric(section, config.order)
    return _run_fit(section, config, seed, assemble_symmetric, DEFAULT_SWEEPS_SYMMETRIC)


def fit_nonsymmetric(section: SectionOffsets, config: FitConfig) -> FitResult:
    """Fit a full section with free waterline endpoints and no exact constraints."""
    if section.symmetric:
        raise ConfigurationError("fit_nonsymmetric needs a non-symmetric section")
    if config.order < 1:
        raise ConfigurationError("fits need order >= 1")
    seed = _seed_asymmetric(section, config.order)
    return _run_fit(section, config, seed, assemble_general, DEFAULT_SWEEPS_ASYMMETRIC)


def fit_section(section: SectionOffsets, config: FitConfig) -> FitResult:
    """Dispatch on the section's symmetry flag."""
    if section.symmetric:
        return fit_symmetric(section, config)
    return fit_nonsymmetric(section, config)
