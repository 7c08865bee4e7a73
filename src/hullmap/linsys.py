"""Normal equations for the coefficient update, and a direct LU solver.

Minimising the summed squared gap between input points and their mapped
partners over the scaled coefficients gives, for derivative row j,

    sum_n (-1)^n Fa[n] * sum_i cos((2j - 2n) theta_i)
        = sum_i (-x_i sin((2j - 1) theta_i) + y_i cos((2j - 1) theta_i)).

Symmetric sections replace the last two derivative rows by exact breadth and
draft conditions; non-symmetric sections keep all derivative rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, SingularSystemError
from .mapping import ScaledCoefficients, _alternating
from .section import SectionOffsets
from .theta import ThetaAssignment

PIVOT_FLOOR = 1e-14


@dataclass(frozen=True)
class LinearSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    constrained: bool


def _derivative_rows(theta: np.ndarray, x: np.ndarray, y: np.ndarray, order: int, rows: np.ndarray):
    count = order + 1
    cos_sums = np.cos((2.0 * np.arange(count))[:, None] * theta).sum(axis=1)
    gap = np.abs(rows[:, None] - np.arange(count)[None, :])
    matrix = _alternating(count)[None, :] * cos_sums[gap]
    odd_rows = 2.0 * rows - 1.0
    angles = odd_rows[:, None] * theta
    rhs = -np.sin(angles) @ x + np.cos(angles) @ y
    return matrix, rhs


def _check_lengths(thetas: ThetaAssignment, section: SectionOffsets) -> None:
    if len(thetas.theta) != len(section.points):
        raise DimensionMismatchError(
            f"{len(thetas.theta)} angles for {len(section.points)} points"
        )


def assemble_symmetric(thetas: ThetaAssignment, section: SectionOffsets, order: int) -> LinearSystem:
    """Constrained system: derivative rows 0..N-2, then draft and half-breadth rows."""
    if order < 2:
        raise ConfigurationError("symmetric assembly needs order >= 2")
    _check_lengths(thetas, section)
    count = order + 1
    matrix = np.zeros((count, count))
    rhs = np.zeros(count)
    matrix[: order - 1], rhs[: order - 1] = _derivative_rows(
        thetas.theta, section.x, section.y, order, np.arange(order - 1)
    )
    matrix[order - 1] = _alternating(count)
    rhs[order - 1] = section.draft
    matrix[order] = 1.0
    rhs[order] = 0.5 * section.breadth
    return LinearSystem(matrix, rhs, True)


def assemble_general(thetas: ThetaAssignment, section: SectionOffsets, order: int) -> LinearSystem:
    """Unconstrained system: all derivative rows 0..N."""
    if order < 1:
        raise ConfigurationError("general assembly needs order >= 1")
    _check_lengths(thetas, section)
    matrix, rhs = _derivative_rows(
        thetas.theta, section.x, section.y, order, np.arange(order + 1)
    )
    return LinearSystem(matrix, rhs, False)


def lu_solve(system: LinearSystem) -> ScaledCoefficients:
    """Solve by elimination with partial pivoting.

    A pivot below PIVOT_FLOOR times the matrix infinity norm raises
    :class:`SingularSystemError`.
    """
    a = np.array(system.matrix, dtype=float)
    b = np.array(system.rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("matrix must be square")
    n = a.shape[0]
    if b.shape != (n,):
        raise DimensionMismatchError("rhs length must match the matrix")
    norm = float(np.max(np.abs(a).sum(axis=1)))
    if norm == 0.0:
        raise SingularSystemError("zero matrix")
    floor = PIVOT_FLOOR * norm
    # The right-hand side rides along as column n, so that each row swap and
    # each update of the trailing columns carries it in the same call.
    a = np.column_stack([a, b])
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < floor:
            raise SingularSystemError(f"pivot below threshold at column {k}")
        if p != k:
            a[[k, p]] = a[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= factors[:, None] * a[k, k + 1 :]
    if abs(a[n - 1, n - 1]) < floor:
        raise SingularSystemError(f"pivot below threshold at column {n - 1}")
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (a[k, n] - a[k, k + 1 : n] @ x[k + 1 :]) / a[k, k]
    return ScaledCoefficients(x)
