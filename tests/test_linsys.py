import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmap.errors import ConfigurationError, DimensionMismatchError, SingularSystemError
from hullmap.linsys import LinearSystem, assemble_general, assemble_symmetric, lu_solve
from hullmap.mapping import _alternating
from hullmap.section import from_points
from hullmap.theta import ThetaAssignment

from oracles import cramer_solve, det_by_permutations, outer_lu_solve


def _section3():
    return from_points([(0.0, 1.0), (0.6, 0.8), (1.0, 0.0)], symmetric=True)


def test_symmetric_assembly_at_zero_angles():
    # With every theta at zero each cosine sum counts the points.
    sec = _section3()
    thetas = ThetaAssignment(np.zeros(3), frozenset())
    system = assemble_symmetric(thetas, sec, 2)
    assert system.constrained
    assert np.allclose(system.matrix[0], [3.0, -3.0, 3.0], atol=1e-14)
    assert np.array_equal(system.matrix[1], [1.0, -1.0, 1.0])
    assert np.array_equal(system.matrix[2], [1.0, 1.0, 1.0])
    # Row 0 right side reduces to sum(y); the constraint rows carry D and B/2.
    assert system.rhs[0] == pytest.approx(1.8, abs=1e-14)
    assert system.rhs[1] == pytest.approx(1.0)
    assert system.rhs[2] == pytest.approx(1.0)


def test_general_assembly_at_zero_angles():
    sec = from_points([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)], symmetric=False)
    thetas = ThetaAssignment(np.zeros(3), frozenset())
    system = assemble_general(thetas, sec, 2)
    assert not system.constrained
    assert system.matrix.shape == (3, 3)
    for row in system.matrix:
        assert np.allclose(row, [3.0, -3.0, 3.0], atol=1e-14)
    assert np.allclose(system.rhs, [1.0, 1.0, 1.0], atol=1e-14)


def test_derivative_rows_against_the_defining_sums():
    theta = np.array([0.0, 0.4, 1.2])
    pts = np.array([[-1.0, 0.0], [0.6, 1.0], [1.0, 0.0]])
    system = assemble_general(
        ThetaAssignment(theta, frozenset()),
        from_points(pts, symmetric=False),
        3,
    )
    for j in range(4):
        for n in range(4):
            want = (-1.0) ** n * np.sum(np.cos((2 * j - 2 * n) * theta))
            assert system.matrix[j, n] == pytest.approx(want, abs=1e-12)
        want_rhs = np.sum(
            -pts[:, 0] * np.sin((2 * j - 1) * theta) + pts[:, 1] * np.cos((2 * j - 1) * theta)
        )
        assert system.rhs[j] == pytest.approx(want_rhs, abs=1e-12)


def test_symmetric_rows_agree_with_general_rows():
    sec = _section3()
    theta = np.array([0.0, 0.7, np.pi / 2.0])
    thetas = ThetaAssignment(theta, frozenset())
    order = 4
    sym = assemble_symmetric(thetas, sec, order)
    gen = assemble_general(thetas, sec, order)
    assert np.array_equal(sym.matrix[: order - 1], gen.matrix[: order - 1])
    assert np.array_equal(sym.rhs[: order - 1], gen.rhs[: order - 1])


def test_symmetric_assembly_needs_order_two():
    thetas = ThetaAssignment(np.zeros(3), frozenset())
    with pytest.raises(ConfigurationError):
        assemble_symmetric(thetas, _section3(), 1)


def test_assembly_checks_point_count():
    thetas = ThetaAssignment(np.zeros(4), frozenset())
    with pytest.raises(DimensionMismatchError):
        assemble_symmetric(thetas, _section3(), 2)


def test_lu_solves_a_known_system():
    system = LinearSystem(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0]), False)
    out = lu_solve(system).values
    assert np.allclose(out, [1.0, 3.0], atol=1e-14)


def test_lu_needs_pivoting():
    # Zero in the leading position forces a row swap.
    system = LinearSystem(
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
        np.array([8.0, 4.0, 4.0],),
        False,
    )
    out = lu_solve(system).values
    assert np.allclose(system.matrix @ out, system.rhs, atol=1e-12)


def test_lu_flags_singular_matrix():
    with pytest.raises(SingularSystemError):
        lu_solve(LinearSystem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]), False))
    with pytest.raises(SingularSystemError):
        lu_solve(LinearSystem(np.zeros((2, 2)), np.zeros(2), False))


def test_lu_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        lu_solve(LinearSystem(np.zeros((2, 3)), np.zeros(2), False))
    with pytest.raises(DimensionMismatchError):
        lu_solve(LinearSystem(np.eye(3), np.zeros(2), False))


def test_determinant_oracle_agrees_with_numpy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        assert det_by_permutations(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_lu_matches_cramer_on_dominant_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = rng.normal(size=(n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)
    b = rng.normal(size=n)
    got = lu_solve(LinearSystem(a, b, False)).values
    want = cramer_solve(a, b)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def _system(kind: str, seed: int):
    """A random, a pivoting or a near-singular system of 1 to 100 unknowns."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13)) if seed % 4 else int(rng.integers(13, 101))
    a = rng.normal(size=(n, n))
    if kind == "pivoting":
        # Small leading entries in every column force a swap at each step.
        a[np.triu_indices(n)] *= 1e-3
        a = a[rng.permutation(n)]
    elif kind == "near-singular":
        # Singular values reaching down around the pivot floor, so some
        # systems pass and some raise.
        u, _, vt = np.linalg.svd(a)
        a = (u * np.logspace(0.0, -float(rng.uniform(10.0, 18.0)), n)) @ vt
    return a, rng.normal(size=n)


@given(
    st.sampled_from(["random", "pivoting", "near-singular"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150)
def test_lu_equals_the_outer_product_elimination_bit_for_bit(kind, seed):
    a, b = _system(kind, seed)
    try:
        want = outer_lu_solve(a, b)
    except SingularSystemError as exc:
        with pytest.raises(SingularSystemError, match=f"^{re.escape(str(exc))}$"):
            lu_solve(LinearSystem(a, b, False))
        return
    assert lu_solve(LinearSystem(a, b, False)).values.tobytes() == want.tobytes()


def test_solved_symmetric_system_reproduces_the_constraints():
    sec = _section3()
    thetas = ThetaAssignment(np.array([0.0, 0.8, np.pi / 2.0]), frozenset())
    fa = lu_solve(assemble_symmetric(thetas, sec, 2)).values
    assert 2.0 * fa.sum() == pytest.approx(sec.breadth, rel=1e-12)
    assert _alternating(3) @ fa == pytest.approx(sec.draft, rel=1e-12)
