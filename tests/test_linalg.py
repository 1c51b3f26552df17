"""LU factorization, condition estimation, and the random source."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.linalg import (RandomSource, SingularMatrixError,
                                condition_estimate, lu_factor, lu_solve)


def test_solve_hand_checked_2x2():
    # A = [[2, i], [-i, 1]], b = [2+2i, 1]; solution worked out by hand:
    # x = [1, i] satisfies 2*1 + i*i*1 = 2 - 1... use b = A @ [1, i] instead
    a = np.array([[2, 1j], [-1j, 1]], dtype=np.complex128)
    x_true = np.array([1, 1j], dtype=np.complex128)
    b = np.array([2 + 1j * 1j, -1j + 1j], dtype=np.complex128)
    assert np.allclose(b, a @ x_true)
    x = lu_solve(lu_factor(a), b)
    assert np.max(np.abs(x - x_true)) < 1e-14


def test_identity_condition_is_one():
    factors = lu_factor(np.eye(5, dtype=np.complex128))
    assert condition_estimate(factors) == pytest.approx(1.0)


def test_hilbert_4x4_condition():
    # infinity-norm condition of the 4x4 Hilbert matrix, computed
    # independently: ||A||_inf * ||A^-1||_inf = (25/12) * 13620 = 28375
    a = np.array([[1 / (i + j + 1) for j in range(4)] for i in range(4)],
                 dtype=np.complex128)
    est = condition_estimate(lu_factor(a))
    assert est == pytest.approx(28375.0, rel=1e-6)


def test_diagonal_condition():
    a = np.diag([1.0, 1e-8]).astype(np.complex128)
    assert condition_estimate(lu_factor(a)) == pytest.approx(1e8, rel=1e-12)


def test_singular_matrix_raises_with_column():
    a = np.array([[1, 2], [2, 4]], dtype=np.complex128)
    with pytest.raises(SingularMatrixError) as err:
        lu_factor(a)
    assert err.value.column == 1


def test_exactly_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.zeros((3, 3), dtype=np.complex128))


@st.composite
def well_conditioned_matrices(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
                            min_size=n * n, max_size=n * n))
    a = np.array([complex(p, q) / 10.0 for p, q in entries],
                 dtype=np.complex128).reshape(n, n)
    a += 3.0 * np.eye(n)  # diagonally dominant, hence comfortably regular
    return a


@settings(max_examples=150)
@given(well_conditioned_matrices(), st.integers(0, 2**32 - 1))
def test_lu_solve_round_trip(a, seed):
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    x_true = rng.normal(size=n) + 1j * rng.normal(size=n)
    factors = lu_factor(a)
    x = lu_solve(factors, a @ x_true)
    assert np.max(np.abs(x - x_true)) < 1e-9 * max(1.0, np.max(np.abs(x_true)))


@settings(max_examples=100)
@given(well_conditioned_matrices())
def test_condition_estimate_is_exact(a):
    # the factorization holds A^-1, so the infinity-norm condition is exact
    est = condition_estimate(lu_factor(a))
    assert est == pytest.approx(np.linalg.cond(a, np.inf), rel=1e-8)


def _reference_singular_column(a):
    """Column where partial-pivot elimination at relative tolerance 1e-14 stops.

    An independent copy of the hand-written elimination lu_factor used before
    it moved to LAPACK; None if every pivot is usable.
    """
    lu = np.array(a, dtype=np.complex128)
    n = lu.shape[0]
    col_scale = np.max(np.abs(lu), axis=0)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot_mag = abs(lu[pivot_row, k])
        if pivot_mag <= 1e-14 * col_scale[k] or pivot_mag == 0.0:
            return k
        lu[[k, pivot_row]] = lu[[pivot_row, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return None


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.data())
def test_singular_verdict_matches_elimination(seed, n, data):
    # rank-deficient products, perturbed at 1e-16..1e-8 (or not at all),
    # with column scales spread over 1e-6..1e6
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, n - 1))
    left = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    right = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    a = left @ right
    size = data.draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12,
                                      1e-11, 1e-10, 1e-9, 1e-8]))
    a += size * np.max(np.abs(a)) * (rng.normal(size=(n, n))
                                     + 1j * rng.normal(size=(n, n)))
    a *= 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    want = _reference_singular_column(a)
    if want is None:
        lu_factor(a)
    else:
        with pytest.raises(SingularMatrixError) as err:
            lu_factor(a)
        assert err.value.column == want


@settings(max_examples=100)
@given(st.integers(0, 2**63 - 1))
def test_random_source_determinism_and_modulus(seed):
    a = RandomSource(seed)
    b = RandomSource(seed)
    za = a.unit_complex_array(8)
    zb = b.unit_complex_array(8)
    assert np.array_equal(za, zb)
    assert np.max(np.abs(np.abs(za) - 1.0)) < 1e-15
    assert a.unit_complex() == b.unit_complex()

