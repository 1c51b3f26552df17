"""The cascade's systems F_i in x alone and the two homotopies built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.embedding import (CascadeHomotopy, LevelOutOfRangeError,
                                   StartHomotopy, embed, sample_parameters)
from polycascade.linalg import RandomSource
from polycascade.polynomials import DimensionMismatchError, parse_system
from polycascade.start_systems import build_start_system

from helpers import (fd_jacobian, points_st, reference_cascade,
                     reference_embedding, slice_values, systems_st)

WORKED = "2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n"


def _params(n, seed=0):
    return sample_parameters(n, RandomSource(seed))


def test_level_zero_is_the_system_itself():
    f = parse_system(WORKED)
    e0 = embed(f, _params(2), 0)
    x = np.array([0.3 + 0.1j, -0.7 + 0.4j])
    assert np.array_equal(e0.evaluate(x), f.evaluate(x))
    assert np.array_equal(e0.jacobian(x), f.jacobian(x))


def test_level_bounds_enforced():
    f = parse_system(WORKED)
    with pytest.raises(LevelOutOfRangeError):
        embed(f, _params(2), 3)
    with pytest.raises(LevelOutOfRangeError):
        embed(f, _params(2), -1)
    with pytest.raises(LevelOutOfRangeError):
        CascadeHomotopy(embed(f, _params(2), 2))  # would start at level 3


@pytest.mark.parametrize("sample_vars", [1, 3])
def test_parameter_sample_must_match_the_variables(sample_vars):
    # zip over f's rows and the multiplier rows would otherwise truncate:
    # one sampled variable gave a one-equation F_1, three gave wrong rows
    f = parse_system(WORKED)
    for level in (0, 1, 2):
        with pytest.raises(DimensionMismatchError):
            embed(f, _params(sample_vars), level)


def test_embedded_structure_by_hand():
    f = parse_system(WORKED)
    params = _params(2, seed=3)
    e1 = embed(f, params, 1)
    assert e1.dim == 2 and e1.level == 1
    x = np.array([0.4 - 0.2j, 1.1 + 0.5j])
    want = f.evaluate(x) - params.eff_lambda[:, 0] * (
        params.eff_constants[0] + params.eff_coefficients[0] @ x)
    assert np.max(np.abs(e1.evaluate(x) - want)) < 1e-15


def test_embedded_degrees_are_the_base_degrees():
    f = parse_system(WORKED)
    for level in (0, 1, 2):
        assert embed(f, _params(2), level).degrees() == (3, 4)
    # a constant row gains the slices' linear terms
    g = parse_system("2\n*\nx1 - 1;\n3;\n")
    assert embed(g, _params(2), 0).degrees() == (1, 0)
    assert embed(g, _params(2), 1).degrees() == (1, 1)


@settings(max_examples=150)
@given(st.data())
def test_embedded_jacobian_matches_finite_differences(data):
    system = data.draw(systems_st(max_degree=2, max_terms=3))
    n = system.n_vars
    level = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    embedded = embed(system, _params(n, seed), level)
    assert embedded.dim == n
    point = data.draw(points_st(n, scale=1.0))
    exact = embedded.jacobian(point)
    approx = fd_jacobian(embedded.evaluate, point, h=1e-6)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(exact - approx)) <= 5e-5 * scale


@settings(max_examples=100)
@given(st.data())
def test_cascade_homotopy_endpoints_exact(data):
    system = data.draw(systems_st(n_vars=data.draw(st.integers(2, 3)),
                                  max_degree=2, max_terms=3))
    n = system.n_vars
    level = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    params = _params(n, seed)
    lower = embed(system, params, level - 1)
    h = CascadeHomotopy(lower)
    point = data.draw(points_st(n, scale=1.0))

    # the target is the level-(i-1) system bit for bit
    assert np.array_equal(h.value(point, 0.0), lower.evaluate(point))
    assert np.array_equal(h.jacobian(point, 0.0), lower.jacobian(point))
    # the start is F_i up to rounding: F_i is compiled with its slice terms
    # merged into f's, H sums them at run time
    upper = embed(system, params, level)
    _assert_close(h.value(point, 1.0), upper.evaluate(point))
    _assert_close(h.jacobian(point, 1.0), upper.jacobian(point))


@settings(max_examples=100)
@given(st.data())
def test_cascade_homotopy_is_convex_combination(data):
    # H(., s) agrees with s^2*F_i + (1-s^2)*F_{i-1} up to roundoff
    system = data.draw(systems_st(n_vars=2, max_degree=2, max_terms=3))
    params = _params(2, data.draw(st.integers(0, 2**32 - 1)))
    h = CascadeHomotopy(embed(system, params, 0))
    point = data.draw(points_st(2, scale=1.0))
    s = data.draw(st.integers(1, 99)) / 100.0
    upper = embed(system, params, 1).evaluate(point)
    lower = embed(system, params, 0).evaluate(point)
    want = s * s * upper + (1 - s * s) * lower
    got = h.value(point, s)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _assert_close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


@settings(max_examples=150)
@given(st.data())
def test_compiled_embedding_matches_block_formulas(data):
    # F_i and H_i are the paper's slack embeddings with the slacks solved
    # from their slice rows: z = -L(x) in E_i, and z_j = -L_j(x) for j < i,
    # z_i = -s*L_i(x) in the level-i cascade homotopy.  There the block
    # references' slice rows vanish, their top rows are the compiled values,
    # and the chain rule through z gives the compiled derivatives.
    system = data.draw(systems_st(max_degree=2, max_terms=3))
    n = system.n_vars
    level = data.draw(st.integers(0, n))
    params = _params(n, data.draw(st.integers(0, 2**32 - 1)))
    x = data.draw(points_st(n))
    z = -slice_values(params, level, x)
    value, jac = reference_embedding(system, params, level, np.concatenate([x, z]))
    embedded = embed(system, params, level)
    _assert_close(value[n:], np.zeros(level))
    _assert_close(embedded.evaluate(x), value[:n])
    # dz/dx = -jac[n:, :n], since the slice rows are z + L(x)
    _assert_close(embedded.jacobian(x), jac[:n, :n] - jac[:n, n:] @ jac[n:, :n])
    if level == 0:
        return
    s = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    z[-1] *= s
    value, jac, ds = reference_cascade(system, params, level, np.concatenate([x, z]), s)
    h = CascadeHomotopy(embed(system, params, level - 1))
    _assert_close(value[n:], np.zeros(level))
    _assert_close(h.value(x, s), value[:n])
    _assert_close(h.jacobian(x, s), jac[:n, :n] - jac[:n, n:] @ jac[n:, :n])
    # dz/ds = -ds[n:], since the last slice row is z_i + s*L_i(x)
    _assert_close(h.s_derivative(x, s), ds[:n] - jac[:n, n:] @ ds[n:])


def test_cascade_homotopy_jacobian_and_s_derivative():
    f = parse_system(WORKED)
    params = _params(2, seed=8)
    h = CascadeHomotopy(embed(f, params, 0))
    point = np.array([0.5 + 0.3j, -0.8 + 0.1j])
    for s in (0.9, 0.3, 0.0):
        exact = h.jacobian(point, s)
        approx = fd_jacobian(lambda p: h.value(p, s), point)
        assert np.max(np.abs(exact - approx)) < 1e-6
    eps = 1e-7
    fd_s = (h.value(point, 0.5 + eps) - h.value(point, 0.5 - eps)) / (2 * eps)
    assert np.max(np.abs(h.s_derivative(point, 0.5) - fd_s)) < 1e-6


def test_start_homotopy_endpoints_exact():
    f = parse_system(WORKED)
    params = _params(2, seed=2)
    e1 = embed(f, params, 1)
    rng = RandomSource(11)
    g = build_start_system(e1, rng)
    gamma = rng.unit_complex()
    h = StartHomotopy(e1, g, gamma)
    point = np.array([0.2 + 0.9j, -0.4 - 0.3j])
    assert np.array_equal(h.value(point, 0.0), e1.evaluate(point))
    assert np.array_equal(h.value(point, 1.0), gamma * g.evaluate(point))


def test_start_homotopy_dimension_check():
    g = build_start_system(parse_system("1\n*\nx1^2 - 1;\n"), RandomSource(0))
    e1 = embed(parse_system(WORKED), _params(2), 1)
    with pytest.raises(ValueError):
        StartHomotopy(e1, g, 1j)  # start has 1 var, target needs 2


@settings(max_examples=100)
@given(st.integers(0, 2**63 - 1), st.integers(1, 4))
def test_parameter_sample_deterministic_and_unimodular(seed, n):
    a = sample_parameters(n, RandomSource(seed))
    b = sample_parameters(n, RandomSource(seed))
    assert a.eta == b.eta
    assert np.array_equal(a.lambda_matrix, b.lambda_matrix)
    assert np.array_equal(a.constants, b.constants)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert abs(abs(a.eta) - 1.0) < 1e-15
    assert np.max(np.abs(np.abs(a.lambda_matrix) - 1.0)) < 1e-15
    # effective values are the raw draws scaled once by eta
    assert np.max(np.abs(a.eff_lambda - a.eta * a.lambda_matrix)) == 0.0


def test_cascade_homotopy_needs_a_parameter_sample():
    # a solve's level system has no slice to lift it by
    with pytest.raises(ValueError, match="parameter sample"):
        CascadeHomotopy(embed(parse_system(WORKED), None, 0))
