"""Slack-variable embeddings and the two homotopies built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.embedding import (CascadeHomotopy, LevelOutOfRangeError,
                                   StartHomotopy, embed, sample_parameters)
from polycascade.linalg import RandomSource
from polycascade.polynomials import parse_system
from polycascade.start_systems import build_start_system

from helpers import (fd_jacobian, points_st, reference_cascade,
                     reference_embedding, systems_st)

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
        CascadeHomotopy(f, _params(2), 0)


def test_embedded_structure_by_hand():
    f = parse_system(WORKED)
    params = _params(2, seed=3)
    e1 = embed(f, params, 1)
    assert e1.dim == 3 and e1.level == 1
    point = np.array([0.4 - 0.2j, 1.1 + 0.5j, -0.6 + 0.9j])
    x, z = point[:2], point[2:]
    top = f.evaluate(x) + params.eff_lambda[:, :1] @ z
    slice_row = params.eff_constants[0] + params.eff_coefficients[0] @ x + z[0]
    want = np.concatenate([top, [slice_row]])
    assert np.max(np.abs(e1.evaluate(point) - want)) < 1e-15


def test_embedded_degrees_append_slack_rows():
    f = parse_system(WORKED)
    e2 = embed(f, _params(2), 2)
    assert e2.degrees() == (3, 4, 1, 1)


@settings(max_examples=150)
@given(st.data())
def test_embedded_jacobian_matches_finite_differences(data):
    system = data.draw(systems_st(max_degree=2, max_terms=3))
    n = system.n_vars
    level = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    embedded = embed(system, _params(n, seed), level)
    point = data.draw(points_st(n + level, scale=1.0))
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
    h = CascadeHomotopy(system, params, level)
    point = data.draw(points_st(n + level, scale=1.0))

    upper = embed(system, params, level)
    at_one = h.value(point, 1.0)
    assert np.array_equal(at_one, upper.evaluate(point))

    lower = embed(system, params, level - 1)
    at_zero = h.value(point, 0.0)
    want = np.concatenate([lower.evaluate(point[:-1]), [point[-1]]])
    assert np.array_equal(at_zero, want)


@settings(max_examples=100)
@given(st.data())
def test_cascade_homotopy_is_convex_combination(data):
    # H(., s) agrees with s*E_i + (1-s)*(E_{i-1}; z_i) up to roundoff
    system = data.draw(systems_st(n_vars=2, max_degree=2, max_terms=3))
    params = _params(2, data.draw(st.integers(0, 2**32 - 1)))
    h = CascadeHomotopy(system, params, 1)
    point = data.draw(points_st(3, scale=1.0))
    s = data.draw(st.integers(1, 99)) / 100.0
    upper = embed(system, params, 1).evaluate(point)
    lower = np.concatenate([embed(system, params, 0).evaluate(point[:-1]), [point[-1]]])
    want = s * upper + (1 - s) * lower
    got = h.value(point, s)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=150)
@given(st.data())
def test_compiled_embedding_matches_block_formulas(data):
    system = data.draw(systems_st(max_degree=2, max_terms=3))
    n = system.n_vars
    level = data.draw(st.integers(0, n))
    params = _params(n, data.draw(st.integers(0, 2**32 - 1)))
    point = data.draw(points_st(n + level))
    value, jac = reference_embedding(system, params, level, point)
    embedded = embed(system, params, level)
    _assert_close(embedded.evaluate(point), value)
    _assert_close(embedded.jacobian(point), jac)
    if level == 0:
        return
    s = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    value, jac, ds = reference_cascade(system, params, level, point, s)
    h = CascadeHomotopy(system, params, level)
    _assert_close(h.value(point, s), value)
    _assert_close(h.jacobian(point, s), jac)
    _assert_close(h.s_derivative(point, s), ds)


def test_cascade_homotopy_jacobian_and_s_derivative():
    f = parse_system(WORKED)
    params = _params(2, seed=8)
    h = CascadeHomotopy(f, params, 1)
    point = np.array([0.5 + 0.3j, -0.8 + 0.1j, 0.4 - 0.7j])
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
    g = build_start_system(e1, rng, slack_vars=1)
    gamma = rng.unit_complex()
    h = StartHomotopy(e1, g, gamma)
    point = np.array([0.2 + 0.9j, -0.4 - 0.3j, 1.2 + 0.1j])
    assert np.array_equal(h.value(point, 0.0), e1.evaluate(point))
    assert np.array_equal(h.value(point, 1.0), gamma * g.evaluate(point))


def test_start_homotopy_dimension_check():
    f = parse_system(WORKED)
    g = build_start_system(f, RandomSource(0))
    e1 = embed(f, _params(2), 1)
    with pytest.raises(ValueError):
        StartHomotopy(e1, g, 1j)  # start has 2 vars, target needs 3


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
