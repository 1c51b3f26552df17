"""Total-degree start systems and their closed-form roots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.embedding import embed, sample_parameters
from polycascade.linalg import RandomSource
from polycascade.polynomials import parse_system
from polycascade.start_systems import ZeroPolynomialError, build_start_system

from helpers import fd_jacobian, systems_st


def test_root_count_is_degree_product():
    f = parse_system("2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n")
    g = build_start_system(f, RandomSource(0))
    assert g.degrees == (3, 4)
    assert g.root_count == 12


def test_root_count_is_exact_beyond_int64():
    # 2**62 still fits a signed 64-bit count; 2**64 would have wrapped to 0
    g = build_start_system(parse_system("62\n*\n" + "x1^2;\n" * 62), RandomSource(0))
    assert g.root_count == 2**62
    with pytest.raises(OverflowError, match=str(2**64)):
        build_start_system(parse_system("64\n*\n" + "x1^2;\n" * 64), RandomSource(0))


def test_roots_are_exact():
    f = parse_system("2\n*\nx1^3 - 1;\nx2^2 - 4;\n")
    g = build_start_system(f, RandomSource(5))
    roots = list(g.roots())
    assert len(roots) == 6
    for r in roots:
        assert np.max(np.abs(g.evaluate(r))) < 1e-13


def test_roots_are_distinct():
    f = parse_system("2\n*\nx1^2 - 1;\nx2^3 - 1;\n")
    g = build_start_system(f, RandomSource(1))
    roots = [g.root(k) for k in range(g.root_count)]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            assert np.max(np.abs(roots[a] - roots[b])) > 1e-3


def test_unit_modulus_constants():
    f = parse_system("3\n*\nx1^2;\nx2^2;\nx3;\n")
    g = build_start_system(f, RandomSource(9))
    assert np.max(np.abs(np.abs(g.constants) - 1.0)) < 1e-14


def test_degree_zero_rows_clamp_to_one():
    f = parse_system("2\n*\nx1 + x2 - 3;\n5;\n")
    g = build_start_system(f, RandomSource(2))
    assert g.degrees == (1, 1)


def test_zero_polynomial_rejected():
    f = parse_system("2\n*\nx1 - x1;\nx2;\n")
    with pytest.raises(ZeroPolynomialError):
        build_start_system(f, RandomSource(0))


def test_jacobian_matches_finite_differences():
    f = parse_system("2\n*\nx1^3;\nx2^2;\n")
    g = build_start_system(f, RandomSource(4))
    x = np.array([0.7 + 0.2j, -0.3 + 1.1j])
    assert np.max(np.abs(g.jacobian(x) - fd_jacobian(g.evaluate, x))) < 1e-6


@settings(max_examples=150)
@given(st.data())
def test_start_roots_residual_and_count(data):
    system = data.draw(systems_st(max_degree=3, max_terms=3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    level = data.draw(st.integers(0, min(2, system.n_vars)))
    rng = RandomSource(seed)
    if level:
        target = embed(system, sample_parameters(system.n_vars, rng), level)
    else:
        target = system
    try:
        g = build_start_system(target, rng)
    except ZeroPolynomialError:
        assert any(not p.terms for p in system.polys) and level == 0
        return
    assert g.n == system.n_vars
    expected = 1
    for d in system.degrees():
        expected *= max(d, 1)
    assert g.root_count == expected
    roots = list(g.roots())
    assert len(roots) == expected
    for r in roots:
        assert np.max(np.abs(g.evaluate(r))) < 1e-12


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_same_seed_same_constants(seed):
    f = parse_system("2\n*\nx1^2 - x2;\nx2^2 - 1;\n")
    a = build_start_system(f, RandomSource(seed))
    b = build_start_system(f, RandomSource(seed))
    assert np.array_equal(a.constants, b.constants)
