"""Parsing, evaluation, and differentiation of systems."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycascade.polynomials import (DimensionMismatchError, ParseError, Polynomial,
                                     PolynomialSystem, UnknownVariableError,
                                     parse_system)

from helpers import (fd_jacobian, naive_poly_eval, points_st, polynomials_st,
                     small_complex, system_text, systems_st)

WORKED = """
# embedded-point example
2
*
x1^2*x2;
x1^2*(x2^2 + x1);
"""


def test_parse_degrees_and_count():
    f = parse_system(WORKED)
    assert f.n_polys == 2 and f.n_vars == 2
    assert f.degrees() == (3, 4)


def test_evaluate_hand_checked():
    f = parse_system(WORKED)
    # f(1, 1) = (1^2*1, 1^2*(1+1)) = (1, 2)
    v = f.evaluate(np.array([1.0, 1.0], dtype=np.complex128))
    assert np.allclose(v, [1.0, 2.0])
    # f(2, i) = (4i, 4*(i^2+2)) = (4i, 4)
    v = f.evaluate(np.array([2.0, 1j], dtype=np.complex128))
    assert np.allclose(v, [4j, 4.0])
    with pytest.raises(DimensionMismatchError):
        f.evaluate(np.ones(3))


def test_jacobian_hand_checked():
    f = parse_system(WORKED)
    # d(x1^2 x2) = (2 x1 x2, x1^2); d(x1^2 x2^2 + x1^3) = (2 x1 x2^2 + 3 x1^2, 2 x1^2 x2)
    j = f.jacobian(np.array([1.0, 2.0], dtype=np.complex128))
    assert np.allclose(j, [[4.0, 1.0], [11.0, 4.0]])


def test_complex_coefficients_parse():
    f = parse_system("1\n*\n(1+2*i)*x1^4 + (-5+3*i);\n")
    p = f.polys[0]
    assert p.terms[(4,)] == 1 + 2j
    assert p.terms[(0,)] == -5 + 3j


def test_imaginary_unit_literal():
    f = parse_system("1\n*\ni*x1 - i;\n")
    assert f.polys[0].terms[(1,)] == 1j
    assert f.polys[0].terms[(0,)] == -1j


def test_named_variables_and_unknown():
    f = parse_system("2\nu v\nu*v - 1;\nu + v;\n")
    assert f.var_names == ("u", "v")
    with pytest.raises(UnknownVariableError) as err:
        parse_system("2\nu v\nu*w - 1;\nu + v;\n")
    assert err.value.name == "w"


@pytest.mark.parametrize("text,line,col_check", [
    ("2\n*\nx1 + ;\nx2;\n", 3, lambda c: c >= 4),
    ("2\n*\nx1^x2;\nx2;\n", 3, lambda c: c >= 3),
    ("2\n*\nx1)\n;x2;\n", 3, lambda c: c >= 3),
    ("not_a_number\n*\nx1;\n", 1, lambda c: c == 1),
])
def test_parse_errors_carry_location(text, line, col_check):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.line == line
    assert col_check(err.value.col)


@pytest.mark.parametrize("text,message,line,col", [
    ("1\n*\nx1 @ 1;\n", "unexpected character '@'", 3, 4),
    ("1\n*\nx1\t+\t1;\tx1\t@;\n", "unexpected character '@'", 3, 12),  # a tab is one column
    ("1\n*\n(x1 x1);\n", "expected ')'", 3, 5),
    ("1\n*\nx1 * );\n", "unexpected token ')'", 3, 6),
    ("1\n", "file needs a variable count line and a names line", 2, 1),
    ("0\n*\nx1;\n", "variable count must be positive", 1, 1),
    ("2\nx y z\nx;\ny;\n", "expected 2 variable names, found 3", 2, 1),
    ("2\nx 1y\nx;\nx;\n", "invalid variable name '1y'", 2, 3),
    ("2\nx i\nx;\nx;\n", "'i' is reserved for the imaginary unit", 2, 3),
    # each name is located by its own column, not by its first substring match
    ("2\nu\tu\nu;\nu;\n", "duplicate variable name 'u'", 2, 3),
    ("2\nx1y 1y\nx1y;\nx1y;\n", "invalid variable name '1y'", 2, 5),
    ("3\nab b b\nab;\nb;\nb;\n", "duplicate variable name 'b'", 2, 6),
    ("1\n*\n;\n", "empty polynomial statement", 3, 1),
    ("1\n*\n# nothing\n", "file contains no polynomials", 2, 1),
])
def test_every_parse_error_site(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_missing_terminator():
    with pytest.raises(ParseError) as err:
        parse_system("1\n*\nx1 + 1\n")
    assert "';'" in str(err.value)


def test_non_square_parses_but_flags():
    f = parse_system("2\n*\nx1*x2 - 1;\n")
    assert not f.is_square()
    assert f.n_polys == 1 and f.n_vars == 2


def test_comments_and_blank_lines_ignored():
    f = parse_system("# header\n\n2\n*  # default names\nx1; # first\n\nx2;\n")
    assert f.n_polys == 2


@pytest.mark.parametrize("statement,col", [
    ("1e400*x1 - 1", 1),        # the literal itself overflows
    ("1e200*1e200*x1 - 1", 6),  # the product overflows
    ("0*1e400*x1 - 1", 3),      # 0*inf would vanish from the expanded form
    ("(1e200*x1)^2 - 1", 11),   # the power overflows
    ("1e308 + 1e308 + x1", 7),  # the sum overflows
])
def test_non_finite_coefficient_is_parse_error(statement, col):
    with pytest.raises(ParseError) as err:
        parse_system(f"1\n*\nx1;\n{statement};\n")
    assert "not finite" in str(err.value)
    assert (err.value.line, err.value.col) == (4, col)


def test_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse_system("1\n*\nx1^(2);\n")


def test_zero_polynomial_degree_sentinel():
    f = parse_system("2\n*\nx1 - x1;\nx2;\n")
    assert f.degrees() == (-1, 1)
    assert f.polys[0].terms == {}


def test_derivative_drops_vanishing_terms():
    p = Polynomial(2, {(0, 3): 2.0, (1, 0): 5.0})
    dp = p.derivative(0)
    assert dp.terms == {(0, 0): 5.0}
    assert p.derivative(1).terms == {(0, 2): 6.0}


@settings(max_examples=150)
@given(st.data())
def test_evaluation_matches_naive_oracle(data):
    n = data.draw(st.integers(1, 3))
    poly = data.draw(polynomials_st(n, max_degree=4, max_terms=5))
    x = data.draw(points_st(n))
    got = PolynomialSystem([poly]).evaluate(x)[0]
    want = naive_poly_eval(poly, x)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _dict_walk(rows, x):
    """Sum of c * prod x**e over each row's terms, and the sum of |term|."""
    values, scales = [], []
    for p in rows:
        terms = [naive_poly_eval(Polynomial(p.n_vars, {e: c}), x)
                 for e, c in p.terms.items()]
        values.append(sum(terms, 0j))
        scales.append(sum(abs(t) for t in terms))
    return np.array(values), np.array(scales)


@st.composite
def ragged_systems_st(draw):
    """(system, point): zero and constant rows, an unused variable, any shape."""
    n = draw(st.integers(1, 4))
    unused = draw(st.none() | st.integers(0, n - 1))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["zero", "constant", "general"]))
        if kind == "zero":
            rows.append(Polynomial(n))
        elif kind == "constant":
            rows.append(Polynomial.constant(n, draw(small_complex())))
        else:
            p = draw(polynomials_st(n, max_degree=4, max_terms=6))
            rows.append(Polynomial(n, {e: c for e, c in p.terms.items()
                                       if unused is None or e[unused] == 0}))
    return PolynomialSystem(rows), draw(points_st(n))


# 4 rows in 3 variables: a zero row, a constant row, and x2 in no equation
_EDGE_SYSTEM = PolynomialSystem([
    Polynomial(3), Polynomial.constant(3, 2 - 1j),
    Polynomial(3, {(2, 0, 1): 1.5j, (0, 0, 3): -2.0, (1, 0, 0): 1.0}),
    Polynomial(3, {(1, 0, 1): 1.0})])


@settings(max_examples=150)
@given(ragged_systems_st())
@example((PolynomialSystem([Polynomial(1, {(3,): 2j, (0,): 1.0})]), np.array([0.5 - 1j])))
@example((_EDGE_SYSTEM, np.array([1.2 + 0.3j, -0.7j, 0.4 - 1.1j])))
def test_compiled_tables_match_dict_walk(case):
    system, x = case
    n = system.n_vars
    want, scale = _dict_walk(system.polys, x)
    got = system.evaluate(x)
    assert got.shape == (system.n_polys,)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    rows = [PolynomialSystem([p]).evaluate(x)[0] for p in system.polys]
    assert np.all(np.abs(rows - want) <= 1e-12 * scale)
    partials = [p.derivative(j) for p in system.polys for j in range(n)]
    want, scale = _dict_walk(partials, x)
    got = system.jacobian(x)
    assert got.shape == (system.n_polys, n)
    assert np.all(np.abs(got.ravel() - want) <= 1e-12 * scale)


@settings(max_examples=150)
@given(st.data())
def test_jacobian_matches_finite_differences(data):
    system = data.draw(systems_st(max_degree=3, max_terms=4))
    x = data.draw(points_st(system.n_vars, scale=1.0))
    exact = system.jacobian(x)
    approx = fd_jacobian(system.evaluate, x, h=1e-6)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(exact - approx)) <= 5e-5 * scale


@settings(max_examples=150)
@given(st.data())
def test_format_parse_round_trip(data):
    system = data.draw(systems_st(max_degree=3, max_terms=4))
    again = parse_system(system_text(system))
    assert again == system


@settings(max_examples=100)
@given(st.data())
def test_arithmetic_matches_naive(data):
    n = data.draw(st.integers(1, 2))
    a = data.draw(polynomials_st(n, max_degree=2, max_terms=3))
    b = data.draw(polynomials_st(n, max_degree=2, max_terms=3))
    x = data.draw(points_st(n, scale=1.0))
    want = naive_poly_eval(a, x) * naive_poly_eval(b, x) + naive_poly_eval(a, x)
    got = PolynomialSystem([a * b + a]).evaluate(x)[0]
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_scalar_operand_is_type_error():
    # the parser combines only polynomials; a constant must be one too
    p = Polynomial.variable(2, 0)
    for combine in (lambda: p + 1, lambda: 1 + p, lambda: p - 1.0, lambda: 1.0 - p,
                    lambda: p * 2j, lambda: 2j * p):
        with pytest.raises(TypeError):
            combine()
    assert p * Polynomial.constant(2, 2j) == Polynomial(2, {(1, 0): 2j})
