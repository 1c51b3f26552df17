"""Shared oracles and strategies for the test suite.

The oracles here deliberately avoid the library's own evaluation paths:
naive_poly_eval uses Python complex arithmetic term by term, fd_jacobian
differentiates numerically, and the embedding references assemble E_i and
the cascade homotopy block by block from f's own values and Jacobian, the
multipliers and the slices, rather than from a compiled embedding.
"""

import numpy as np
from hypothesis import strategies as st

from polycascade.polynomials import Polynomial, PolynomialSystem


def naive_poly_eval(poly: Polynomial, x) -> complex:
    total = 0j
    for exps, coeff in poly.terms.items():
        term = complex(coeff)
        for var, e in enumerate(exps):
            term *= complex(x[var]) ** e
        total += term
    return total


def system_text(system: PolynomialSystem) -> str:
    """The system in the parse_system format, every term as (re + im*i)*monomial.

    repr() of a float parses back to the same float, so the text reads back
    as an equal system.
    """
    lines = [str(system.n_vars), " ".join(system.var_names)]
    for p in system.polys:
        terms = []
        for exps, c in p.terms.items():
            powers = [f"{name}^{e}" for name, e in zip(system.var_names, exps) if e]
            terms.append("*".join([f"({c.real!r} + {c.imag!r}*i)"] + powers))
        lines.append(" + ".join(terms) + ";")
    return "\n".join(lines) + "\n"


def slice_values(params, level: int, x):
    """Effective hyperplane values L_eff_1(x)..L_eff_level(x)."""
    return params.eff_constants[:level] + params.eff_coefficients[:level] @ x


def reference_embedding(base: PolynomialSystem, params, level: int, point):
    """(value, Jacobian) of the level-level embedding E_i by its blocks."""
    n = base.n_vars
    x, z = point[:n], point[n:]
    value = np.concatenate([base.evaluate(x) + params.eff_lambda[:, :level] @ z,
                            slice_values(params, level, x) + z])
    jac = np.zeros((n + level, n + level), dtype=np.complex128)
    jac[:n, :n] = base.jacobian(x)
    jac[:n, n:] = params.eff_lambda[:, :level]
    jac[n:, :n] = params.eff_coefficients[:level]
    jac[n:, n:] = np.eye(level)
    return value, jac


def reference_cascade(base: PolynomialSystem, params, level: int, point, s: float):
    """(value, Jacobian, s-derivative) of the level-level cascade homotopy.

    s scales z_level in the top rows and L_eff_level in the last row.
    """
    n, i = base.n_vars, level
    x, z = point[:n], point[n:]
    zmod = z.copy()
    zmod[i - 1] *= s
    slices = slice_values(params, i, x)
    value = np.concatenate([base.evaluate(x) + params.eff_lambda[:, :i] @ zmod,
                            slices[:i - 1] + z[:i - 1], [s * slices[i - 1] + z[i - 1]]])
    _, jac = reference_embedding(base, params, level, point)
    jac[:n, -1] *= s
    jac[-1, :n] *= s
    ds = np.zeros(n + i, dtype=np.complex128)
    ds[:n] = params.eff_lambda[:, i - 1] * z[i - 1]
    ds[-1] = slices[i - 1]
    return value, jac, ds


def fd_jacobian(func, x, h: float = 1e-7) -> np.ndarray:
    """Central finite differences along the real axis.

    Valid for polynomial (analytic) maps: the complex derivative equals the
    directional derivative along the real direction.
    """
    x = np.asarray(x, dtype=np.complex128)
    f0 = np.asarray(func(x))
    out = np.empty((f0.shape[0], x.shape[0]), dtype=np.complex128)
    for k in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[k] = h
        out[:, k] = (np.asarray(func(x + bump)) - np.asarray(func(x - bump))) / (2 * h)
    return out


def small_complex(min_mag=0.1):
    def build(pair):
        re, im = pair
        z = complex(re / 8.0, im / 8.0)
        if abs(z) < min_mag:
            z += complex(min_mag, min_mag)
        return z
    return st.tuples(st.integers(-16, 16), st.integers(-16, 16)).map(build)


@st.composite
def polynomials_st(draw, n_vars: int, max_degree: int = 2, max_terms: int = 3):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = []
        budget = max_degree
        for _ in range(n_vars):
            e = draw(st.integers(0, budget))
            exps.append(e)
            budget -= e
        terms[tuple(exps)] = draw(small_complex())
    return Polynomial(n_vars, terms)


@st.composite
def systems_st(draw, n_vars=None, max_degree: int = 2, max_terms: int = 3):
    if n_vars is None:
        n_vars = draw(st.integers(1, 3))
    polys = [draw(polynomials_st(n_vars, max_degree, max_terms))
             for _ in range(n_vars)]
    return PolynomialSystem(polys)


@st.composite
def generic_square_systems_st(draw, max_vars: int = 2, max_degree: int = 2):
    """Square systems with a guaranteed nonconstant row structure.

    Every equation gets an independent dense generic part of degree 1 so
    that rows are neither constant nor identically zero; a random higher
    term keeps the degrees mixed.
    """
    n = draw(st.integers(1, max_vars))
    polys = []
    for k in range(n):
        terms = {tuple(0 for _ in range(n)): draw(small_complex())}
        for v in range(n):
            e = tuple(1 if j == v else 0 for j in range(n))
            terms[e] = draw(small_complex())
        if max_degree >= 2 and draw(st.booleans()):
            v = draw(st.integers(0, n - 1))
            e = tuple(2 if j == v else 0 for j in range(n))
            terms[e] = draw(small_complex())
        polys.append(Polynomial(n, terms))
    return PolynomialSystem(polys)


@st.composite
def points_st(draw, n_vars: int, scale: float = 2.0):
    vals = [draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
            for _ in range(n_vars)]
    return np.array([complex(a * scale / 20.0, b * scale / 20.0)
                     for a, b in vals], dtype=np.complex128)
