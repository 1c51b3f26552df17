"""Expanded multivariate polynomials over complex coefficients.

Polynomials are stored as {exponent tuple: coefficient} maps and all
arithmetic expands on the spot, so a parsed system is already in monomial
form.  Differentiation is exact in the coefficients; there is no symbolic
simplification beyond dropping zero terms.

For evaluation a system compiles itself once, at construction, into two
monomial tables: one for its values and one for its Jacobian.  A table
holds the distinct monomials of its rows as an exponent matrix and a dense
coefficient matrix from monomial values to row values (the n_polys values,
or the n_polys*n_vars Jacobian entries in row-major order).  Evaluating a
table takes one power table x[v]**e by cumulative products, one gather and
product over the exponent matrix, and one matrix-vector product.  Tables
are immutable after construction, so concurrent evaluation is safe.

The text format read by parse_system:

    line 1:    integer, number of variables
    line 2:    whitespace-separated variable names, or * for x1..xn
    remainder: one polynomial per statement, each terminated by ;

A polynomial count that differs from the variable count parses into a
non-square system; solver entry points reject those.  Comments run from
# to end of line.  Coefficients are written a, b*i, or
a+b*i; the letter i is reserved for the imaginary unit.  Operators are
+ - * ^ with the usual precedence and unary minus.  A non-finite literal or
intermediate coefficient (1e400, 1e200*1e200, 0*1e400) is a parse error.
"""

from __future__ import annotations

import cmath
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np


class ParseError(ValueError):
    """System text that does not conform to the format; carries a location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownVariableError(ParseError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"unknown variable '{name}'", line, col)
        self.name = name


class DimensionMismatchError(ValueError):
    """Point length does not match the system's variable count."""


class _MonomialTable:
    """Rows of polynomials compiled over their shared distinct monomials.

    __call__(x) returns coeffs @ m(x), where m_j(x) is the product over
    variables v of x[v]**exps[j, v] for the j-th distinct monomial.
    """

    __slots__ = ("width", "index", "coeffs")

    def __init__(self, rows, n_vars: int):
        monomials = sorted({e for p in rows for e in p.terms})
        column = {e: j for j, e in enumerate(monomials)}
        self.coeffs = np.zeros((len(rows), len(monomials)), dtype=np.complex128)
        for k, p in enumerate(rows):
            for e, c in p.terms.items():
                self.coeffs[k, column[e]] = c
        exps = np.array(monomials, dtype=np.intp).reshape(len(monomials), n_vars)
        self.width = (int(exps.max()) if exps.size else 0) + 1
        # flat positions of x[v]**exps[j, v] in the (n_vars, width) power table
        self.index = exps + self.width * np.arange(n_vars)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        table = np.empty((x.shape[0], self.width), dtype=np.complex128)
        table[:, 0] = 1.0
        table[:, 1:] = x[:, None]
        table.cumprod(axis=1, out=table)  # column e now holds x**e
        return self.coeffs.dot(table.take(self.index).prod(axis=1))


class Polynomial:
    """One polynomial in n_vars complex variables, stored expanded.

    terms maps exponent tuples (length n_vars, nonnegative ints) to nonzero
    complex coefficients.  Instances behave as values: arithmetic returns new
    polynomials and equality is exact term-by-term.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[tuple, complex] | None = None):
        self.n_vars = int(n_vars)
        if self.n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        clean: dict[tuple, complex] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != self.n_vars or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exps!r} for n_vars={self.n_vars}")
            c = clean.get(key, 0j) + complex(coeff)
            if c == 0:
                clean.pop(key, None)
            else:
                clean[key] = c
        self.terms = clean

    @classmethod
    def constant(cls, n_vars: int, value: complex) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: complex(value)})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range for {n_vars} variables")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1.0 + 0j})

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable index."""
        out: dict[tuple, complex] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1:]
            out[key] = out.get(key, 0j) + coeff * e
        return Polynomial(self.n_vars, out)

    def _coerce(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine a polynomial with {type(other).__name__}")
        if other.n_vars != self.n_vars:
            raise ValueError("mixing polynomials with different variable counts")
        return other

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0j) + coeff
        return Polynomial(self.n_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[tuple, complex] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0j) + ca * cb
        return Polynomial(self.n_vars, out)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.n_vars, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Polynomial(n_vars={self.n_vars}, terms={self.terms!r})"


class PolynomialSystem:
    """A list of polynomials sharing one variable set."""

    def __init__(self, polys: Iterable[Polynomial], var_names: Iterable[str] | None = None):
        self.polys = tuple(polys)
        if not self.polys:
            raise ValueError("a system needs at least one polynomial")
        self.n_vars = self.polys[0].n_vars
        for p in self.polys:
            if p.n_vars != self.n_vars:
                raise ValueError("all polynomials must share the variable count")
        if var_names is None:
            var_names = tuple(f"x{k + 1}" for k in range(self.n_vars))
        self.var_names = tuple(var_names)
        if len(self.var_names) != self.n_vars:
            raise ValueError("variable name count does not match n_vars")
        self._values = _MonomialTable(self.polys, self.n_vars)
        self._partials = _MonomialTable(
            [p.derivative(j) for p in self.polys for j in range(self.n_vars)], self.n_vars)

    @property
    def n_polys(self) -> int:
        return len(self.polys)

    def is_square(self) -> bool:
        return self.n_polys == self.n_vars

    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.polys)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n_vars,):
            raise DimensionMismatchError(
                f"expected point of length {self.n_vars}, got shape {x.shape}")
        return x

    def evaluate(self, x) -> np.ndarray:
        return self._values(self._check_point(x))

    def jacobian(self, x) -> np.ndarray:
        """Matrix of partials, entry (k, j) = d poly_k / d var_j at x."""
        return self._partials(self._check_point(x)).reshape(self.n_polys, self.n_vars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialSystem):
            return NotImplemented
        return (self.var_names == other.var_names and self.polys == other.polys)

    def __repr__(self) -> str:
        return (f"PolynomialSystem(n_vars={self.n_vars}, n_polys={self.n_polys}, "
                f"vars={' '.join(self.var_names)})")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# one token after any whitespace; any other character is "bad"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^();])|(?P<bad>\S))")


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(lines: list[tuple[int, str]]) -> list[_Token]:
    tokens = []
    for line_no, text in lines:
        # trailing whitespace matches nothing and ends the line
        for m in _TOKEN_RE.finditer(text):
            kind, col = m.lastgroup, m.start(m.lastgroup) + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}", line_no, col)
            tokens.append(_Token(kind, m.group(kind), line_no, col))
    return tokens


class _Parser:
    """Recursive descent over one polynomial statement's tokens."""

    def __init__(self, tokens: list[_Token], var_index: dict[str, int], n_vars: int):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.n_vars = n_vars

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _accept(self, ops: str) -> _Token | None:
        """Consume and return the next token if it is one of the operators ops."""
        tok = self._peek()
        if tok is None or tok.kind != "op" or tok.text not in ops:
            return None
        self.pos += 1
        return tok

    @staticmethod
    def _finite(poly: Polynomial, tok: _Token) -> Polynomial:
        if not all(cmath.isfinite(c) for c in poly.terms.values()):
            raise ParseError("coefficient is not finite", tok.line, tok.col)
        return poly

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("unexpected end of polynomial", last.line, last.col)
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.expression()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        return poly

    def expression(self) -> Polynomial:
        poly = self.factor()
        while tok := self._accept("+-"):
            rhs = self.factor()
            poly = self._finite(poly + rhs if tok.text == "+" else poly - rhs, tok)
        return poly

    def factor(self) -> Polynomial:
        poly = self.signed()
        while tok := self._accept("*"):
            poly = self._finite(poly * self.signed(), tok)
        return poly

    def signed(self) -> Polynomial:
        sign = 1
        while tok := self._accept("+-"):
            if tok.text == "-":
                sign = -sign
        poly = self.power()
        return poly if sign > 0 else -poly

    def power(self) -> Polynomial:
        base = self.atom()
        if tok := self._accept("^"):
            etok = self._next()
            if etok.kind != "num" or not etok.text.isdigit():
                raise ParseError("exponent must be a nonnegative integer",
                                 etok.line, etok.col)
            base = self._finite(base ** int(etok.text), tok)
        return base

    def atom(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "num":
            return self._finite(Polynomial.constant(self.n_vars, float(tok.text)), tok)
        if tok.kind == "name":
            if tok.text == "i":
                return Polynomial.constant(self.n_vars, 1j)
            idx = self.var_index.get(tok.text)
            if idx is None:
                raise UnknownVariableError(tok.text, tok.line, tok.col)
            return Polynomial.variable(self.n_vars, idx)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expression()
            closing = self._next()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.col)
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_system(text: str) -> PolynomialSystem:
    """Parse system-format text into a PolynomialSystem.

    Raises ParseError (with 1-based line/column) on any format violation and
    UnknownVariableError for names not declared on line 2.
    """
    numbered = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        numbered.append((line_no, raw.split("#", 1)[0]))

    content = [(no, s) for no, s in numbered if s.strip()]
    if len(content) < 2:
        raise ParseError("file needs a variable count line and a names line",
                         len(numbered) + 1, 1)

    count_no, count_line = content[0]
    try:
        n_vars = int(count_line.strip())
    except ValueError:
        raise ParseError("first line must be the integer number of variables",
                         count_no, 1) from None
    if n_vars < 1:
        raise ParseError("variable count must be positive", count_no, 1)

    names_no, names_line = content[1]
    if names_line.strip() == "*":
        var_names = [f"x{k + 1}" for k in range(n_vars)]
    else:
        names = list(re.finditer(r"\S+", names_line))
        if len(names) != n_vars:
            raise ParseError(f"expected {n_vars} variable names, found {len(names)}",
                             names_no, 1)
        var_names = []
        for match in names:
            name, col = match.group(), match.start() + 1
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"invalid variable name {name!r}", names_no, col)
            if name == "i":
                raise ParseError("'i' is reserved for the imaginary unit", names_no, col)
            if name in var_names:
                raise ParseError(f"duplicate variable name {name!r}", names_no, col)
            var_names.append(name)

    tokens = _tokenize(content[2:])
    var_index = {name: k for k, name in enumerate(var_names)}

    polys = []
    statement: list[_Token] = []
    for tok in tokens:
        if tok.kind == "op" and tok.text == ";":
            if not statement:
                raise ParseError("empty polynomial statement", tok.line, tok.col)
            polys.append(_Parser(statement, var_index, n_vars).parse())
            statement = []
        else:
            statement.append(tok)
    if statement:
        last = statement[-1]
        raise ParseError("missing ';' after polynomial", last.line, last.col)
    if not polys:
        raise ParseError("file contains no polynomials", names_no, 1)

    # a polynomial count differing from n_vars parses fine; the solver
    # entry points reject non-square systems
    return PolynomialSystem(polys, var_names)


def load_system(path) -> PolynomialSystem:
    return parse_system(Path(path).read_text(encoding="utf-8"))
