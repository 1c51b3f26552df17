"""Slack-variable embeddings and the homotopies between them.

Level i embeds a square system f in n variables into the polynomial system
E_i of n+i equations in the variables x, z_1..z_i:

    rows 1..n:    f_k(x) + sum_j lambda_eff[k, j] * z_j
    rows n+1..n+i: L_eff_j(x) + z_j

E_i is written out as polynomials and compiled into the same monomial
tables as any parsed system, so one evaluator serves f and every
embedding.  The level-i cascade homotopy is E_i - (1 - s) * D, where D is
the affine part of E_i made of the z_i terms of the top rows and L_eff_i:
at s = 0 what is left is E_{i-1} with the extra row z_i.

The random multipliers and hyperplanes are drawn once per run and the
unit-modulus accessory constant eta is multiplied into all of them up front
(lambda_eff = eta*lambda, L_eff = eta*L), which keeps consecutive levels
consistent: the t=0 endpoints of the level-i homotopy solve exactly the
level-(i-1) embedded system with the same effective parameters.  A product
of independent uniform-angle unit numbers is again uniform, so genericity
is unaffected.

Homotopies expose value / jacobian / s_derivative in the tracked real
parameter s, which runs from 1 (start) to 0 (target).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RandomSource
from .polynomials import DimensionMismatchError, Polynomial, PolynomialSystem
from .start_systems import StartSystem


class LevelOutOfRangeError(ValueError):
    """Embedding level must lie in [0, n]."""


@dataclass(frozen=True, eq=False)
class ParameterSample:
    """One run's random embedding data, regenerable from its seed.

    Hyperplane j is constants[j] + coefficients[j] . x, and lambda_matrix[k, j]
    is the multiplier of slack z_{j+1} in equation k+1.  The _eff arrays
    carry the eta-absorbed values actually used in systems.
    """

    seed: int
    constants: np.ndarray
    coefficients: np.ndarray
    lambda_matrix: np.ndarray
    eta: complex
    eff_lambda: np.ndarray = field(init=False, repr=False)
    eff_constants: np.ndarray = field(init=False, repr=False)
    eff_coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.lambda_matrix.shape[0]
        if (self.lambda_matrix.shape != (n, n) or self.constants.shape != (n,)
                or self.coefficients.shape != (n, n)):
            raise ValueError("parameter sample blocks must all be n-sized")
        object.__setattr__(self, "eff_lambda", self.eta * self.lambda_matrix)
        object.__setattr__(self, "eff_constants", self.eta * self.constants)
        object.__setattr__(self, "eff_coefficients", self.eta * self.coefficients)

    @property
    def n(self) -> int:
        return self.lambda_matrix.shape[0]


def sample_parameters(n: int, rng: RandomSource) -> ParameterSample:
    """Draw hyperplanes, multiplier columns, and eta, all unit-modulus."""
    if n < 1:
        raise ValueError("need at least one variable")
    constants = np.empty(n, dtype=np.complex128)
    coefficients = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        constants[j] = rng.unit_complex()
        coefficients[j] = rng.unit_complex_array(n)
    lam = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        lam[:, j] = rng.unit_complex_array(n)
    eta = rng.unit_complex()
    return ParameterSample(seed=rng.seed, constants=constants, coefficients=coefficients,
                           lambda_matrix=lam, eta=eta)


class EmbeddedSystem:
    """E_i as one compiled PolynomialSystem in x, z_1..z_i; level 0 is f itself."""

    def __init__(self, base: PolynomialSystem, params: ParameterSample | None, level: int):
        if not 0 <= level <= base.n_vars:
            raise LevelOutOfRangeError(
                f"level {level} out of range for {base.n_vars} variables")
        if level > 0 and params is None:
            raise ValueError("positive embedding levels need a parameter sample")
        if not base.is_square():
            raise ValueError("only square systems can be embedded")
        n = base.n_vars
        self.level = level
        self.dim = n + level

        def unit(v: int) -> tuple:
            return tuple(int(k == v) for k in range(self.dim))

        pad = (0,) * level
        rows = []
        for k, f_k in enumerate(base.polys):
            terms = {e + pad: c for e, c in f_k.terms.items()}
            terms.update((unit(n + j), params.eff_lambda[k, j]) for j in range(level))
            rows.append(Polynomial(self.dim, terms))
        for j in range(level):
            terms = {unit(v): params.eff_coefficients[j, v] for v in range(n)}
            terms[(0,) * self.dim] = params.eff_constants[j]
            terms[unit(n + j)] = 1.0
            rows.append(Polynomial(self.dim, terms))
        self._system = PolynomialSystem(
            rows, base.var_names + tuple(f"z{j + 1}" for j in range(level)))

    def degrees(self) -> tuple[int, ...]:
        return self._system.degrees()

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        return self._system.evaluate(point)

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        return self._system.jacobian(point)


def embed(base: PolynomialSystem, params: ParameterSample | None, level: int) -> EmbeddedSystem:
    return EmbeddedSystem(base, params, level)


class CascadeHomotopy:
    """Level transition i -> i-1: H(p, s) = E_i(p) - (1 - s) * D(p).

    D(p) = M p + c is the affine part of E_i that s switches off: M holds
    lambda_eff[:, i-1] (the z_i column of the top n rows) and the
    coefficients of L_eff_i (the x part of the last row), and c holds the
    constant of L_eff_i in the last entry.  value(point, 1) is E_i;
    value(point, 0) is the level-(i-1) system on the first n+i-1 rows with
    z_i alone on the last row, so nonsingular level-i endpoints with z_i
    tracked to zero land on level-(i-1) solutions.
    """

    def __init__(self, base: PolynomialSystem, params: ParameterSample, level: int):
        if not 1 <= level <= base.n_vars:
            raise LevelOutOfRangeError(
                f"cascade homotopy level {level} out of range for {base.n_vars} variables")
        n = base.n_vars
        self.level = level
        self.dim = n + level
        self._upper = EmbeddedSystem(base, params, level)
        self._lower = EmbeddedSystem(base, params, level - 1)
        self._m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        self._m[:n, -1] = params.eff_lambda[:, level - 1]
        self._m[-1, :n] = params.eff_coefficients[level - 1]
        self._c = np.zeros(self.dim, dtype=np.complex128)
        self._c[-1] = params.eff_constants[level - 1]

    def value(self, point: np.ndarray, s: float) -> np.ndarray:
        if s == 0.0:
            # the target goes through the level-(i-1) embedding itself, so
            # it equals that system bit for bit
            return np.concatenate([self._lower.evaluate(point[:-1]), point[-1:]])
        return self._upper.evaluate(point) - (1.0 - s) * (self._m @ point + self._c)

    def jacobian(self, point: np.ndarray, s: float) -> np.ndarray:
        return self._upper.jacobian(point) - (1.0 - s) * self._m

    def s_derivative(self, point: np.ndarray, s: float) -> np.ndarray:
        return self._m @ point + self._c

    def target_residual(self, point: np.ndarray) -> float:
        return float(np.max(np.abs(self.value(point, 0.0))))


class StartHomotopy:
    """Linear homotopy gamma*s*g + (1-s)*target from a start system g.

    The random gamma keeps the path off the discriminant for all s in (0, 1]
    with probability one.  Endpoints are exact: value(x, 1) is proportional
    to g alone and value(x, 0) is the target alone.
    """

    def __init__(self, target, start: StartSystem, gamma: complex):
        if start.n != target.dim:
            raise DimensionMismatchError(
                f"start system has {start.n} equations, target expects {target.dim}")
        self.target = target
        self.start = start
        self.gamma = complex(gamma)
        self.dim = target.dim

    def value(self, point: np.ndarray, s: float) -> np.ndarray:
        point = np.asarray(point, dtype=np.complex128)
        if s == 0.0:
            return self.target.evaluate(point)
        return self.gamma * s * self.start.evaluate(point) \
            + (1.0 - s) * self.target.evaluate(point)

    def jacobian(self, point: np.ndarray, s: float) -> np.ndarray:
        point = np.asarray(point, dtype=np.complex128)
        if s == 0.0:
            return self.target.jacobian(point)
        out = (1.0 - s) * self.target.jacobian(point)
        # the start Jacobian is diagonal: add it there, in place
        out.flat[::self.dim + 1] += self.gamma * s * self.start.diagonal_jacobian(point)
        return out

    def s_derivative(self, point: np.ndarray, s: float) -> np.ndarray:
        point = np.asarray(point, dtype=np.complex128)
        return self.gamma * self.start.evaluate(point) - self.target.evaluate(point)

    def target_residual(self, point: np.ndarray) -> float:
        return float(np.max(np.abs(self.target.evaluate(point))))
