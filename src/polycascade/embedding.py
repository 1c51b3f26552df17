"""The cascade's level systems and the homotopies between them, in x alone.

The paper's level-i embedding E_i of a square system f in n variables has
the rows f(x) + sum_j lambda_j z_j and L_j(x) + z_j for the slices
L_j(x) = c_j + a_j . x, j <= i.  Each slice row fixes z_j = -L_j(x), so E_i
is the n equations F_i(x) = f(x) - sum_{j<=i} lambda_j L_j(x), and a level-i
endpoint lies on a component when L_1(x)..L_i(x) vanish.  F_i is compiled
into the same monomial tables as any parsed system, so one evaluator serves
f and every level.  The level-i cascade homotopy E_i - (1 - s) * D, with z_i
scaled by s, becomes H_i(x, s) = F_{i-1}(x) - s^2 lambda_i L_i(x): F_i at
s = 1 and F_{i-1} at s = 0, with the same paths in x.

The random multipliers and hyperplanes are drawn once per run and the
unit-modulus accessory constant eta is multiplied into all of them up front
(lambda_eff = eta*lambda, L_eff = eta*L), which keeps consecutive levels
consistent: the s=0 endpoints of the level-i homotopy solve exactly the
level-(i-1) system with the same effective parameters.  A product of
independent uniform-angle unit numbers is again uniform, so genericity is
unaffected.

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
    is the multiplier of slice j+1 (of slack z_{j+1} in the paper's
    embedding) in equation k+1.  The _eff arrays carry the eta-absorbed
    values actually used in systems.
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

    def slice_values(self, x: np.ndarray, level: int) -> np.ndarray:
        """The effective slices L_1(x)..L_level(x); empty at level 0."""
        return self.eff_constants[:level] + self.eff_coefficients[:level] @ x


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
    """F_i as one compiled PolynomialSystem in x; level 0 is f itself."""

    def __init__(self, base: PolynomialSystem, params: ParameterSample | None, level: int):
        if not 0 <= level <= base.n_vars:
            raise LevelOutOfRangeError(
                f"level {level} out of range for {base.n_vars} variables")
        if level > 0 and params is None:
            raise ValueError("positive embedding levels need a parameter sample")
        if not base.is_square():
            raise ValueError("only square systems can be embedded")
        n = base.n_vars
        if params is not None and params.n != n:
            raise DimensionMismatchError(f"{params.n}-variable parameters for {n} variables")
        self.base = base
        self.params = params
        self.level = level
        self.dim = n
        rows = base.polys
        if level:
            # row k of sum_j lambda_j L_j(x) as [constant, x_1 .. x_n coefficients]
            lam = params.eff_lambda[:, :level]
            affine = np.column_stack([lam @ params.eff_constants[:level],
                                      lam @ params.eff_coefficients[:level]])
            exps = [(0,) * n] + [tuple(int(k == v) for k in range(n)) for v in range(n)]
            rows = [f_k - Polynomial(n, dict(zip(exps, row))) for f_k, row in zip(rows, affine)]
        self._system = PolynomialSystem(rows, base.var_names) if level else base

    def degrees(self) -> tuple[int, ...]:
        return self._system.degrees()

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        return self._system.evaluate(point)

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        return self._system.jacobian(point)


def embed(base: PolynomialSystem, params: ParameterSample | None, level: int) -> EmbeddedSystem:
    return EmbeddedSystem(base, params, level)


class CascadeHomotopy:
    """Level transition i -> i-1: H(x, s) = F_{i-1}(x) - s^2 lambda_i L_i(x).

    value(x, 1) is F_i up to rounding and value(x, 0) is F_{i-1} exactly, so
    nonsingular level-i endpoints land on level-(i-1) solutions.
    """

    def __init__(self, lower: EmbeddedSystem):
        self.level = lower.level + 1
        if self.level > lower.dim:
            raise LevelOutOfRangeError(
                f"cascade homotopy level {self.level} out of range for {lower.dim} variables")
        if lower.params is None:
            raise ValueError("a cascade homotopy needs the level system's parameter sample")
        self.dim = lower.dim
        self._lower = lower
        self._lambda = lower.params.eff_lambda[:, lower.level]
        self._outer = np.outer(self._lambda, lower.params.eff_coefficients[lower.level])

    def _slice(self, point: np.ndarray) -> complex:
        return self._lower.params.slice_values(point, self.level)[-1]

    def value(self, point: np.ndarray, s: float) -> np.ndarray:
        return self._lower.evaluate(point) - (s * s * self._slice(point)) * self._lambda

    def jacobian(self, point: np.ndarray, s: float) -> np.ndarray:
        return self._lower.jacobian(point) - (s * s) * self._outer

    def s_derivative(self, point: np.ndarray, s: float) -> np.ndarray:
        return (-2.0 * s * self._slice(point)) * self._lambda

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
        if s == 0.0:
            return self.target.evaluate(point)
        return self.gamma * s * self.start.evaluate(point) \
            + (1.0 - s) * self.target.evaluate(point)

    def jacobian(self, point: np.ndarray, s: float) -> np.ndarray:
        if s == 0.0:
            return self.target.jacobian(point)
        out = (1.0 - s) * self.target.jacobian(point)
        # the start Jacobian is diagonal: add it there, in place
        out.flat[::self.dim + 1] += self.gamma * s * self.start.diagonal_jacobian(point)
        return out

    def s_derivative(self, point: np.ndarray, s: float) -> np.ndarray:
        return self.gamma * self.start.evaluate(point) - self.target.evaluate(point)

    def target_residual(self, point: np.ndarray) -> float:
        return float(np.max(np.abs(self.target.evaluate(point))))
