"""Slack-variable embeddings and the homotopies between them.

Level i embeds a square system f in n variables into n+i equations and
variables x, z_1..z_i:

    rows 1..n:    f_k(x) + sum_j lambda_eff[k, j] * z_j
    rows n+1..n+i: L_eff_j(x) + z_j

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
from .polynomials import DimensionMismatchError, PolynomialSystem
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

    def slice_value(self, level: int, x: np.ndarray) -> np.ndarray:
        """Effective hyperplane values L_eff_1(x)..L_eff_level(x)."""
        if level == 0:
            return np.zeros(0, dtype=np.complex128)
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
    """f embedded with level slack variables; level 0 is f itself."""

    def __init__(self, base: PolynomialSystem, params: ParameterSample | None, level: int):
        if not 0 <= level <= base.n_vars:
            raise LevelOutOfRangeError(
                f"level {level} out of range for {base.n_vars} variables")
        if level > 0 and params is None:
            raise ValueError("positive embedding levels need a parameter sample")
        if not base.is_square():
            raise ValueError("only square systems can be embedded")
        self.base = base
        self.params = params
        self.level = level
        if level > 0:
            # the Jacobian's constant blocks: multipliers, slices, identity
            n = base.n_vars
            self._jac = np.zeros((n + level, n + level), dtype=np.complex128)
            self._jac[:n, n:] = params.eff_lambda[:, :level]
            self._jac[n:, :n] = params.eff_coefficients[:level]
            self._jac[n:, n:] = np.eye(level)

    @property
    def n(self) -> int:
        return self.base.n_vars

    @property
    def dim(self) -> int:
        return self.n + self.level

    def degrees(self) -> tuple[int, ...]:
        base = self.base.degrees()
        if self.level == 0:
            return base
        # the slack terms make every top row at least linear
        return tuple(max(d, 1) for d in base) + (1,) * self.level

    def _split(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        point = np.asarray(point, dtype=np.complex128)
        if point.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected point of length {self.dim}, got shape {point.shape}")
        return point[:self.n], point[self.n:]

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        x, z = self._split(point)
        top = self.base.evaluate(x)
        if self.level == 0:
            return top
        p = self.params
        top = top + p.eff_lambda[:, :self.level] @ z
        slices = p.slice_value(self.level, x) + z
        return np.concatenate([top, slices])

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        x, _ = self._split(point)
        jf = self.base.jacobian(x)
        if self.level == 0:
            return jf
        out = self._jac.copy()
        out[:self.n, :self.n] = jf
        return out


def embed(base: PolynomialSystem, params: ParameterSample | None, level: int) -> EmbeddedSystem:
    return EmbeddedSystem(base, params, level)


class CascadeHomotopy:
    """Level transition i -> i-1: deforms the embedded system downward.

    value(point, 1) equals the level-i embedded system; value(point, 0)
    equals the level-(i-1) system on the first n+i-1 rows with z_i alone on
    the last row, so nonsingular level-i endpoints with z_i tracked to zero
    land on level-(i-1) solutions.
    """

    def __init__(self, base: PolynomialSystem, params: ParameterSample, level: int):
        if not 1 <= level <= base.n_vars:
            raise LevelOutOfRangeError(
                f"cascade homotopy level {level} out of range for {base.n_vars} variables")
        self.base = base
        self.params = params
        self.level = level
        self.n = base.n_vars
        self.dim = self.n + level
        self._upper = EmbeddedSystem(base, params, level)
        self._lower = EmbeddedSystem(base, params, level - 1)

    def value(self, point: np.ndarray, s: float) -> np.ndarray:
        # the endpoint systems are evaluated through the same code path as
        # the embeddings themselves so the identities hold bit for bit
        if s == 1.0:
            return self._upper.evaluate(point)
        if s == 0.0:
            x, z = self._upper._split(point)
            return np.concatenate([self._lower.evaluate(point[:-1]), [z[-1]]])
        x, z = self._upper._split(point)
        i = self.level
        p = self.params
        zmod = z.copy()
        zmod[i - 1] *= s
        top = self.base.evaluate(x) + p.eff_lambda[:, :i] @ zmod
        slices = p.slice_value(i, x)
        mids = slices[:i - 1] + z[:i - 1]
        last = s * slices[i - 1] + z[i - 1]
        return np.concatenate([top, mids, [last]])

    def jacobian(self, point: np.ndarray, s: float) -> np.ndarray:
        x, _ = self._upper._split(point)
        out = self._upper._jac.copy()
        out[:self.n, :self.n] = self.base.jacobian(x)
        out[:self.n, -1] *= s
        out[-1, :self.n] *= s
        return out

    def s_derivative(self, point: np.ndarray, s: float) -> np.ndarray:
        x, z = self._upper._split(point)
        i = self.level
        p = self.params
        out = np.zeros(self.dim, dtype=np.complex128)
        out[:self.n] = p.eff_lambda[:, i - 1] * z[i - 1]
        out[self.dim - 1] = p.slice_value(i, x)[i - 1]
        return out

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
