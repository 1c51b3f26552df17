"""Dense complex linear algebra for path tracking.

lu_factor hands the matrix to LAPACK (np.linalg.inv, an LU with partial
pivoting) and keeps the inverse together with the exact infinity-norm
condition number kappa = ||A|| * ||A^-1||.  Solves are then one
matrix-vector product, and condition_estimate costs nothing.

The tracker needs a hard singularity signal at a fixed relative pivot
tolerance, not whatever LAPACK happens to do with a nearly singular
matrix.  That signal is defined by partial-pivot elimination: column k is
singular when its best remaining pivot is at most PIVOT_RTOL times the
column's original magnitude c_k.  The test can only fire on an
ill-conditioned matrix.  Suppose it fires at column k with remaining column
s, |s| <= PIVOT_RTOL * c_k.  Take v with v_k = 1, zeros below k, and the
entries above k that cancel the eliminated part of column k; then
||A v|| = ||s||, ||v|| >= 1 and ||A|| >= c_k, so kappa >= 1 / PIVOT_RTOL.
The elimination therefore runs only behind a screen: when kappa is at least
_SCREEN_KAPPA (a factor 100 below the bound, for rounding), when kappa is
not finite, or when LAPACK rejects the matrix.  Every other matrix passes
the pivot test, so the screen changes no verdict.

The module also holds the deterministic random stream used to draw
homotopy parameters.  Everything works on numpy complex128 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A pivot below this fraction of its column's original magnitude is treated
# as structurally zero.
PIVOT_RTOL = 1e-14
# Condition numbers from here up get the pivot test; below it cannot fire.
_SCREEN_KAPPA = 1e-2 / PIVOT_RTOL


class SingularMatrixError(ArithmeticError):
    """Raised when elimination finds no usable pivot in some column."""

    def __init__(self, column: int):
        super().__init__(f"matrix is singular to working precision at column {column}")
        self.column = column


@dataclass(frozen=True)
class LUFactors:
    """A square complex matrix factored for repeated solves.

    Attributes:
        inverse: A^-1 from LAPACK's LU factorization.
        condition: ||A||_inf * ||A^-1||_inf, math.inf if not finite.
    """

    inverse: np.ndarray
    condition: float


def _pivot_scan(a: np.ndarray) -> None:
    """Partial-pivot elimination of a; raises at the first unusable pivot."""
    lu = a.copy()
    n = lu.shape[0]
    # Column scales from the unfactored matrix define "zero" for pivots.
    col_scale = np.max(np.abs(lu), axis=0)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot_mag = abs(lu[pivot_row, k])
        if pivot_mag <= PIVOT_RTOL * col_scale[k] or pivot_mag == 0.0:
            raise SingularMatrixError(k)
        if pivot_row != k:
            lu[[k, pivot_row]] = lu[[pivot_row, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def lu_factor(a: np.ndarray) -> LUFactors:
    """Factor a square matrix for solves and conditioning.

    Args:
        a: Square array-like with complex entries.

    Returns:
        LUFactors holding the inverse and the condition number.

    Raises:
        SingularMatrixError: if partial-pivot elimination finds, in some
            column, a best pivot no larger than PIVOT_RTOL times that
            column's original inf-norm.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inverse = np.full_like(a, np.nan)
    kappa = _inf_norm(a) * _inf_norm(inverse)
    if not kappa < _SCREEN_KAPPA:  # also when kappa is nan
        _pivot_scan(a)
    return LUFactors(inverse=inverse, condition=kappa if math.isfinite(kappa) else math.inf)


def lu_solve(factors: LUFactors, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the factorization of A."""
    return factors.inverse @ b


def condition_estimate(factors: LUFactors) -> float:
    """Infinity-norm condition number of the factored matrix.

    Exact rather than estimated: the factorization already holds A^-1.
    Returns math.inf if it overflows or loses meaning.
    """
    return factors.condition


class RandomSource:
    """Deterministic stream of unit-modulus complex numbers.

    Every random constant in the solver (start-system roots of unity offsets,
    hyperplane coefficients, multiplier columns, the accessory path constant)
    comes from one of these so a run is reproducible from its seed alone.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        seq = np.random.SeedSequence(entropy=self.seed)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def unit_complex(self) -> complex:
        """Draw one number uniformly from the unit circle."""
        angle = self._gen.uniform(0.0, 2.0 * math.pi)
        return complex(math.cos(angle), math.sin(angle))

    def unit_complex_array(self, count: int) -> np.ndarray:
        angles = self._gen.uniform(0.0, 2.0 * math.pi, size=count)
        return np.cos(angles) + 1j * np.sin(angles)
