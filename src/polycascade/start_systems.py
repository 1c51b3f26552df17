"""Total-degree start systems with closed-form roots.

The start system paired with a target of degrees (d_1..d_n) is

    g_k(x) = x_k^{d_k} - c_k,   |c_k| = 1 random,

whose roots are all combinations of d_k-th roots of the c_k.  Every level
system of the cascade is n equations in the n variables x, so the same
construction serves its top level and a plain solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import RandomSource


class ZeroPolynomialError(ValueError):
    """An identically-zero equation has no meaningful start degree."""


@dataclass(frozen=True, eq=False)
class StartSystem:
    """g(x) = x**degrees - constants, componentwise."""

    degrees: tuple[int, ...]
    constants: np.ndarray
    _principal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.degrees) != self.constants.shape[0]:
            raise ValueError("degrees and constants must have equal length")
        if any(d < 1 for d in self.degrees):
            raise ValueError("start degrees must be positive")
        if self.root_count > sys.maxsize:
            raise OverflowError(f"{self.root_count} start paths are too many to enumerate")
        d = np.array(self.degrees, dtype=np.float64)
        # principal d-th roots; the remaining roots differ by roots of unity
        object.__setattr__(self, "_principal", self.constants ** (1.0 / d))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def root_count(self) -> int:
        return math.prod(self.degrees)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return x ** np.array(self.degrees) - self.constants

    def diagonal_jacobian(self, x: np.ndarray) -> np.ndarray:
        """The diagonal d_k * x_k**(d_k - 1); the Jacobian is zero elsewhere."""
        x = np.asarray(x, dtype=np.complex128)
        d = np.array(self.degrees)
        return d * x ** (d - 1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.diag(self.diagonal_jacobian(x))

    def root(self, index: int) -> np.ndarray:
        """Root number index in mixed-radix order over the degrees."""
        if not 0 <= index < self.root_count:
            raise IndexError(f"root index {index} out of range")
        out = np.empty(self.n, dtype=np.complex128)
        rem = index
        for k in range(self.n - 1, -1, -1):
            d = self.degrees[k]
            rem, digit = divmod(rem, d)
            angle = 2.0 * math.pi * digit / d
            out[k] = self._principal[k] * complex(math.cos(angle), math.sin(angle))
        return out

    def roots(self):
        for index in range(self.root_count):
            yield self.root(index)


def build_start_system(target, rng: RandomSource) -> StartSystem:
    """Build the total-degree start system for a target.

    Args:
        target: PolynomialSystem-like with a degrees() method.
        rng: source for the unit-modulus constants.

    Raises:
        ZeroPolynomialError: if any equation is identically zero (degree
            sentinel -1).
    """
    degs = target.degrees()
    for k, d in enumerate(degs):
        if d < 0:
            raise ZeroPolynomialError(f"equation {k + 1} is identically zero")
    # a nonzero-constant row still gets one path; it can only diverge
    return StartSystem(degrees=tuple(max(int(d), 1) for d in degs),
                       constants=rng.unit_complex_array(len(degs)))
