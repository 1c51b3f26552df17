"""Workloads of the polycascade benchmark: generated inputs and oracles.

Each workload turns the benchmark seed into a stream of operations.  One
operation is one call of the real command line, ``polycascade.cli.main``,
on an input file; the program sees only that file and a seed drawn from
the stream.  Every workload has an oracle that checks the report of each
operation against a census known independently of the program.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    """One operation: the CLI arguments plus what its oracle needs."""

    index: int
    command: str
    input_path: Path
    seed: int
    threads: int
    # dense quadrics only: {exponent tuple: coefficient} per equation
    equations: list = field(default_factory=list)

    def argv(self, report_path: Path, witness_path: Path) -> list:
        argv = [self.command, str(self.input_path), "--seed", str(self.seed),
                "--report", str(report_path), "--format", "json",
                "--threads", str(self.threads)]
        if self.command == "cascade":
            argv += ["--witness", str(witness_path)]
        return argv


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _vec(pairs) -> np.ndarray:
    return np.array([_c(p) for p in pairs], dtype=np.complex128)


def _witness_set(report: dict, level: int) -> dict | None:
    for ws in report.get("witness_sets", []):
        if ws["level"] == level:
            return ws
    return None


def _max_dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


# -- cyclic-4 ---------------------------------------------------------------

def _cyclic4_slice_points(constant: complex, coeffs: np.ndarray) -> list:
    """The four points where a hyperplane meets the cyclic-4 curves.

    The solution set is covered by (a, b, -a, -b) with ab = 1 or ab = -1,
    so the slice c + sum alpha_j x_j = 0 becomes one quadratic in a per
    branch.
    """
    lead = coeffs[0] - coeffs[2]
    trail = coeffs[1] - coeffs[3]
    points = []
    for k in (1.0, -1.0):
        for a in np.roots([lead, constant, trail * k]):
            b = k / a
            points.append(np.array([a, b, -a, -b], dtype=np.complex128))
    return points


def check_cyclic4(report: dict, op: Op) -> list:
    """Top dimension 1, four witness points on the two curves, nothing isolated."""
    problems = []
    if report.get("top_dimension") != 1:
        problems.append(f"top dimension {report.get('top_dimension')}, expected 1")
    if report.get("isolated_solutions"):
        problems.append(f"{len(report['isolated_solutions'])} isolated solutions, expected 0")
    ws = _witness_set(report, 1)
    points = [] if ws is None else ws["points"]
    if len(points) != 4:
        problems.append(f"{len(points)} witness points at dim 1, expected 4")
    elif len(ws["slices"]) == 1:
        sl = ws["slices"][0]
        oracle = _cyclic4_slice_points(_c(sl["constant"]), _vec(sl["coefficients"]))
        matched = set()
        for p in points:
            x = _vec(p["coordinates"])
            dists = [_max_dist(x, q) for q in oracle]
            best = int(np.argmin(dists))
            if dists[best] <= report["config"]["cluster_tol"]:
                matched.add(best)
        if len(matched) != 4:
            problems.append(f"dim-1 witness points match {len(matched)} of the "
                            f"4 closed-form slice points")
    else:
        problems.append(f"{len(ws['slices'])} slices at dim 1, expected 1")
    return problems


# -- sphere union point -----------------------------------------------------

SPHERE_POINT = (2.0, 3.0, 4.0)


def check_sphere_point(report: dict, op: Op) -> list:
    """Top dimension 2 with two sphere witnesses; (2,3,4) the one isolated point.

    Points of the sphere that turn up in the dim-1 superset or unresolved at
    level 0 are junk the report's superset label allows, not failures.
    """
    problems = []
    tol = report["config"]["cluster_tol"]
    if report.get("top_dimension") != 2:
        problems.append(f"top dimension {report.get('top_dimension')}, expected 2")
    ws = _witness_set(report, 2)
    points = [] if ws is None else ws["points"]
    if len(points) != 2:
        problems.append(f"{len(points)} witness points at dim 2, expected 2")
    for p in points:
        x = _vec(p["coordinates"])
        if abs(complex(np.sum(x * x)) - 1.0) > tol:
            problems.append("a dim-2 witness point is off the unit sphere")
    isolated = report.get("isolated_solutions", [])
    if len(isolated) != 1:
        problems.append(f"{len(isolated)} isolated solutions, expected 1")
    elif _max_dist(_vec(isolated[0]["coordinates"]), np.array(SPHERE_POINT)) > tol:
        problems.append("the isolated solution is not (2, 3, 4)")
    return problems


# -- dense quadrics ---------------------------------------------------------

DENSE_VARS = 5
# every exponent vector of total degree at most 2: 1 + 5 + 15 = 21 monomials
DENSE_MONOMIALS = [e for d in range(3)
                   for e in itertools.product(range(d + 1), repeat=DENSE_VARS)
                   if sum(e) == d]


def dense_quadrics(rng: random.Random) -> list:
    """Five quadrics in five variables, each with all 21 monomials.

    Coefficients are i.i.d. standard complex Gaussians, so the system has
    2^5 = 32 regular isolated solutions with probability one.
    """
    scale = 1.0 / math.sqrt(2.0)
    return [{e: complex(rng.gauss(0.0, scale), rng.gauss(0.0, scale))
             for e in DENSE_MONOMIALS}
            for _ in range(DENSE_VARS)]


def _monomial_text(e: tuple) -> str:
    factors = [f"x{k + 1}" if p == 1 else f"x{k + 1}^{p}"
               for k, p in enumerate(e) if p]
    return "*".join(factors)


def format_dense(equations: list) -> str:
    lines = [
        "# Why this workload exists: dense quadrics have only regular paths,",
        "# with no divergence, no endgame and no cascade, and they make",
        "# polynomial evaluation the largest share of the time.",
        str(DENSE_VARS), "*"]
    for eq in equations:
        terms = []
        for e, c in eq.items():
            coeff = f"({c.real!r} + {c.imag!r}*i)"
            mono = _monomial_text(e)
            terms.append(f"{coeff}*{mono}" if mono else coeff)
        lines.append(" + ".join(terms) + ";")
    return "\n".join(lines) + "\n"


def evaluate_dense(equations: list, x: np.ndarray) -> np.ndarray:
    return np.array([sum(c * np.prod(x ** np.array(e)) for e, c in eq.items())
                     for eq in equations])


def check_dense(report: dict, op: Op) -> list:
    """32 distinct isolated solutions that satisfy the generated system."""
    problems = []
    cfg = report["config"]
    solutions = [_vec(p["coordinates"]) for p in report.get("isolated_solutions", [])]
    if len(solutions) != 2 ** DENSE_VARS:
        problems.append(f"{len(solutions)} isolated solutions, expected {2 ** DENSE_VARS}")
    for k, x in enumerate(solutions):
        residual = float(np.max(np.abs(evaluate_dense(op.equations, x))))
        if residual > cfg["residual_tol"]:
            problems.append(f"solution {k} has residual {residual:.2e}")
    for a, b in itertools.combinations(range(len(solutions)), 2):
        if _max_dist(solutions[a], solutions[b]) <= cfg["cluster_tol"]:
            problems.append(f"solutions {a} and {b} coincide")
    if report.get("unresolved_level0"):
        problems.append(f"{len(report['unresolved_level0'])} unresolved endpoints, expected 0")
    diverged = sum(row["diverged"] for row in report.get("levels", []))
    if diverged:
        problems.append(f"{diverged} diverged paths, expected 0")
    if "top_dimension" in report:
        problems.append("a solve report carries a top dimension")
    return problems


# -- the workload table -----------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    oracle: Callable[[dict, Op], list]
    # operations 0 .. measured_ops-1 of the stream: every run makes at least
    # these, and the gated wall time is their median, so a faster program
    # and a slower one are compared on the same inputs
    measured_ops: int
    system: str | None = None  # fixed input file; None means generated

    def make_op(self, rng: random.Random, index: int, workdir: Path) -> Op:
        """Draw operation `index` of the stream; call with index 0, 1, ... in order."""
        seed = rng.randrange(1, 2 ** 32)
        if self.system is not None:
            return Op(index, self.command, CHECKOUT / self.system, seed, self.threads)
        equations = dense_quadrics(rng)
        path = workdir / f"dense-{index}.sys"
        path.write_text(format_dense(equations), encoding="utf-8")
        return Op(index, self.command, path, seed, self.threads, equations)

    def check(self, report: dict, op: Op) -> list:
        if report.get("kind") != self.command:
            return [f"report kind {report.get('kind')!r}, expected {self.command!r}"]
        return self.oracle(report, op)


WORKLOADS = {w.name: w for w in [
    # all four cascade levels, 56 of 80 paths recycled, 16 singular endgames
    # and 7x7 embedded Jacobians, where linalg and embedding weigh most
    Workload("cyclic4-cascade", "cascade", 1, check_cyclic4, 4,
             system="systems/cyclic4.sys"),
    # 20 of 27 top paths diverge; the only dim-2 component and lower-superset junk
    Workload("sphere-point-cascade", "cascade", 1, check_sphere_point, 4,
             system="perfbench/inputs/sphere_point.sys"),
    # regular paths only; polynomial evaluation dominates, no cascade layer
    Workload("dense-solve", "solve", 1, check_dense, 9),
    # the dense-solve inputs on two tracking threads: the track_batch pool
    Workload("dense-solve-t2", "solve", 2, check_dense, 5),
]}
