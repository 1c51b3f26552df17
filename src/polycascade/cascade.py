"""Cascade driver: witness supersets and isolated solutions per level.

The run makes one pass per level, from the top level down, tracking x alone
(see embedding).  The top pass starts from a total-degree start system, and
each pass below it from the nonsingular endpoints of the pass above, off its
slices.  At each level the converged endpoints on all of its slices form the
witness superset for that dimension; level 0 collects isolated solutions.
The top dimension of the solution set is the largest level whose verified
witness superset is nonempty.  A plain total-degree solve is the same run
with no slices: its one pass is level 0, where F_0 is f itself.

Since no equation is identically zero the solution set has dimension at
most n-1, so the cascade starts at level n-1; the level-n system can have
no witness points at all and would only add start paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .embedding import (CascadeHomotopy, EmbeddedSystem, ParameterSample,
                        StartHomotopy, embed, sample_parameters)
from .linalg import RandomSource
from .polynomials import PolynomialSystem
from .start_systems import ZeroPolynomialError, build_start_system
from .tracking import (PathResult, PathStatus, TrackerConfig, _Settings,
                       refine_endpoint, track_batch)


class NonSquareSystemError(ValueError):
    """The solver needs as many equations as variables."""


@dataclass
class CascadeConfig(_Settings):
    """Thresholds and run controls for classification and clustering."""

    tol_z: float = 1e-8
    cond_max: float = 1e8
    cluster_tol: float = 1e-6
    residual_tol: float = 1e-8
    seed: int = 0
    threads: int = 1
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def __post_init__(self):
        if isinstance(self.tracker, dict):
            self.tracker = TrackerConfig.from_dict(self.tracker)
        if not isinstance(self.tracker, TrackerConfig):
            raise TypeError("tracker must be a TrackerConfig or a dict of its settings")
        self._check_types()
        if self.tol_z <= 0 or self.cluster_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tol_z >= self.cluster_tol:
            raise ValueError("tol_z must be smaller than cluster_tol")
        if self.cond_max <= 1:
            raise ValueError("cond_max must exceed 1")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in 64 bits")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


class SolutionClass(str, Enum):
    ON_COMPONENT = "on_component"
    NONSINGULAR_SLACK = "nonsingular_slack"
    DIVERGED = "diverged"
    SINGULAR_UNRESOLVED = "singular_unresolved"


def classify_endpoint(result: PathResult, slices: np.ndarray,
                      cfg: CascadeConfig) -> SolutionClass:
    """Assign a path endpoint to its bucket at the level of its slices.

    slices holds L_1..L_i at a level-i endpoint (the paper's slacks, up to
    sign), and the endpoint lies on a component when all of them vanish.
    Level-0 endpoints have no slices and split into nonsingular (isolated
    solution candidates) and unresolved.  Failed paths are unresolved by
    definition.
    """
    if result.status == PathStatus.DIVERGED:
        return SolutionClass.DIVERGED
    if result.status == PathStatus.FAILED:
        return SolutionClass.SINGULAR_UNRESOLVED
    if len(slices) and float(np.max(np.abs(slices))) <= cfg.tol_z:
        return SolutionClass.ON_COMPONENT
    if result.condition <= cfg.cond_max and result.residual <= cfg.residual_tol:
        return SolutionClass.NONSINGULAR_SLACK
    return SolutionClass.SINGULAR_UNRESOLVED


@dataclass(eq=False)
class WitnessPoint:
    """A clustered endpoint in x-coordinates."""

    x: np.ndarray
    multiplicity: int
    residual: float
    condition: float

    def __repr__(self) -> str:
        return (f"WitnessPoint(x={np.round(self.x, 6)}, mult={self.multiplicity}, "
                f"residual={self.residual:.2e}, condition={self.condition:.2e})")


@dataclass(eq=False)
class WitnessSuperset:
    """Witness candidates at one dimension.

    Every stored point satisfies the base system and the first level
    effective hyperplanes of the run's parameters to the class tolerance.
    Points of higher-dimensional components may still be present below the
    top dimension.
    """

    level: int
    points: list
    filtered_out: int = 0


@dataclass
class LevelStats:
    level: int
    n_paths: int
    on_component: int
    regular: int
    diverged: int
    unresolved: int
    wall_ms: float


@dataclass(eq=False)
class CascadeOutput:
    """One run; a solve has no supersets and its parameters are None."""

    supersets: list
    isolated_solutions: list
    unresolved_level0: list
    stats: list
    top_dimension: int | None
    parameters: ParameterSample | None
    gamma: complex
    start_constants: np.ndarray
    total_paths: int
    seed: int
    # the level-0 path results, in start order
    results: list = field(default_factory=list)


def cluster_points(points: list, tol: float) -> list:
    """Single-linkage clusters under the max-norm; returns index lists."""
    count = len(points)
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(count):
        for b in range(a + 1, count):
            if float(np.max(np.abs(points[a] - points[b]))) <= tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict = {}
    for a in range(count):
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values(), key=lambda g: g[0])


def _witness(result: PathResult, multiplicity: int) -> WitnessPoint:
    return WitnessPoint(x=result.endpoint.copy(),
                        multiplicity=multiplicity, residual=float(result.residual),
                        condition=float(result.condition))


def cluster_witnesses(results: list, cfg: CascadeConfig) -> list:
    """Merge coincident endpoints; multiplicity is the cluster size.

    The representative is the residual-minimizing member, already refined by
    the tracker's endgame.
    """
    xs = [r.endpoint for r in results]
    return [_witness(min((results[k] for k in group), key=lambda r: r.residual), len(group))
            for group in cluster_points(xs, cfg.cluster_tol)]


def verify_witness(x: np.ndarray, system: EmbeddedSystem, cfg: CascadeConfig) -> dict:
    """Re-check a witness point against a compiled level system F_level.

    Evaluates f(x) and the level's slices afresh and re-runs Newton
    refinement on F_level from x; a genuine witness stays put and keeps all
    residuals below the class tolerance.
    """
    residual = float(np.max(np.abs(system.base.evaluate(x))))
    slices = system.params.slice_values(x, system.level) if system.level else ()
    slice_residual = float(np.max(np.abs(slices), initial=0.0))
    refined, _, _, _ = refine_endpoint(system.evaluate, system.jacobian, x, cfg.tracker)
    drift = float(np.max(np.abs(refined - x)))
    passed = (residual <= cfg.residual_tol
              and slice_residual <= cfg.residual_tol
              and drift <= cfg.cluster_tol)
    return {"pass": passed, "residual": residual,
            "slice_residual": slice_residual, "drift": drift}


def _require_square(f: PolynomialSystem) -> None:
    if not f.is_square():
        raise NonSquareSystemError(
            f"system has {f.n_polys} equations in {f.n_vars} variables")


def _validate_input(f: PolynomialSystem) -> None:
    _require_square(f)
    for k, d in enumerate(f.degrees()):
        if d < 0:
            raise ZeroPolynomialError(f"equation {k + 1} is identically zero")


def _run(f: PolynomialSystem, cfg: CascadeConfig, sliced: bool) -> CascadeOutput:
    """Track from the top level down to level 0, where F_0 is f itself.

    The top level is n-1 with slices and 0 without: a plain total-degree solve.
    Each level system F_i is compiled once, for its homotopy and its verifier.
    """
    _validate_input(f)
    rng = RandomSource(cfg.seed)
    params = sample_parameters(f.n_vars, rng) if sliced else None
    top = f.n_vars - 1 if sliced else 0

    t0 = time.perf_counter()
    system = embed(f, params, top)
    start = build_start_system(system, rng)
    gamma = rng.unit_complex()
    homotopy = StartHomotopy(system, start, gamma)
    starts = list(start.roots())
    supersets = []
    stats = []
    for level in range(top, -1, -1):
        # with no nonsingular endpoints above, a level gets an empty row
        results = []
        if starts:
            results = track_batch(homotopy, starts, cfg.tracker, threads=cfg.threads)
        by_class: dict = {c: [] for c in SolutionClass}
        for r in results:
            slices = params.slice_values(r.endpoint, level) if level else ()
            by_class[classify_endpoint(r, slices, cfg)].append(r)
        on_component = by_class[SolutionClass.ON_COMPONENT]
        regular = by_class[SolutionClass.NONSINGULAR_SLACK]
        if level:
            witnesses = cluster_witnesses(on_component, cfg)
            kept = [w for w in witnesses if verify_witness(w.x, system, cfg)["pass"]]
            supersets.append(WitnessSuperset(level=level, points=kept,
                                             filtered_out=len(witnesses) - len(kept)))
        else:
            # A cluster of several converged paths is a multiple solution no
            # matter how tame its condition number looks (the Jacobian can
            # stay scale-balanced on the approach), so only singletons are
            # isolated; the other members join the unresolved endpoints.
            groups = cluster_points([r.endpoint for r in regular], cfg.cluster_tol)
            pool = by_class[SolutionClass.SINGULAR_UNRESOLVED]
            pool += [regular[k] for g in groups if len(g) > 1 for k in g]
            regular = [regular[g[0]] for g in groups if len(g) == 1]
            isolated = [_witness(r, 1) for r in regular]
            unresolved0 = cluster_witnesses(pool, cfg)
        diverged = len(by_class[SolutionClass.DIVERGED])
        stats.append(LevelStats(
            level=level, n_paths=len(results), on_component=len(on_component),
            regular=len(regular), diverged=diverged,
            unresolved=len(results) - len(on_component) - len(regular) - diverged,
            wall_ms=(time.perf_counter() - t0) * 1000.0))

        if level:
            t0 = time.perf_counter()
            system = embed(f, params, level - 1)
            homotopy = CascadeHomotopy(system)
            starts = [r.endpoint for r in regular]

    top_dimension = max((ws.level for ws in supersets if ws.points), default=None)
    if top_dimension is None and isolated:
        top_dimension = 0

    return CascadeOutput(
        supersets=supersets, isolated_solutions=isolated,
        unresolved_level0=unresolved0, stats=stats, top_dimension=top_dimension,
        parameters=params, gamma=gamma, start_constants=start.constants.copy(),
        total_paths=sum(row.n_paths for row in stats), seed=cfg.seed, results=results)


def run_cascade(f: PolynomialSystem, cfg: CascadeConfig) -> CascadeOutput:
    """Run the full cascade on a square system with no zero equations."""
    return _run(f, cfg, sliced=True)


def solve_total_degree(f: PolynomialSystem, cfg: CascadeConfig) -> CascadeOutput:
    """Plain total-degree homotopy against f itself, no embedding."""
    return _run(f, cfg, sliced=False)
