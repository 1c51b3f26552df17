"""Predictor-corrector tracking of homotopy paths from s=1 to s=0.

A homotopy object supplies value(point, s), jacobian(point, s),
s_derivative(point, s) and target_residual(point) for the s=0 system.  The
tracker reads nothing else: what the coordinates of an endpoint mean is the
caller's business.  It runs Euler prediction with Newton correction and an
adaptive step capped relative to the remaining distance, so the approach to
s=0 is geometric and the accepted points in the endgame window s <= 1e-3,
the only ones the tracker records, span several decades of s.  At the
endgame boundary a path is either flagged as escaping to infinity (its norm
over the window grows like a negative power of s) or polished by Newton
iteration at s=0 directly, with multiplicity-accelerated steps when the
correction ratios stall at the linear rate (mu-1)/mu typical of a multiple
solution.  A path whose step underflows ends the same way, from the point it
stalled at.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .linalg import SingularMatrixError, condition_estimate, lu_factor, lu_solve

# hard cap on predictor attempts per path, accepted or not
_MAX_ATTEMPTS = 20000
# accepted points with s at or below this feed the escape-rate fit
_GROWTH_WINDOW = 1e-3
# log-log slope at least this steep (norm growing as s shrinks) reads as escape
_GROWTH_SLOPE = -0.2
# and the endgame norm must have left the region where endpoints live
_GROWTH_NORM_FLOOR = 10.0


class _Settings:
    """Dict round trip and field checks shared by the config dataclasses."""

    def _check_types(self) -> None:
        """int fields take an int, float fields a finite int or float; no bool."""
        for f in fields(self):
            kind = {"int": int, "float": (int, float)}.get(getattr(f.type, "__name__", f.type))
            value = getattr(self, f.name)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise TypeError(f"{f.name} must be {f.type}, not {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                # NaN fails every range comparison
                raise ValueError(f"{f.name} must be finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            kind = cls.__name__.removesuffix("Config").lower()
            raise ValueError(f"unknown {kind} settings: {sorted(unknown)}")
        return cls(**data)


@dataclass
class TrackerConfig(_Settings):
    """Step-control and tolerance knobs for path tracking."""

    newton_tol: float = 1e-10
    max_newton_iters: int = 4
    step_initial: float = 0.05
    step_min: float = 1e-12
    step_max: float = 0.1
    step_expand: float = 2.0
    step_shrink: float = 0.5
    divergence_threshold: float = 1e8
    t_endgame: float = 1e-8
    endpoint_refine_iters: int = 10

    def __post_init__(self):
        self._check_types()
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if not (0 < self.step_min <= self.step_initial <= self.step_max):
            raise ValueError("need 0 < step_min <= step_initial <= step_max")
        if self.step_expand <= 1.0:
            raise ValueError("step_expand must exceed 1")
        if not 0 < self.step_shrink < 1:
            raise ValueError("step_shrink must lie in (0, 1)")
        if self.divergence_threshold <= 0:
            raise ValueError("divergence_threshold must be positive")
        if not 0 < self.t_endgame < 1:
            raise ValueError("t_endgame must lie in (0, 1)")
        if self.endpoint_refine_iters < 0:
            raise ValueError("endpoint_refine_iters must be nonnegative")


class PathStatus(str, Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    FAILED = "failed"


@dataclass(eq=False)
class PathResult:
    """Outcome of tracking a single path."""

    endpoint: np.ndarray
    status: PathStatus
    residual: float
    condition: float
    steps_taken: int
    t_reached: float
    start_index: int = -1
    newton_iters: int = 0


def newton_correct(homotopy, point: np.ndarray, s: float, config: TrackerConfig):
    """Newton iteration on H(., s) = 0 from point.

    Returns (corrected point, iterations spent, converged flag).  The count
    is the number of steps taken before the terminal update fell below the
    tolerance, so an exact root costs zero.
    """
    x = np.asarray(point, dtype=np.complex128).copy()
    for it in range(config.max_newton_iters):
        value = homotopy.value(x, s)
        if not np.all(np.isfinite(value)):
            return x, it, False
        try:
            factors = lu_factor(homotopy.jacobian(x, s))
        except SingularMatrixError:
            return x, it, False
        delta = lu_solve(factors, -value)
        if not np.all(np.isfinite(delta)):
            return x, it, False
        x += delta
        scale = max(1.0, float(np.max(np.abs(x))))
        if float(np.max(np.abs(delta))) <= config.newton_tol * scale:
            return x, it, True
    return x, config.max_newton_iters, False


def euler_predict(homotopy, point: np.ndarray, s: float, h: float) -> np.ndarray:
    """First-order prediction of the path point at s - h."""
    factors = lu_factor(homotopy.jacobian(point, s))
    xdot = lu_solve(factors, -homotopy.s_derivative(point, s))
    return point - h * xdot


def _stable_ratio(ratios: list) -> float | None:
    """Last correction ratio if the recent ones agree; None otherwise."""
    if len(ratios) < 2:
        return None
    r1, r2 = ratios[-2], ratios[-1]
    if abs(r1 - r2) > 0.08:
        return None
    if not 0.25 <= r2 <= 0.97:
        return None
    return r2


def refine_endpoint(value_of, jacobian_of, point: np.ndarray, config: TrackerConfig):
    """Polish a point against the system with the given value and Jacobian.

    Plain Newton handles regular endpoints; at a multiple solution the
    correction norms decay by the fixed factor (mu-1)/mu, which is detected
    and answered with a step scaled by mu (kept only when it actually lowers
    the residual).  Returns (point, residual, condition, iterations).
    """
    x = np.asarray(point, dtype=np.complex128).copy()

    def evaluated(pt):
        value = value_of(pt)
        if not np.all(np.isfinite(value)):
            return value, math.inf
        return value, float(np.max(np.abs(value)))

    best_x = x.copy()
    value, best_res = evaluated(x)
    ratios: list = []
    prev_norm = None
    iters = 0
    for _ in range(config.endpoint_refine_iters):
        try:
            factors = lu_factor(jacobian_of(x))
        except SingularMatrixError:
            break
        delta = lu_solve(factors, -value)
        if not np.all(np.isfinite(delta)):
            break
        norm = float(np.max(np.abs(delta)))
        if prev_norm is not None and prev_norm > 0:
            ratios.append(norm / prev_norm)
        prev_norm = norm
        iters += 1

        candidate = x + delta
        cand_value, cand_res = evaluated(candidate)
        ratio = _stable_ratio(ratios)
        if ratio is not None:
            mu = int(np.clip(round(1.0 / (1.0 - ratio)), 2, 8))
            scaled = x + mu * delta
            scaled_value, scaled_res = evaluated(scaled)
            if scaled_res < cand_res:
                candidate, cand_value, cand_res = scaled, scaled_value, scaled_res
                ratios.clear()
                prev_norm = None
        x, value = candidate, cand_value
        if cand_res < best_res:
            best_x, best_res = x.copy(), cand_res
        scale = max(1.0, float(np.max(np.abs(x))))
        if norm <= config.newton_tol * scale and cand_res <= config.newton_tol * scale:
            break

    try:
        condition = condition_estimate(lu_factor(jacobian_of(best_x)))
    except SingularMatrixError:
        condition = math.inf
    return best_x, best_res, condition, iters


def _looks_divergent(window: list, norm_end: float, config: TrackerConfig) -> bool:
    """Past the threshold, or above the floor and growing as s shrinks.

    The growth is the log-log slope of |x| against s fitted over the window.
    """
    if norm_end > config.divergence_threshold:
        return True
    if norm_end < _GROWTH_NORM_FLOOR:
        return False
    pts = [(s, n) for s, n in window if n > 0.0]
    if len(pts) < 4:
        return False
    logs = np.log10([s for s, _ in pts])
    if logs.max() - logs.min() < 2.0:
        return False
    lognorms = np.log10([n for _, n in pts])
    return float(np.polyfit(logs, lognorms, 1)[0]) <= _GROWTH_SLOPE


def track_path(homotopy, start_point: np.ndarray, config: TrackerConfig,
               start_index: int = -1) -> PathResult:
    """Track one path of the homotopy from s=1 down to its endpoint."""
    x = np.asarray(start_point, dtype=np.complex128).copy()
    s = 1.0
    step = config.step_initial
    steps_taken = 0
    newton_total = 0
    window: list = []  # (s, |x|) of the accepted points with s <= _GROWTH_WINDOW

    def finish(status, at_x, at_s, residual=math.inf, condition=math.inf):
        return PathResult(endpoint=at_x, status=status, residual=residual,
                          condition=condition, steps_taken=steps_taken,
                          t_reached=at_s, start_index=start_index,
                          newton_iters=newton_total)

    def failed(at_x, at_s):
        try:
            residual = homotopy.target_residual(at_x)
        except ArithmeticError:
            residual = math.inf
        return finish(PathStatus.FAILED, at_x, at_s,
                      residual if math.isfinite(residual) else math.inf)

    attempts = 0
    while s > config.t_endgame:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            return failed(x, s)
        # never step past the endgame boundary; approach it geometrically
        h = min(step, 0.9 * s)
        s_new = s - h
        if s_new < config.t_endgame:
            s_new = config.t_endgame
            h = s - s_new

        try:
            x_pred = euler_predict(homotopy, x, s, h)
        except SingularMatrixError:
            # no tangent at a singular point: let the corrector start from x
            x_pred = x

        if np.all(np.isfinite(x_pred)):
            if float(np.max(np.abs(x_pred))) > config.divergence_threshold:
                return finish(PathStatus.DIVERGED, x_pred, s_new)
            x_new, iters, converged = newton_correct(homotopy, x_pred, s_new, config)
            newton_total += iters
            if converged:
                x, s = x_new, s_new
                steps_taken += 1
                if s <= _GROWTH_WINDOW:
                    window.append((s, float(np.max(np.abs(x)))))
                if iters <= max(1, config.max_newton_iters // 2):
                    step = min(step * config.step_expand, config.step_max)
                continue

        step *= config.step_shrink
        if step < config.step_min:
            break

    # endgame or stalled step: identify escapes before trying to land on
    # the target system
    if _looks_divergent(window, float(np.max(np.abs(x))), config):
        return finish(PathStatus.DIVERGED, x, s)
    # polish against the s=0 system; endpoints of singular paths stall
    # short of the boundary but still sit inside the refiner's basin
    x_ref, residual, condition, iters = refine_endpoint(
        lambda p: homotopy.value(p, 0.0), lambda p: homotopy.jacobian(p, 0.0), x, config)
    newton_total += iters
    if float(np.max(np.abs(x_ref - x))) > 0.25 * (1.0 + float(np.max(np.abs(x)))):
        # refinement jumped basins; keep the tracked point, unresolved
        return failed(x, s)
    scale = max(1.0, float(np.max(np.abs(x_ref))))
    if residual <= 10.0 * config.newton_tol * scale:
        return finish(PathStatus.CONVERGED, x_ref, 0.0, residual, condition)
    return finish(PathStatus.FAILED, x_ref, s, residual, condition)


def track_batch(homotopy, starts, config: TrackerConfig, threads: int = 1) -> list:
    """Track every start point; results keep the order of the starts."""
    starts = list(starts)
    if threads <= 1 or len(starts) <= 1:
        return [track_path(homotopy, pt, config, start_index=k)
                for k, pt in enumerate(starts)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(track_path, homotopy, pt, config, k)
                   for k, pt in enumerate(starts)]
        return [f.result() for f in futures]
