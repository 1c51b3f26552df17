"""Path tracking: prediction, correction, endgame, and batch layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade import tracking
from polycascade.embedding import (CascadeHomotopy, StartHomotopy, embed,
                                   sample_parameters)
from polycascade.linalg import RandomSource, SingularMatrixError
from polycascade.polynomials import parse_system
from polycascade.start_systems import StartSystem, build_start_system
from polycascade.tracking import (PathStatus, TrackerConfig, euler_predict,
                                  newton_correct, refine_endpoint, track_batch,
                                  track_path)


def _quadratic_homotopy(seed=0):
    # target x^2 - 4 from start x^2 - c, both roots known in closed form
    f = parse_system("1\n*\nx1^2 - 4;\n")
    rng = RandomSource(seed)
    g = build_start_system(f, rng)
    gamma = rng.unit_complex()
    return StartHomotopy(embed(f, None, 0), g, gamma), g


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(newton_tol=-1)
    with pytest.raises(ValueError):
        TrackerConfig(step_min=0.5, step_max=0.1)
    with pytest.raises(ValueError):
        TrackerConfig(step_shrink=1.5)
    with pytest.raises(ValueError):
        TrackerConfig.from_dict({"no_such_knob": 1})
    cfg = TrackerConfig()
    assert TrackerConfig.from_dict(cfg.to_dict()) == cfg


def test_track_quadratic_to_known_roots():
    homotopy, g = _quadratic_homotopy(seed=3)
    cfg = TrackerConfig()
    results = track_batch(homotopy, list(g.roots()), cfg)
    assert len(results) == 2
    ends = sorted(complex(r.endpoint[0]).real for r in results)
    for r in results:
        assert r.status == PathStatus.CONVERGED
        assert r.residual < 1e-9
        assert abs(abs(complex(r.endpoint[0])) - 2.0) < 1e-8
    assert ends[0] == pytest.approx(-2.0, abs=1e-8)
    assert ends[1] == pytest.approx(2.0, abs=1e-8)


def test_newton_zero_iterations_at_exact_root():
    homotopy, _ = _quadratic_homotopy(seed=1)
    x = np.array([2.0 + 0.0j])
    corrected, iters, converged = newton_correct(homotopy, x, 0.0, TrackerConfig())
    assert converged and iters == 0
    assert abs(corrected[0] - 2.0) < 1e-12


def test_newton_iteration_count_from_factor_two_away():
    # x0 = 2.1 on x^2 - 4: quadratic convergence needs 3 steps to 1e-10
    f = parse_system("1\n*\nx1^2 - 4;\n")
    target = embed(f, None, 0)

    class _Plain:
        dim = 1
        def value(self, p, s):
            return target.evaluate(p)
        def jacobian(self, p, s):
            return target.jacobian(p)

    x = np.array([2.1 + 0.0j])
    corrected, iters, converged = newton_correct(_Plain(), x, 0.0, TrackerConfig())
    assert converged
    assert iters == 3
    assert abs(corrected[0] - 2.0) < 1e-14


def test_euler_prediction_stays_on_quadratic_path():
    homotopy, g = _quadratic_homotopy(seed=5)
    # closed form: gamma*s*(x^2-c) + (1-s)*(x^2-4) = 0 solved for x^2,
    # following the branch with positive real part
    c = g.constants[0]
    gamma = homotopy.gamma

    def path_point(s):
        x2 = (gamma * s * c + (1 - s) * 4.0) / (gamma * s + (1 - s))
        root = np.sqrt(x2)
        return root if root.real >= 0 else -root

    s = 0.8
    errors = []
    for h in (0.05, 0.025, 0.0125):
        predicted = euler_predict(homotopy, np.array([path_point(s)]), s, h)
        err = abs(predicted[0] - path_point(s - h))
        assert err < 20.0 * h * h
        errors.append(err)
    # halving the step divides the error by about four
    assert errors[1] <= 0.35 * errors[0]
    assert errors[2] <= 0.35 * errors[1]


@settings(max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(20, 80))
def test_euler_prediction_second_order(seed, s_percent):
    # halving the step shrinks the prediction error by about four
    homotopy, g = _quadratic_homotopy(seed=seed)
    cfg = TrackerConfig(newton_tol=1e-13, max_newton_iters=40)
    s = s_percent / 100.0
    x, _, ok = newton_correct(homotopy, np.array(g.root(0)), s, cfg)
    if not ok:
        return
    h = 0.01
    x_half, _, ok1 = newton_correct(homotopy, x, s - h, cfg)
    x_full, _, ok2 = newton_correct(homotopy, x, s - 2 * h, cfg)
    if not (ok1 and ok2):
        return
    if max(np.abs(x_half - x)) > 0.3 or max(np.abs(x_full - x)) > 0.6:
        return  # crossed a fold; the local expansion does not apply
    err_h = float(np.max(np.abs(euler_predict(homotopy, x, s, h) - x_half)))
    err_2h = float(np.max(np.abs(euler_predict(homotopy, x, s, 2 * h) - x_full)))
    if err_2h < 1e-12:
        return  # straight line, both errors at roundoff
    assert err_h <= 0.40 * err_2h + 1e-12


def test_refine_endpoint_regular_root():
    target = embed(parse_system("1\n*\nx1^2 - 4;\n"), None, 0)
    x = np.array([2.0 + 1e-5 + 1e-5j])
    refined, residual, condition, iters = refine_endpoint(
        target.evaluate, target.jacobian, x, TrackerConfig())
    assert abs(refined[0] - 2.0) < 1e-12
    assert residual < 1e-12
    assert condition < 100


def test_refine_endpoint_evaluates_each_iterate_once():
    target = embed(parse_system("1\n*\nx1^2 - 4;\n"), None, 0)
    calls = []

    def value_of(point):
        calls.append(point.copy())
        return target.evaluate(point)

    x = np.array([2.0 + 1e-3 + 1e-3j])
    refined, residual, _, iters = refine_endpoint(
        value_of, target.jacobian, x, TrackerConfig())
    assert abs(refined[0] - 2.0) < 1e-12 and residual < 1e-12
    # the start point plus one candidate per Newton step, none twice
    assert iters >= 2
    assert len(calls) == iters + 1
    assert len({complex(p[0]) for p in calls}) == len(calls)


def test_refine_endpoint_multiple_root_acceleration():
    # (x - 1)^3 = 0: plain Newton gains only factor 2/3 per step; the
    # multiplicity-scaled step must still reach full accuracy in the budget
    f = parse_system("1\n*\nx1^3 - 3*x1^2 + 3*x1 - 1;\n")
    target = embed(f, None, 0)
    x = np.array([1.01 + 0.005j])
    refined, residual, condition, _ = refine_endpoint(
        target.evaluate, target.jacobian, x, TrackerConfig())
    assert abs(refined[0] - 1.0) < 1e-5
    assert residual < 1e-13


def test_divergent_path_reported():
    # x1*x2 = 1, x1 = 0 forces one coordinate to infinity along the path
    f = parse_system("2\n*\nx1*x2 - 1;\nx1;\n")
    rng = RandomSource(4)
    g = build_start_system(f, rng)
    homotopy = StartHomotopy(embed(f, None, 0), g, rng.unit_complex())
    results = track_batch(homotopy, list(g.roots()), TrackerConfig())
    assert all(r.status == PathStatus.DIVERGED for r in results)
    for r in results:
        assert r.residual == np.inf and r.condition == np.inf


def test_batch_preserves_order_and_indices():
    homotopy, g = _quadratic_homotopy(seed=7)
    starts = list(g.roots())
    seq = track_batch(homotopy, starts, TrackerConfig(), threads=1)
    par = track_batch(homotopy, starts, TrackerConfig(), threads=4)
    assert [r.start_index for r in seq] == [0, 1]
    assert [r.start_index for r in par] == [0, 1]
    for a, b in zip(seq, par):
        assert np.array_equal(a.endpoint, b.endpoint)
        assert a.status == b.status and a.steps_taken == b.steps_taken


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_tracking_deterministic(seed):
    homotopy, g = _quadratic_homotopy(seed=seed)
    a = track_path(homotopy, g.root(0), TrackerConfig())
    b = track_path(homotopy, g.root(0), TrackerConfig())
    assert np.array_equal(a.endpoint, b.endpoint)
    assert a.status == b.status
    assert a.steps_taken == b.steps_taken and a.newton_iters == b.newton_iters


class _SingularStartLine:
    """Homotopy whose path is the line x(s) = s*b + (1-s)*a.

    Row k is (1-s)*d_k + s*d_k**2 with d = x - x(s), so the Jacobian
    diag((1-s) + 2*s*d) is exactly zero at the start point (s=1, x=b).
    """

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _offset(self, point, s):
        return point - (s * self.b + (1 - s) * self.a)

    def value(self, point, s):
        d = self._offset(point, s)
        return (1 - s) * d + s * d ** 2

    def jacobian(self, point, s):
        return np.diag((1 - s) + 2 * s * self._offset(point, s))

    def s_derivative(self, point, s):
        d = self._offset(point, s)
        return d ** 2 - d - np.diag(self.jacobian(point, s)) * (self.b - self.a)

    def target_residual(self, point):
        return float(np.max(np.abs(self.value(point, 0.0))))


def test_singular_predictor_jacobian_falls_back_to_the_corrector():
    a = np.array([0.5 - 0.25j, -1.0 + 0.5j])
    b = np.array([1.0 + 0.5j, 0.25 - 1.0j])
    homotopy = _SingularStartLine(a, b)
    with pytest.raises(SingularMatrixError):
        euler_predict(homotopy, b, 1.0, 0.05)
    result = track_path(homotopy, b, TrackerConfig())
    assert result.status == PathStatus.CONVERGED
    assert np.max(np.abs(result.endpoint - a)) < 1e-12


class _BrokenJacobian:
    """Quadratic homotopy whose Jacobian carries a non-finite entry."""

    def __init__(self, bad, dim):
        self.bad = bad
        self.dim = dim

    def value(self, point, s):
        return point ** 2 - 4.0

    def jacobian(self, point, s):
        out = np.diag(2.0 * point)
        out[0, -1] = self.bad
        return out


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                                 complex(0.0, np.nan)])
def test_newton_with_non_finite_jacobian_does_not_converge(bad, dim):
    homotopy = _BrokenJacobian(bad, dim)
    x = np.full(dim, 1.5 + 0.1j)
    _, _, converged = newton_correct(homotopy, x, 0.5, TrackerConfig())
    assert not converged


def _quadratic_start():
    homotopy, g = _quadratic_homotopy(seed=3)
    return homotopy, g.root(0)


def _level_one_start():
    # the level-1 -> 0 homotopy of a linear system, from F_1's one root
    f = parse_system("2\n*\n2*x1 + 3*x2 - 1;\nx1 - x2 + 1;\n")
    params = sample_parameters(2, RandomSource(5))
    f_1 = embed(f, params, 1)
    origin = np.zeros(2, dtype=np.complex128)
    root = np.linalg.solve(f_1.jacobian(origin), -f_1.evaluate(origin))
    return CascadeHomotopy(embed(f, params, 0)), root


@pytest.mark.parametrize("build", [_quadratic_start, _level_one_start])
def test_attempt_cap_fails_the_path(monkeypatch, build):
    homotopy, start = build()
    monkeypatch.setattr(tracking, "_MAX_ATTEMPTS", 3)
    result = track_path(homotopy, start, TrackerConfig())
    assert result.status == PathStatus.FAILED
    assert result.steps_taken <= 3
    assert 0.0 < result.t_reached < 1.0
    # failed() reports the target residual where the path stopped
    assert result.condition == np.inf
    assert 0.0 < result.residual == homotopy.target_residual(result.endpoint) < np.inf


def _line_to_100():
    # x1 - 100 from x1 - 1 with gamma = 1: the path is x(s) = s + 100*(1 - s)
    target = embed(parse_system("1\n*\nx1 - 100;\n"), None, 0)
    start = StartSystem(degrees=(1,), constants=np.array([1.0 + 0j]))
    return StartHomotopy(target, start, 1.0), start.root(0)


def test_landing_that_jumps_basins_fails_at_the_tracked_point():
    # the endgame stops at s = 0.5, x = 50.5; Newton lands on 100, a drift
    # of 49.5 against the allowed 0.25 * (1 + 50.5)
    homotopy, start = _line_to_100()
    result = track_path(homotopy, start, TrackerConfig(t_endgame=0.5))
    assert result.status == PathStatus.FAILED
    assert result.t_reached == 0.5
    assert abs(result.endpoint[0] - 50.5) < 1e-9
    assert result.condition == np.inf
    assert abs(result.residual - 49.5) < 1e-9


def test_landing_short_of_tolerance_fails_with_its_residual():
    # one refinement step from s = 1e-2 leaves a residual far above newton_tol
    homotopy, start = _quadratic_start()
    cfg = TrackerConfig(t_endgame=1e-2, endpoint_refine_iters=1)
    result = track_path(homotopy, start, cfg)
    assert result.status == PathStatus.FAILED
    assert result.t_reached == 1e-2
    assert abs(abs(result.endpoint[0]) - 2.0) < 1e-2
    assert 20.0 * cfg.newton_tol < result.residual < 1e-2
    assert result.residual == homotopy.target_residual(result.endpoint)
    assert result.condition < 10.0
