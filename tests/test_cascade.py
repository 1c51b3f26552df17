"""Cascade orchestration: classification, clustering, and run invariants."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade import cascade
from polycascade.cascade import (CascadeConfig, NonSquareSystemError,
                                 SolutionClass, classify_endpoint, cluster_points,
                                 cluster_witnesses, run_cascade,
                                 solve_total_degree, verify_witness)
from polycascade.embedding import StartHomotopy, embed, sample_parameters
from polycascade.linalg import RandomSource
from polycascade.polynomials import PolynomialSystem, load_system, parse_system
from polycascade.start_systems import ZeroPolynomialError, build_start_system
from polycascade.tracking import PathResult, PathStatus, TrackerConfig, track_batch

from helpers import generic_square_systems_st

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
WORKED = "2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n"
LINEAR = "2\n*\n2*x1 + 3*x2 - 1;\nx1 - x2 + 1;\n"


def _result(status=PathStatus.CONVERGED, residual=1e-14, condition=10.0, endpoint=None):
    if endpoint is None:
        endpoint = np.array([0.3, -0.2], dtype=np.complex128)
    return PathResult(endpoint=endpoint, status=status, residual=residual,
                      condition=condition, steps_taken=5, t_reached=0.0)


def _slices(*values):
    # the slice values L_1..L_i of a level-i endpoint; none at level 0
    return np.array(values, dtype=np.complex128)


class TestClassification:
    CFG = CascadeConfig()

    def test_diverged_passes_through(self):
        r = _result(status=PathStatus.DIVERGED, residual=np.inf, condition=np.inf)
        assert classify_endpoint(r, _slices(0.0), self.CFG) == SolutionClass.DIVERGED
        assert classify_endpoint(r, _slices(), self.CFG) == SolutionClass.DIVERGED

    def test_failed_is_unresolved(self):
        r = _result(status=PathStatus.FAILED, residual=1e-3)
        assert classify_endpoint(r, _slices(0.0, 0.0), self.CFG) == \
            SolutionClass.SINGULAR_UNRESOLVED

    def test_exact_zero_slack_is_on_component(self):
        r = _result()
        assert classify_endpoint(r, _slices(0.0), self.CFG) == SolutionClass.ON_COMPONENT
        assert classify_endpoint(r, _slices(0.0, 0.0), self.CFG) == SolutionClass.ON_COMPONENT

    def test_zero_slack_beats_bad_condition(self):
        # a witness point may be singular for the level system; the slice
        # rule must fire before the condition gate
        r = _result(condition=1e12)
        assert classify_endpoint(r, _slices(1e-12j), self.CFG) == SolutionClass.ON_COMPONENT

    def test_nonzero_slack_regular(self):
        r = _result()
        assert classify_endpoint(r, _slices(0.5), self.CFG) == SolutionClass.NONSINGULAR_SLACK
        # every slice must vanish, not just the last one
        assert classify_endpoint(r, _slices(0.5, 0.0), self.CFG) == \
            SolutionClass.NONSINGULAR_SLACK

    def test_infinite_condition_large_slack_unresolved(self):
        r = _result(condition=np.inf)
        assert classify_endpoint(r, _slices(0.5), self.CFG) == \
            SolutionClass.SINGULAR_UNRESOLVED

    def test_level_zero_ignores_slack_rule(self):
        r = _result(condition=10.0)
        assert classify_endpoint(r, _slices(), self.CFG) == SolutionClass.NONSINGULAR_SLACK

    def test_residual_gate(self):
        r = _result(residual=1e-3)
        assert classify_endpoint(r, _slices(0.5), self.CFG) == \
            SolutionClass.SINGULAR_UNRESOLVED


@pytest.mark.parametrize("system_file", ["worked_example.sys", "cyclic4.sys"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classification_margins(monkeypatch, system_file, seed):
    # no verdict of a converged level-i endpoint hangs on tol_z: the slice
    # values sit far below it on a component and far above it elsewhere
    seen = []

    def recording(result, slices, cfg):
        verdict = classify_endpoint(result, slices, cfg)
        if len(slices) and result.status == PathStatus.CONVERGED:
            seen.append((verdict, float(np.max(np.abs(slices)))))
        return verdict

    monkeypatch.setattr(cascade, "classify_endpoint", recording)
    cfg = CascadeConfig(seed=seed)
    run_cascade(load_system(SYSTEMS / system_file), cfg)
    on = [v for verdict, v in seen if verdict == SolutionClass.ON_COMPONENT]
    off = [v for verdict, v in seen if verdict != SolutionClass.ON_COMPONENT]
    assert on and off
    assert max(on) <= 1e-3 * cfg.tol_z
    assert min(off) >= 1e3 * cfg.tol_z


class TestClustering:
    def test_far_points_stay_separate(self):
        pts = [np.array([0.0 + 0j]), np.array([1.0 + 0j]), np.array([2.0 + 0j])]
        assert cluster_points(pts, 1e-6) == [[0], [1], [2]]

    def test_chain_merges_transitively(self):
        pts = [np.array([0.0 + 0j]), np.array([0.5e-6 + 0j]), np.array([1.0e-6 + 0j])]
        assert cluster_points(pts, 0.6e-6) == [[0, 1, 2]]

    def test_representative_minimizes_residual(self):
        results = [
            _result(endpoint=np.array([1.0 + 1e-8j, 0j]), residual=1e-10),
            _result(endpoint=np.array([1.0 + 0j, 0j]), residual=1e-16),
            _result(endpoint=np.array([5.0 + 0j, 0j]), residual=1e-12),
        ]
        points = cluster_witnesses(results, CascadeConfig())
        assert len(points) == 2
        pair = next(p for p in points if p.multiplicity == 2)
        assert pair.residual == 1e-16
        assert pair.x[0] == 1.0 + 0j


def test_non_square_rejected():
    f = parse_system("2\n*\nx1*x2 - 1;\n")
    with pytest.raises(NonSquareSystemError):
        run_cascade(f, CascadeConfig())
    with pytest.raises(NonSquareSystemError):
        solve_total_degree(f, CascadeConfig())


def test_zero_equation_rejected():
    f = parse_system("2\n*\nx1 - x1;\nx2;\n")
    with pytest.raises(ZeroPolynomialError):
        run_cascade(f, CascadeConfig())


def test_worked_example_cascade_shape():
    f = parse_system(WORKED)
    out = run_cascade(f, CascadeConfig(seed=1))
    assert out.top_dimension == 1
    assert out.total_paths == 17
    by_level = {s.level: s for s in out.stats}
    assert by_level[1].n_paths == 12
    assert by_level[1].on_component == 2
    assert by_level[1].regular == 5
    assert by_level[1].diverged == 5
    assert by_level[0].n_paths == 5
    dim1 = next(ws for ws in out.supersets if ws.level == 1)
    assert len(dim1.points) == 1
    assert dim1.points[0].multiplicity == 2
    assert abs(dim1.points[0].x[0]) < 1e-6  # the witness lies on x1 = 0
    assert out.isolated_solutions == []


def test_linear_system_has_single_isolated_solution():
    f = parse_system(LINEAR)
    out = run_cascade(f, CascadeConfig(seed=4))
    assert out.top_dimension == 0
    assert all(not ws.points for ws in out.supersets)
    assert len(out.isolated_solutions) == 1
    # by substitution: x1 = x2 - 1, 5*x2 = 3
    sol = out.isolated_solutions[0].x
    assert np.max(np.abs(sol - np.array([-2 / 5, 3 / 5]))) < 1e-8


def test_verify_witness_accepts_true_point_rejects_perturbed():
    f = parse_system(WORKED)
    cfg = CascadeConfig(seed=1)
    out = run_cascade(f, cfg)
    w = next(ws for ws in out.supersets if ws.level == 1).points[0]
    f_1 = embed(f, out.parameters, 1)
    good = verify_witness(w.x, f_1, cfg)
    assert good["pass"]
    bad = verify_witness(w.x + 1e-3, f_1, cfg)
    assert not bad["pass"]


def test_verify_witness_at_level_zero_reads_no_parameters():
    f = parse_system(LINEAR)
    cfg = CascadeConfig(seed=4)
    x = solve_total_degree(f, cfg).isolated_solutions[0].x
    check = verify_witness(x, embed(f, None, 0), cfg)
    assert check["pass"] and check["slice_residual"] == 0.0


def test_each_level_system_is_compiled_once(monkeypatch):
    # F_{n-1}..F_1 are compiled once per run, F_0 is f's own tables, and the
    # verifier works on the compiled system it is given
    f = load_system(SYSTEMS / "cyclic4.sys")
    built = []
    init = PolynomialSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolynomialSystem, "__init__", counting_init)
    cfg = CascadeConfig(seed=1)
    out = run_cascade(f, cfg)
    assert len(built) == f.n_vars - 1
    built.clear()
    solve_total_degree(f, cfg)
    assert built == []
    f_1 = embed(f, out.parameters, 1)
    built.clear()
    points = next(ws for ws in out.supersets if ws.level == 1).points
    assert points and all(verify_witness(w.x, f_1, cfg)["pass"] for w in points)
    assert built == []


def test_fresh_slice_reproduces_geometry():
    f = parse_system(WORKED)
    base = CascadeConfig(seed=1)
    again = run_cascade(f, dataclasses.replace(base, seed=6))
    assert again.seed == 6
    assert again.top_dimension == 1
    dim1 = next(ws for ws in again.supersets if ws.level == 1)
    assert len(dim1.points) == 1 and dim1.points[0].multiplicity == 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_empty_lower_levels_after_no_regular_endpoint(seed):
    # the unit sphere written three times: every level-2 path lands on the
    # sphere or diverges, so levels 1 and 0 receive no paths at all
    f = parse_system("3\n*\nx1^2 + x2^2 + x3^2 - 1;\n"
                     "2*x1^2 + 2*x2^2 + 2*x3^2 - 2;\n"
                     "3*x1^2 + 3*x2^2 + 3*x3^2 - 3;\n")
    out = run_cascade(f, CascadeConfig(seed=seed))
    assert [(s.level, s.n_paths) for s in out.stats] == [(2, 8), (1, 0), (0, 0)]
    assert [ws.level for ws in out.supersets] == [2, 1]
    assert len(out.supersets[0].points) == 2 and out.supersets[1].points == []
    assert out.top_dimension == 2
    assert out.total_paths == 8
    assert out.isolated_solutions == [] and out.unresolved_level0 == []


def _cheap_config(seed):
    tracker = TrackerConfig(step_initial=0.1, t_endgame=1e-6)
    return CascadeConfig(seed=seed, tracker=tracker)


@settings(max_examples=100)
@given(st.data())
def test_conservation_and_recycling(data):
    system = data.draw(generic_square_systems_st(max_vars=2, max_degree=2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    out = run_cascade(system, _cheap_config(seed))
    stats = {s.level: s for s in out.stats}
    levels = sorted(stats)
    assert levels == list(range(system.n_vars))
    for s in out.stats:
        # every tracked path lands in exactly one bucket
        assert s.n_paths == s.on_component + s.regular + s.diverged + s.unresolved
    for lower in range(system.n_vars - 1):
        # paths at level i-1 are exactly the recycled nonsingular endpoints
        assert stats[lower].n_paths == stats[lower + 1].regular
    assert out.total_paths == sum(s.n_paths for s in out.stats)


@settings(max_examples=100)
@given(st.data())
def test_top_embedding_has_no_vanishing_slack(data):
    # embedding with as many slices as variables leaves no room for
    # components: every converged path must stay off some slice
    system = data.draw(generic_square_systems_st(max_vars=2, max_degree=2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = system.n_vars
    rng = RandomSource(seed)
    params = sample_parameters(n, rng)
    full = embed(system, params, n)
    start = build_start_system(full, rng)
    gamma = rng.unit_complex()
    cfg = _cheap_config(seed)
    results = track_batch(StartHomotopy(full, start, gamma), list(start.roots()),
                          cfg.tracker)
    for r in results:
        if r.status == PathStatus.CONVERGED:
            assert np.max(np.abs(params.slice_values(r.endpoint, n))) > cfg.tol_z


@settings(max_examples=100)
@given(st.data())
def test_seed_determinism(data):
    system = data.draw(generic_square_systems_st(max_vars=2, max_degree=2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = run_cascade(system, _cheap_config(seed))
    b = run_cascade(system, _cheap_config(seed))
    assert a.top_dimension == b.top_dimension
    assert a.total_paths == b.total_paths
    for sa, sb in zip(a.stats, b.stats):
        assert (sa.level, sa.n_paths, sa.on_component, sa.regular,
                sa.diverged, sa.unresolved) == \
               (sb.level, sb.n_paths, sb.on_component, sb.regular,
                sb.diverged, sb.unresolved)
    assert [p.multiplicity for p in a.isolated_solutions] == \
           [p.multiplicity for p in b.isolated_solutions]
    for pa, pb in zip(a.isolated_solutions, b.isolated_solutions):
        assert np.array_equal(pa.x, pb.x)
    for wa, wb in zip(a.supersets, b.supersets):
        assert [p.multiplicity for p in wa.points] == [p.multiplicity for p in wb.points]


def test_config_validation_and_round_trip():
    for name in ("tol_z", "cluster_tol", "residual_tol"):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            CascadeConfig(**{name: 0.0})
    with pytest.raises(ValueError):
        CascadeConfig(tol_z=1e-3, cluster_tol=1e-6)  # must be below cluster_tol
    with pytest.raises(ValueError):
        CascadeConfig(cond_max=0.5)
    with pytest.raises(ValueError):
        CascadeConfig(threads=0)
    with pytest.raises(ValueError):
        CascadeConfig(seed=-1)
    with pytest.raises(TypeError):
        CascadeConfig(seed=1.5)
    with pytest.raises(ValueError):
        CascadeConfig.from_dict({"seed": 0, "mystery": True})
    cfg = CascadeConfig(seed=5, tol_z=1e-9)
    again = CascadeConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def _rows(out):
    return [(s.level, s.n_paths, s.on_component, s.regular, s.diverged, s.unresolved)
            for s in out.stats]


def test_single_variable_system():
    # with n = 1 the cascade has no slack levels, so it is the solve
    f = parse_system("1\n*\nx1^2 - 1;\n")
    for seed in (1, 2, 3):
        cascade = run_cascade(f, CascadeConfig(seed=seed))
        solve = solve_total_degree(f, CascadeConfig(seed=seed))
        assert cascade.parameters is not None and solve.parameters is None
        for out in (cascade, solve):
            assert out.top_dimension == 0
            assert out.supersets == []
            assert _rows(out) == [(0, 2, 0, 2, 0, 0)]
            assert len(out.isolated_solutions) == 2
            roots = sorted(complex(p.x[0]).real for p in out.isolated_solutions)
            assert roots[0] == pytest.approx(-1.0, abs=1e-9)
            assert roots[1] == pytest.approx(1.0, abs=1e-9)
    # a double root beside a simple one: level 0 keeps the singleton and
    # sends the two-point cluster to the unresolved endpoints
    g = parse_system("1\n*\n(x1-1)^2*(x1+2);\n")
    for seed in (1, 2, 3):
        for out in (run_cascade(g, CascadeConfig(seed=seed)),
                    solve_total_degree(g, CascadeConfig(seed=seed))):
            assert _rows(out) == [(0, 3, 0, 1, 0, 2)]
            [root] = out.isolated_solutions
            assert complex(root.x[0]) == pytest.approx(-2.0, abs=1e-9)
            [double] = out.unresolved_level0
            assert double.multiplicity == 2
            assert complex(double.x[0]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_constant_equation_has_no_solutions(seed):
    # x1 - 1 = 0 with 3 = 0 has no solution: the one level-1 path is
    # recycled and diverges at level 0
    out = run_cascade(parse_system("2\n*\nx1 - 1;\n3;\n"), CascadeConfig(seed=seed))
    assert _rows(out) == [(1, 1, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0)]
    assert [ws.points for ws in out.supersets] == [[]]
    assert out.isolated_solutions == [] and out.unresolved_level0 == []
    assert out.top_dimension is None
