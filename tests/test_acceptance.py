"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once all of its assertions at the
stated tolerances have held; pytest -v therefore shows one line per
criterion.  Oracles are independent: hand-counted path censuses for the
embedded-point example, a symbolic decomposition cross-check for cyclic-4,
and structural inspection for the property-suite criterion.
"""

import inspect
import re
import time

import numpy as np
import pytest
import sympy as sp

from polycascade.cascade import (CascadeConfig, SolutionClass, classify_endpoint,
                                 cluster_witnesses, run_cascade, solve_total_degree)
from polycascade.embedding import StartHomotopy, embed, sample_parameters
from polycascade.linalg import RandomSource
from polycascade.polynomials import parse_system
from polycascade.start_systems import build_start_system
from polycascade.tracking import PathStatus, track_batch

WORKED = "2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n"
CYCLIC4 = ("4\n*\n"
           "x1 + x2 + x3 + x4;\n"
           "x1*x2 + x2*x3 + x3*x4 + x4*x1;\n"
           "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2;\n"
           "x1*x2*x3*x4 - 1;\n")
LINEAR = "2\n*\n2*x1 + 3*x2 - 1;\nx1 - x2 + 1;\n"

_cascade_cache = {}


def _worked_cascade(seed):
    if seed not in _cascade_cache:
        _cascade_cache[seed] = run_cascade(parse_system(WORKED), CascadeConfig(seed=seed))
    return _cascade_cache[seed]


def test_criterion_1_plain_solve_path_census():
    # 12 total-degree paths: 1 diverges, 3 hit the origin, 8 land elsewhere
    # on the line x1 = 0
    f = parse_system(WORKED)
    t0 = time.perf_counter()
    out = solve_total_degree(f, CascadeConfig(seed=1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert out.total_paths == 12
    assert out.stats[0].diverged == 1
    converged = [r for r in out.results if r.status == PathStatus.CONVERGED]
    at_origin = [r for r in converged if np.max(np.abs(r.endpoint)) < 1e-6]
    on_line = [r for r in converged
               if abs(r.endpoint[0]) < 1e-6 and abs(r.endpoint[1]) > 1e-3]
    assert len(at_origin) == 3
    assert len(on_line) == 8
    assert len(converged) == 11
    print(f"criterion 1: PASS - 12 paths in {elapsed:.2f}s: "
          "1 diverged, 3 at origin, 8 elsewhere on x1=0")


def test_criterion_2_embedded_system_census():
    # the level-1 embedding: 5 divergent, one multiplicity-2 witness cluster
    # with vanishing slack (on the slice), and 5 nonsingular endpoints
    # (condition < 1e6) carrying nonzero slack; stable across three seeds
    f = parse_system(WORKED)
    cfg = CascadeConfig()
    for seed in (1, 2, 3):
        rng = RandomSource(seed)
        params = sample_parameters(2, rng)
        e1 = embed(f, params, 1)
        start = build_start_system(e1, rng)
        gamma = rng.unit_complex()
        results = track_batch(StartHomotopy(e1, start, gamma),
                              list(start.roots()), cfg.tracker)
        assert len(results) == 12
        buckets = {c: [] for c in SolutionClass}
        for r in results:
            slices = params.slice_values(r.endpoint, 1)
            buckets[classify_endpoint(r, slices, cfg)].append(r)
        assert len(buckets[SolutionClass.DIVERGED]) == 5
        on_component = buckets[SolutionClass.ON_COMPONENT]
        assert len(on_component) == 2
        witnesses = cluster_witnesses(on_component, cfg)
        assert len(witnesses) == 1 and witnesses[0].multiplicity == 2
        regular = buckets[SolutionClass.NONSINGULAR_SLACK]
        assert len(regular) == 5
        for r in regular:
            assert r.condition < 1e6
        assert not buckets[SolutionClass.SINGULAR_UNRESOLVED]
    print("criterion 2: PASS - embedded system (seeds 1,2,3): "
          "5 diverged, witness cluster of multiplicity 2, 5 regular (cond < 1e6)")


def test_criterion_3_cascade_down_census():
    # the 5 recycled endpoints feed the level transition: 3 paths reach the
    # origin, 2 land elsewhere on x1 = 0; 12 + 5 = 17 paths in total
    for seed in (1, 2, 3):
        out = _worked_cascade(seed)
        assert out.total_paths == 17
        stats0 = next(s for s in out.stats if s.level == 0)
        assert stats0.n_paths == 5
        origin = [p for p in out.unresolved_level0
                  if np.max(np.abs(p.x)) < 1e-6]
        component = [p for p in out.unresolved_level0
                     if abs(p.x[0]) < 1e-6 and abs(p.x[1]) > 1e-3]
        assert len(origin) == 1 and origin[0].multiplicity == 3
        assert sum(p.multiplicity for p in component) == 2
        assert len(origin) + len(component) == len(out.unresolved_level0)
        assert out.isolated_solutions == []
    print("criterion 3: PASS - cascade stage (seeds 1,2,3): "
          "3 paths at origin, 2 on x1=0, 17 paths total")


def test_criterion_4_top_dimension_and_negative_control():
    # top dimension 1 with a multiplicity-2 witness for the worked system;
    # a full-rank linear system never produces positive-dimensional output
    for seed in (1, 2, 3):
        out = _worked_cascade(seed)
        assert out.top_dimension == 1
        dim1 = next(ws for ws in out.supersets if ws.level == 1)
        assert len(dim1.points) == 1
        assert dim1.points[0].multiplicity == 2

    lin = parse_system(LINEAR)
    for seed in range(1, 7):
        out = run_cascade(lin, CascadeConfig(seed=seed))
        assert out.top_dimension == 0
        assert all(not ws.points for ws in out.supersets)
        assert len(out.isolated_solutions) == 1

    # random full-rank linear systems behave the same way
    for sys_seed in (11, 12, 13):
        rng = RandomSource(sys_seed)
        a = rng.unit_complex_array(4).reshape(2, 2) + 2 * np.eye(2)
        b = rng.unit_complex_array(2)
        src = (f"2\n*\n"
               f"({a[0,0].real}+{a[0,0].imag}*i)*x1 + ({a[0,1].real}+{a[0,1].imag}*i)*x2"
               f" - ({b[0].real}+{b[0].imag}*i);\n"
               f"({a[1,0].real}+{a[1,0].imag}*i)*x1 + ({a[1,1].real}+{a[1,1].imag}*i)*x2"
               f" - ({b[1].real}+{b[1].imag}*i);\n")
        system = parse_system(src)
        for seed in (1, 2):
            out = run_cascade(system, CascadeConfig(seed=seed))
            assert out.top_dimension == 0
            assert all(not ws.points for ws in out.supersets)
    print("criterion 4: PASS - top dimension 1 (multiplicity-2 witness) on the "
          "worked system; linear systems never report positive dimension")


def _cyclic4_oracle_points(slice_constant, slice_coeffs):
    """Intersection of the two cyclic-4 curves with a hyperplane.

    The solution set of cyclic-4 is covered by (a, b, -a, -b) with ab = 1
    or ab = -1 (certified symbolically in the criterion-5 test).  On that
    chart the hyperplane c + sum a_j x_j = 0 becomes a quadratic in a for
    each branch, giving four intersection points for a generic slice.
    """
    c = slice_constant
    alpha = slice_coeffs
    lead = alpha[0] - alpha[2]
    trail = alpha[1] - alpha[3]
    assert abs(lead) > 1e-8 and abs(trail) > 1e-8
    points = []
    for k in (1.0, -1.0):
        # (alpha1-alpha3) a^2 + c a + (alpha2-alpha4) k = 0, b = k / a
        roots = np.roots([lead, c, trail * k])
        for a in roots:
            b = k / a
            points.append(np.array([a, b, -a, -b], dtype=np.complex128))
    return points


def test_criterion_5_cyclic4_matches_symbolic_oracle():
    # certify the parametrization symbolically first
    a, b = sp.symbols("a b")
    x = (a, b, -a, -b)
    f1 = x[0] + x[1] + x[2] + x[3]
    f2 = x[0] * x[1] + x[1] * x[2] + x[2] * x[3] + x[3] * x[0]
    f3 = (x[0] * x[1] * x[2] + x[1] * x[2] * x[3]
          + x[2] * x[3] * x[0] + x[3] * x[0] * x[1])
    f4 = x[0] * x[1] * x[2] * x[3] - 1
    assert sp.expand(f1) == 0
    assert sp.expand(f2) == 0
    assert sp.expand(f3) == 0
    assert sp.expand(f4 - ((a * b) ** 2 - 1)) == 0  # on f4=0: ab = 1 or ab = -1

    system = parse_system(CYCLIC4)
    for seed in (2, 3, 5):
        t0 = time.perf_counter()
        out = run_cascade(system, CascadeConfig(seed=seed, threads=2))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert out.top_dimension == 1
        assert out.isolated_solutions == []
        dim1 = next(ws for ws in out.supersets if ws.level == 1)
        assert len(dim1.points) == 4  # two points on each degree-2 curve
        constant = out.parameters.eff_constants[0]
        coeffs = out.parameters.eff_coefficients[0]
        oracle = _cyclic4_oracle_points(constant, coeffs)
        assert len(oracle) == 4
        for p in oracle:
            assert np.max(np.abs(system.evaluate(p))) < 1e-8
        matched = set()
        for w in dim1.points:
            dists = [np.max(np.abs(w.x - p)) for p in oracle]
            best = int(np.argmin(dists))
            assert dists[best] < 1e-6
            matched.add(best)
        assert matched == {0, 1, 2, 3}
    print("criterion 5: PASS - cyclic-4 (seeds 2,3,5): top dimension 1, "
          "4 witness points matching the symbolic oracle")


PROPERTY_SUITES = [
    ("test_polynomials", "test_jacobian_matches_finite_differences"),
    ("test_embedding", "test_embedded_jacobian_matches_finite_differences"),
    ("test_start_systems", "test_start_roots_residual_and_count"),
    ("test_tracking", "test_euler_prediction_second_order"),
    ("test_cascade", "test_conservation_and_recycling"),
    ("test_cascade", "test_top_embedding_has_no_vanishing_slack"),
    ("test_cascade", "test_seed_determinism"),
    ("test_report", "test_report_round_trip_byte_identity"),
]


def _max_examples(fn) -> int:
    configured = getattr(fn, "_hypothesis_internal_use_settings", None)
    if configured is not None:
        return configured.max_examples
    match = re.search(r"max_examples=(\d+)", inspect.getsource(fn))
    return int(match.group(1)) if match else 0


def test_criterion_6_property_suites_sized_at_100_plus():
    # the randomized suites run in this same pytest session; here we verify
    # each is configured for at least 100 cases
    import importlib
    for module_name, fn_name in PROPERTY_SUITES:
        module = importlib.import_module(module_name)
        fn = getattr(module, fn_name)
        count = _max_examples(fn)
        assert count >= 100, f"{module_name}.{fn_name} runs only {count} cases"
    print(f"criterion 6: PASS - {len(PROPERTY_SUITES)} property suites "
          "configured at 100+ randomized cases each")
