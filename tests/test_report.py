"""Report serialization, tables, and witness files."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycascade.cascade import (CascadeConfig, CascadeOutput, LevelStats,
                                 WitnessPoint, WitnessSuperset, run_cascade,
                                 solve_total_degree)
from polycascade.embedding import sample_parameters
from polycascade.linalg import RandomSource
from polycascade.polynomials import parse_system
from polycascade.report import (build_cascade_report, build_solve_report,
                                canonical_dumps, decode_report, j2vec, load_report,
                                render_cascade_summary, render_cascade_table,
                                source_digest, strip_timing_fields,
                                write_report, write_witness_file)

WORKED = "2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n"
SPHERE_POINT = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "sphere_point.sys"
LINEAR = "2\n*\n2*x1 + 3*x2 - 1;\nx1 - x2 + 1;\n"


@pytest.fixture(scope="module")
def worked_report():
    f = parse_system(WORKED)
    cfg = CascadeConfig(seed=1)
    out = run_cascade(f, cfg)
    return build_cascade_report(out, WORKED, cfg)


def test_complex_encoding_is_re_im_pairs(worked_report):
    gamma = worked_report["gamma"]
    assert isinstance(gamma, list) and len(gamma) == 2
    assert all(isinstance(v, float) for v in gamma)
    point = worked_report["witness_sets"][0]["points"][0]
    for pair in point["coordinates"]:
        assert len(pair) == 2 and all(isinstance(v, float) for v in pair)


def test_report_is_json_clean(worked_report):
    # every value must survive json round trip without custom encoders
    text = canonical_dumps(worked_report)
    assert json.loads(text) == worked_report


def test_solve_report_keys():
    cfg = CascadeConfig(seed=2)
    out = solve_total_degree(parse_system(LINEAR), cfg)
    solve = build_solve_report(out, LINEAR, cfg)
    assert set(solve) == {"kind", "version", "input", "seed", "config", "gamma",
                          "start_constants", "levels", "isolated_solutions",
                          "unresolved_level0", "total_paths"}
    assert solve["kind"] == "solve"
    assert [row["level"] for row in solve["levels"]] == [0]
    assert [r.start_index for r in out.results] == [0]


def test_cascade_report_extends_solve_report():
    cfg = CascadeConfig(seed=1)
    out = run_cascade(parse_system(WORKED), cfg)
    cascade = build_cascade_report(out, WORKED, cfg)
    solve = build_solve_report(out, WORKED, cfg)
    assert set(cascade) == set(solve) | {"parameters", "witness_sets", "top_dimension"}
    assert cascade["kind"] == "cascade"
    assert all(cascade[k] == solve[k] for k in solve if k != "kind")


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("command", ["solve", "cascade"])
def test_report_with_singular_endpoints_is_strict_json(tmp_path, command):
    # sphere_point leaves endpoints with infinite condition numbers
    source = SPHERE_POINT.read_text(encoding="utf-8")
    cfg = CascadeConfig(seed=1)
    if command == "solve":
        report = build_solve_report(solve_total_degree(parse_system(source), cfg),
                                    source, cfg)
    else:
        report = build_cascade_report(run_cascade(parse_system(source), cfg), source, cfg)
    text = canonical_dumps(report)
    loaded = json.loads(text, parse_constant=_reject_constant)
    assert canonical_dumps(loaded) == text
    points = loaded["isolated_solutions"] + loaded["unresolved_level0"]
    assert any(p["condition"] is None for p in points)
    # the human-readable outputs still say inf
    if command == "cascade":
        write_witness_file(str(tmp_path / "out.witness"), loaded)
        assert "condition inf" in (tmp_path / "out.witness").read_text()
        assert "condition inf" in render_cascade_summary(loaded)


def test_digest_matches_sha256(worked_report):
    import hashlib
    want = "sha256:" + hashlib.sha256(WORKED.encode()).hexdigest()
    assert worked_report["input"]["digest"] == want
    assert source_digest(WORKED) == want


def test_round_trip_through_file_is_byte_identical(tmp_path, worked_report):
    path = tmp_path / "run.json"
    write_report(str(path), worked_report)
    raw = path.read_bytes()
    again = canonical_dumps(load_report(str(path))).encode()
    assert raw == again


def test_same_seed_reports_identical_except_timing():
    f = parse_system(LINEAR)
    cfg = CascadeConfig(seed=8)
    a = build_cascade_report(run_cascade(f, cfg), LINEAR, cfg)
    b = build_cascade_report(run_cascade(f, cfg), LINEAR, cfg)
    assert canonical_dumps(strip_timing_fields(a)) == canonical_dumps(strip_timing_fields(b))


def test_table_shape_and_totals(worked_report):
    table = render_cascade_table(worked_report)
    lines = table.splitlines()
    assert "#paths" in lines[0] and "z = 0" in lines[0] and "-> inf" in lines[0]
    assert lines[1].lstrip().startswith("E_1")
    assert lines[2].lstrip().startswith("E_0")
    assert lines[3].lstrip().startswith("total")
    assert " 17 " in lines[3] + " "


def test_summary_mentions_top_dimension(worked_report):
    text = render_cascade_summary(worked_report)
    assert "top dimension: 1" in text
    assert "witness" in text


def test_solve_listing_counts():
    f = parse_system(LINEAR)
    cfg = CascadeConfig(seed=2)
    out = solve_total_degree(f, cfg)
    report = build_solve_report(out, LINEAR, cfg)
    lines = render_cascade_summary(report, results=out.results).splitlines()
    assert lines[0].startswith("path   0  converged")
    row = next(k for k, ln in enumerate(lines) if ln.lstrip().startswith("E_0"))
    assert lines[row].split()[:6] == ["E_0", "1", "0", "1", "0", "0"]
    assert lines.index("isolated solutions: 1") > row
    assert lines[-1] == "1 isolated solution(s)"


def test_witness_file_layout(tmp_path, worked_report):
    path = tmp_path / "out.witness"
    write_witness_file(str(path), worked_report)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    dims = [ln for ln in lines if ln.startswith("dim ")]
    assert dims == ["dim 1"]
    slice_lines = [ln for ln in lines if ln.startswith("slice ")]
    assert len(slice_lines) == 1
    # slice line: label plus constant and two coefficients as re/im pairs
    nums = slice_lines[0].split(":", 1)[1].split()
    assert len(nums) == 6
    point_lines = [ln for ln in lines if "mult" in ln]
    assert len(point_lines) == 1
    tokens = point_lines[0].split()
    # 2 coords as re/im pairs, then mult/residual/condition labeled fields
    assert len(tokens) == 4 + 6
    got = complex(float(tokens[0]), float(tokens[1]))
    want = worked_report["witness_sets"][0]["points"][0]["coordinates"][0]
    assert got == complex(want[0], want[1])
    assert tokens[4] == "mult" and int(tokens[5]) == 2


def test_witness_file_empty_sets(tmp_path):
    f = parse_system(LINEAR)
    cfg = CascadeConfig(seed=3)
    report = build_cascade_report(run_cascade(f, cfg), LINEAR, cfg)
    path = tmp_path / "none.witness"
    write_witness_file(str(path), report)
    assert "# no witness points" in path.read_text()


def test_j2vec_inverts_encoding():
    v = np.array([1 + 2j, -0.5 + 0j])
    pairs = [[1.0, 2.0], [-0.5, 0.0]]
    assert np.array_equal(j2vec(pairs), v)


def test_decode_report_round_trip():
    f = parse_system(WORKED)
    cfg = CascadeConfig(seed=1)
    out = run_cascade(f, cfg)
    report = json.loads(canonical_dumps(build_cascade_report(out, WORKED, cfg)))
    decoded_cfg, params, sets = decode_report(report)
    assert decoded_cfg == cfg
    for name in ("eff_constants", "eff_coefficients", "eff_lambda"):
        assert np.array_equal(getattr(params, name), getattr(out.parameters, name))
    assert [level for level, _ in sets] == [ws.level for ws in out.supersets]
    for (_, points), ws in zip(sets, out.supersets):
        assert len(points) == len(ws.points)
        for x, p in zip(points, ws.points):
            assert np.array_equal(x, p.x)


def _random_output(draw_ints, n=2, levels=1):
    rng = RandomSource(draw_ints(0, 2**32 - 1))
    params = sample_parameters(n, rng)

    def point():
        return WitnessPoint(x=rng.unit_complex_array(n) * draw_ints(1, 5),
                            multiplicity=draw_ints(1, 4),
                            residual=10.0 ** -draw_ints(8, 16),
                            condition=float(draw_ints(1, 10**9)))

    supersets = []
    stats = []
    for lv in range(levels, 0, -1):
        pts = [point() for _ in range(draw_ints(0, 3))]
        supersets.append(WitnessSuperset(level=lv, points=pts,
                                         filtered_out=draw_ints(0, 2)))
        stats.append(LevelStats(level=lv, n_paths=draw_ints(0, 20),
                                on_component=draw_ints(0, 5), regular=draw_ints(0, 5),
                                diverged=draw_ints(0, 5), unresolved=draw_ints(0, 5),
                                wall_ms=float(draw_ints(0, 10**6)) / 7.0))
    stats.append(LevelStats(0, draw_ints(0, 9), 0, draw_ints(0, 9),
                            draw_ints(0, 9), draw_ints(0, 9),
                            float(draw_ints(0, 10**6)) / 3.0))
    return CascadeOutput(
        supersets=supersets,
        isolated_solutions=[point() for _ in range(draw_ints(0, 2))],
        unresolved_level0=[point() for _ in range(draw_ints(0, 2))],
        stats=stats,
        top_dimension=None if draw_ints(0, 1) else 1,
        parameters=params, gamma=rng.unit_complex(),
        start_constants=rng.unit_complex_array(n + levels),
        total_paths=draw_ints(0, 40), seed=draw_ints(0, 100))


@settings(max_examples=150)
@given(st.data())
def test_report_round_trip_byte_identity(data):
    def draw_ints(lo, hi):
        return data.draw(st.integers(lo, hi))

    n = draw_ints(1, 3)
    out = _random_output(draw_ints, n=n, levels=draw_ints(1, min(2, n)))
    cfg = CascadeConfig(seed=out.seed)
    report = build_cascade_report(out, WORKED, cfg)
    first = canonical_dumps(report)
    second = canonical_dumps(json.loads(first))
    assert first.encode() == second.encode()
