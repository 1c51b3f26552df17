"""Command-line behavior: outputs, files, and exit codes."""

import json
import subprocess
import sys

import pytest

from polycascade.cli import main
from polycascade.report import load_report, write_report

WORKED = "2\n*\nx1^2*x2;\nx1^2*(x2^2 + x1);\n"
LINEAR = "2\n*\n2*x1 + 3*x2 - 1;\nx1 - x2 + 1;\n"


@pytest.fixture()
def worked_file(tmp_path):
    path = tmp_path / "worked.sys"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "linear.sys"
    path.write_text(LINEAR)
    return str(path)


def test_solve_table_output(linear_file, capsys):
    code = main(["solve", linear_file, "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "isolated solutions: 1" in out
    assert "converged" in out


def test_solve_json_output(linear_file, capsys):
    code = main(["solve", linear_file, "--seed", "2", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "solve"
    assert report["total_paths"] == 1
    assert len(report["isolated_solutions"]) == 1


def test_cascade_writes_report_and_witness(worked_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    witness_path = str(tmp_path / "run.witness")
    code = main(["cascade", worked_file, "--seed", "1",
                 "--report", report_path, "--witness", witness_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "top dimension: 1" in out
    report = load_report(report_path)
    assert report["kind"] == "cascade"
    assert report["top_dimension"] == 1
    assert report["total_paths"] == 17
    text = open(witness_path).read()
    assert "dim 1" in text and "slice 1:" in text


def test_cascade_default_witness_path(worked_file, capsys):
    code = main(["cascade", worked_file, "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    expected = worked_file[:-len(".sys")] + ".witness"
    assert open(expected).read().startswith("#")


def test_cascade_json_format(worked_file, capsys):
    code = main(["cascade", worked_file, "--seed", "1", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["top_dimension"] == 1
    labels = {ws["level"]: ws["label"] for ws in report["witness_sets"]}
    assert labels[1] == "witness set"


def test_no_positive_dimension_message(linear_file, capsys):
    code = main(["cascade", linear_file, "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no positive-dimensional components detected; 1 isolated solution(s)" in out


CLOSING_LINES = [
    ("triple", "1\n*\n(x1-1)^3;\n", "no regular solutions; 1 singular/unresolved cluster(s)"),
    ("double", "1\n*\nx1^2;\n", "no regular solutions; 1 singular/unresolved cluster(s)"),
    ("inconsistent", "2\n*\nx1 - 1;\n3;\n", "no solutions detected"),
]


# solve prints the cascade's summary, so it must close the same way
@pytest.mark.parametrize("command,text,last", [
    pytest.param(command, text, last,
                 id=name if command == "cascade" else f"{command}-{name}")
    for command in ("cascade", "solve") for name, text, last in CLOSING_LINES])
def test_closing_line_without_regular_solutions(tmp_path, capsys, command, text, last):
    path = tmp_path / "system.sys"
    path.write_text(text)
    assert main([command, str(path), "--seed", "1"]) == 0
    assert capsys.readouterr().out.rstrip("\n").splitlines()[-1] == last


def test_verify_pass_and_exit_zero(worked_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["cascade", worked_file, "--seed", "1",
                 "--report", report_path]) == 0
    capsys.readouterr()
    code = main(["verify", report_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "1/1 witness points verified" in out
    line = next(l for l in out.splitlines() if "PASS" in l)
    assert "residual" in line and "slice" in line and "drift" in line


def test_verify_solve_report_exit_zero(linear_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["solve", linear_file, "--seed", "2",
                 "--report", report_path]) == 0
    capsys.readouterr()
    assert main(["verify", report_path]) == 0
    assert "no witness points" in capsys.readouterr().out


def test_verify_against_non_square_exit_3(worked_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["cascade", worked_file, "--seed", "1",
                 "--report", report_path]) == 0
    nonsq = tmp_path / "nonsq.sys"
    nonsq.write_text("2\n*\nx1*x2 - 1;\n")
    capsys.readouterr()
    assert main(["verify", report_path, "--against", str(nonsq)]) == 3
    assert "not square" in capsys.readouterr().err


def test_verify_against_unrelated_system_fails(worked_file, linear_file,
                                               tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["cascade", worked_file, "--seed", "1",
                 "--report", report_path]) == 0
    capsys.readouterr()
    code = main(["verify", report_path, "--against", linear_file])
    out = capsys.readouterr().out
    assert code == 5
    assert "FAIL" in out


def test_verify_against_other_variable_count_fails(worked_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["cascade", worked_file, "--seed", "1",
                 "--report", report_path]) == 0
    three = tmp_path / "three.sys"
    three.write_text("3\n*\nx1 - 1;\nx2 - 1;\nx3 - 1;\n")
    capsys.readouterr()
    code = main(["verify", report_path, "--against", str(three)])
    out = capsys.readouterr().out
    assert code == 5
    assert out.splitlines() == [
        "dim 1 point 0: FAIL (dimension mismatch with target system)",
        "0/1 witness points verified"]


def test_verify_report_without_witnesses(linear_file, tmp_path, capsys):
    report_path = str(tmp_path / "run.json")
    assert main(["cascade", linear_file, "--seed", "2",
                 "--report", report_path]) == 0
    capsys.readouterr()
    code = main(["verify", report_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "0/0" in out or "no witness points" in out
    # an empty set is still checked against the parameters
    report = load_report(report_path)
    assert report["witness_sets"]
    for ws in report["witness_sets"]:
        assert not ws["points"]
        ws["level"], ws["slices"] = 99, []
    write_report(report_path, report)
    assert main(["verify", report_path]) == 2
    assert "malformed report" in capsys.readouterr().err


def _as_list(report):
    return [report]


def _text_tolerance(report):
    report["config"]["residual_tol"] = "x"
    return report


def _short_coordinate(report):
    report["witness_sets"][0]["points"][0]["coordinates"][0] = [1]
    return report


def _dropped_coordinate(report):
    report["witness_sets"][0]["points"][0]["coordinates"].pop()
    return report


def _short_lambda_row(report):
    report["parameters"]["lambda"][0].pop()
    return report


def _doctored_slice(report):
    # the witness file is written from these slices; verify reads parameters
    report["witness_sets"][0]["slices"][0]["constant"] = [5, 5]
    return report


def _negative_level(report):
    # with n = 2, slices[:-1] would pass for the single slice of dim 1
    report["witness_sets"][0]["level"] = -1
    return report


@pytest.mark.parametrize("corrupt", [_as_list, _text_tolerance, _short_coordinate,
                                     _dropped_coordinate, _short_lambda_row,
                                     _doctored_slice, _negative_level])
def test_verify_malformed_report_exit_2(worked_file, tmp_path, capsys, corrupt):
    report_path = tmp_path / "run.json"
    assert main(["cascade", worked_file, "--seed", "1",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["witness_sets"][0]["points"]
    report_path.write_text(json.dumps(corrupt(report)))
    capsys.readouterr()
    code = main(["verify", str(report_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed report" in err and "Traceback" not in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("2\n*\nx1 + ;\nx2;\n")
    code = main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "parse error" in err and "line 3" in err


def test_missing_file_exit_2(capsys):
    code = main(["solve", "/nonexistent/系统.sys"])
    assert code == 2


def test_non_square_exit_3(tmp_path, capsys):
    f = tmp_path / "nonsq.sys"
    f.write_text("2\n*\nx1*x2 - 1;\n")
    assert main(["solve", str(f)]) == 3
    assert main(["cascade", str(f)]) == 3
    assert "not square" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "cascade"])
@pytest.mark.parametrize("text", ["1e400*x1 - 1;", "1e200*1e200*x1 - 1;"])
def test_non_finite_coefficient_exit_2(tmp_path, capsys, command, text):
    f = tmp_path / "huge.sys"
    f.write_text(f"1\n*\n{text}\n")
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "not finite" in err


@pytest.mark.parametrize("command", ["solve", "cascade", "verify"])
def test_non_utf8_input_exit_2(worked_file, tmp_path, capsys, command):
    binary = tmp_path / "bin.sys"
    binary.write_bytes(b"\xff\xfe2\n*\nx1;\nx2;\n")
    argv = [command, str(binary)]
    if command == "verify":
        report = tmp_path / "run.json"
        assert main(["cascade", worked_file, "--seed", "1", "--report", str(report),
                     "--witness", str(tmp_path / "run.witness")]) == 0
        argv = ["verify", str(report), "--against", str(binary)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "can't decode" in err


def test_zero_polynomial_exit_2(tmp_path, capsys):
    f = tmp_path / "zero.sys"
    f.write_text("2\n*\nx1 - x1;\nx2;\n")
    assert main(["cascade", str(f)]) == 2
    assert "identically zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "cascade"])
def test_unenumerable_root_count_exit_2(tmp_path, capsys, command):
    # 600**7 start paths: more than a 64-bit count holds
    f = tmp_path / "big.sys"
    f.write_text("7\n*\n" + "".join(f"x{k}^600 - 1;\n" for k in range(1, 8)))
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(600**7) in err and "Traceback" not in err


def test_bad_config_exit_4(worked_file, linear_file, tmp_path, capsys):
    assert main(["solve", linear_file, "--seed", "-1"]) == 4
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"mystery": true}')
    assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4
    cfgfile.write_text("not json")
    assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4
    cfgfile.write_text('[{"seed": 1}]')
    assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4
    assert "config file must hold a JSON object" in capsys.readouterr().err
    for tracker in ("5", "[]"):
        cfgfile.write_text('{"tracker": %s}' % tracker)
        assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4
    for name, value, message in [
            ("max_newton_iters", 0, "max_newton_iters must be at least 1"),
            ("step_expand", 1.0, "step_expand must exceed 1"),
            ("divergence_threshold", 0.0, "divergence_threshold must be positive"),
            ("t_endgame", 1.0, "t_endgame must lie in (0, 1)"),
            ("endpoint_refine_iters", -1, "endpoint_refine_iters must be nonnegative")]:
        cfgfile.write_text(json.dumps({"tracker": {name: value}}))
        assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4, name
        assert message in capsys.readouterr().err
    # int fields take int, float fields int or float; bool is neither
    for setting in ('{"tracker": {"max_newton_iters": 2.5}}', '{"seed": 1.5}',
                    '{"threads": 2.5}', '{"residual_tol": true}', '{"seed": true}'):
        cfgfile.write_text(setting)
        assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4, setting
    # NaN fails every range comparison, so it needs its own rejection
    cfgfile.write_text('{"tol_z": NaN}')
    assert main(["cascade", worked_file, "--seed", "1", "--config", str(cfgfile)]) == 4
    cfgfile.write_text('{"tracker": {"newton_tol": NaN}}')
    assert main(["solve", linear_file, "--config", str(cfgfile)]) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "tol_z must be finite" in err and "newton_tol must be finite" in err


def test_config_file_applies(linear_file, capsys):
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"tracker": {"step_initial": 0.02, "newton_tol": 1e-9}}, fh)
        path = fh.name
    try:
        code = main(["solve", linear_file, "--config", path, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["config"]["tracker"]["step_initial"] == 0.02
        assert report["config"]["tracker"]["newton_tol"] == 1e-9
    finally:
        os.unlink(path)


def test_flag_overrides_config_file(linear_file, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"seed": 9, "tol_z": 1e-7}')
    code = main(["solve", linear_file, "--config", str(cfgfile),
                 "--seed", "4", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"]["seed"] == 4  # flag wins
    assert report["config"]["tol_z"] == 1e-7  # file setting survives


def test_config_file_seed_applies_without_flag(linear_file, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"seed": 3}')
    code = main(["solve", linear_file, "--config", str(cfgfile), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["seed"] == 3 and report["config"]["seed"] == 3


def test_threads_flag(worked_file, capsys):
    code = main(["cascade", worked_file, "--seed", "1", "--threads", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "top dimension: 1" in out


def test_console_script_entry_point(linear_file):
    proc = subprocess.run([sys.executable, "-m", "polycascade.cli",
                           "solve", linear_file, "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "isolated solutions: 1" in proc.stdout
