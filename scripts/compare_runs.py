#!/usr/bin/env python3
"""Compare same-seed CLI runs of this checkout against another checkout.

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/compare_runs.py /tmp/parent

Runs a fixed set of 25 commands through ``python -m polycascade.cli`` in
both checkouts, on the same input files: worked_example, lines2 and
sphere_point under ``solve`` and ``cascade``, plus cyclic-4 and the unit
sphere written three times under ``cascade``, each at seeds 1-3, and the
cyclic-5 cascade at seed 1 (about 10 s per checkout), its input written by
``scripts/cyclic.py`` into the temporary directory.  For every run it prints
whether the census, the report, the witness file and the table-format stdout
agree, and whether ``verify`` accepts this checkout's report.

It then runs ``solve`` in both checkouts on a fixed set of inputs that must
fail: one per parser error site, a non-square system, a zero equation and a
config file that holds a JSON list.  For each it prints whether the exit
code and stderr agree.

The census is the per-level class counts, the witness multiplicities and
filtered counts, the isolated and unresolved counts, the top dimension and
the total path count.  Reports are compared after ``strip_timing_fields``,
and stdout after masking the time cells of the per-level table.  Exits 1
if any census differs or any ``verify`` run fails.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cyclic import cyclic  # noqa: E402  (this script's directory is on sys.path)
from polycascade.report import canonical_dumps, strip_timing_fields  # noqa: E402

SEEDS = (1, 2, 3)
# (label, system text, config file text or None) for solve runs that must fail
BAD_INPUTS = [
    ("unexpected character", "1\n*\nx1\t@ 1;\n", None),
    ("coefficient not finite", "1\n*\n1e200*1e200*x1 - 1;\n", None),
    ("end of polynomial", "1\n*\n(x1 +;\n", None),
    ("unexpected token after", "1\n*\nx1 x1;\n", None),
    ("exponent not an integer", "1\n*\nx1^2.5;\n", None),
    ("unknown variable", "1\n*\nx2;\n", None),
    ("expected ')'", "1\n*\n(x1 x1);\n", None),
    ("unexpected token in atom", "1\n*\nx1 * );\n", None),
    ("one header line", "1\n", None),
    ("count not an integer", "one\n*\nx1;\n", None),
    ("count below 1", "0\n*\nx1;\n", None),
    ("wrong name count", "2\nx y z\nx;\ny;\n", None),
    ("invalid name", "2\nx 1y\nx;\nx;\n", None),
    ("i as a name", "2\nx i\nx;\nx;\n", None),
    ("duplicate name", "2\nx\tx\nx;\nx;\n", None),
    ("empty statement", "1\n*\n;\n", None),
    ("missing ';'", "1\n*\nx1 - 1\n", None),
    ("no polynomials", "1\n*\n# none\n", None),
    ("non-square system", "2\n*\nx1*x2 - 1;\n", None),
    ("zero equation", "2\n*\nx1 - x1;\nx2;\n", None),
    ("config holding a list", "1\n*\nx1 - 1;\n", '[{"seed": 1}]'),
]
# the table's time column; its width follows the longest time, so the
# padding in front of it is masked too
TIME_CELL = re.compile(r" +(\d+\.\d\ds|time)$", re.MULTILINE)


def run_set(inputs: dict) -> list:
    """(label, command, input path, seed) for every run of the set."""
    runs = []
    for name in ("worked_example", "lines2", "sphere_point"):
        for command in ("solve", "cascade"):
            runs += [(f"{name} {command} seed {s}", command, inputs[name], s) for s in SEEDS]
    for name in ("cyclic4", "three_spheres"):
        runs += [(f"{name} cascade seed {s}", "cascade", inputs[name], s) for s in SEEDS]
    runs.append(("cyclic5 cascade seed 1", "cascade", inputs["cyclic5"], 1))
    return runs


def cli(checkout: pathlib.Path, *args: str, check: bool = True,
        stderr=None) -> subprocess.CompletedProcess:
    """``python -m polycascade.cli`` with a checkout's sources, stdout captured."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-m", "polycascade.cli", *args], cwd=checkout,
                          env=env, check=check, stdout=subprocess.PIPE, stderr=stderr,
                          text=True)


def run_cli(checkout: pathlib.Path, command: str, source: str, seed: int,
            out: pathlib.Path) -> tuple:
    """Run one command in a checkout; returns (report, witness text or None,
    stdout with the time cells masked)."""
    report, witness = out / "report.json", out / "run.witness"
    argv = [command, source, "--seed", str(seed), "--report", str(report)]
    if command == "cascade":
        argv += ["--witness", str(witness)]
    stdout = TIME_CELL.sub(" <time>", cli(checkout, *argv).stdout)
    with open(report, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    return (loaded, witness.read_text(encoding="utf-8") if command == "cascade" else None,
            stdout)


def census(report: dict) -> dict:
    return {
        "levels": [(r["level"], r["n_paths"], r["on_component"], r["regular"],
                    r["diverged"], r["unresolved"]) for r in report["levels"]],
        "witness": [(ws["level"], [p["multiplicity"] for p in ws["points"]],
                     ws["filtered_out"]) for ws in report.get("witness_sets", [])],
        "isolated": len(report["isolated_solutions"]),
        "unresolved": len(report["unresolved_level0"]),
        "top_dimension": report.get("top_dimension"),
        "total_paths": report["total_paths"],
    }


def report_bytes(report: dict) -> str:
    return canonical_dumps(strip_timing_fields(report))


def tally_row(tally: dict, checks: dict) -> list:
    """Count each check in the tally; returns its "<name> same/differs" cells."""
    cells = []
    for name, equal in checks.items():
        counts = tally.setdefault(name, [0, 0])
        counts[0] += equal
        counts[1] += 1
        cells.append(f"{name} {'same' if equal else 'differs'}")
    return cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir", type=pathlib.Path, help="checkout to compare against")
    args = ap.parse_args()
    parent = args.parent_dir.resolve()

    census_diffs = verify_fails = 0
    tally: dict = {}  # compared output -> [runs where it is the same, runs]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        inputs = {name: str(ROOT / "systems" / f"{name}.sys")
                  for name in ("worked_example", "lines2", "cyclic4", "three_spheres")}
        inputs["sphere_point"] = str(ROOT / "perfbench" / "inputs" / "sphere_point.sys")
        inputs["cyclic5"] = str(tmp / "cyclic5.sys")
        (tmp / "cyclic5.sys").write_text(cyclic(5), encoding="utf-8")
        for side in ("parent", "child"):
            (tmp / side).mkdir()
        for label, command, source, seed in run_set(inputs):
            old = run_cli(parent, command, source, seed, tmp / "parent")
            new = run_cli(ROOT, command, source, seed, tmp / "child")
            same_census = census(old[0]) == census(new[0])
            census_diffs += not same_census
            cells = [f"census {'same' if same_census else 'DIFFERS'}"]
            checks = {"report": report_bytes(old[0]) == report_bytes(new[0]),
                      "stdout": old[2] == new[2]}
            if command == "cascade":
                checks["witness file"] = old[1] == new[1]
            cells += tally_row(tally, checks)
            code = cli(ROOT, "verify", str(tmp / "child" / "report.json"), check=False).returncode
            verify_fails += code != 0
            cells.append("verify ok" if code == 0 else f"verify FAILED (exit {code})")
            print(f"{label:<36} " + "  ".join(cells), flush=True)
        source, config = tmp / "bad.sys", tmp / "bad.json"
        for label, text, config_text in BAD_INPUTS:
            source.write_text(text, encoding="utf-8")
            argv = ["solve", str(source)]
            if config_text is not None:
                config.write_text(config_text, encoding="utf-8")
                argv += ["--config", str(config)]
            old, new = (cli(side, *argv, check=False, stderr=subprocess.PIPE)
                        for side in (parent, ROOT))
            cells = tally_row(tally, {"exit code": old.returncode == new.returncode,
                                      "stderr": old.stderr == new.stderr})
            print(f"{'bad input: ' + label:<36} exit {new.returncode}  " + "  ".join(cells),
                  flush=True)
    print(f"{census_diffs} census difference(s); "
          + ", ".join(f"{s}/{n} {name}s same" for name, (s, n) in tally.items())
          + f"; {verify_fails} verify failure(s)")
    return 1 if census_diffs or verify_fails else 0


if __name__ == "__main__":
    sys.exit(main())
