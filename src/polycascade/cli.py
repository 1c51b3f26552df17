"""Command-line front end.

Subcommands: solve (isolated solutions of a square system), cascade
(witness points per dimension plus isolated solutions), verify (re-check
witness points stored in a report).

Exit codes: 0 success, 2 input/parse error, 3 non-square system,
4 bad configuration, 5 witness verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .cascade import (CascadeConfig, NonSquareSystemError, run_cascade,
                      solve_total_degree, verify_witness)
from .embedding import ParameterSample
from .polynomials import ParseError, parse_system
from .report import (build_cascade_report, build_solve_report, canonical_dumps,
                     j2vec, load_report, render_cascade_summary, write_report,
                     write_witness_file)
from .start_systems import ZeroPolynomialError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONSQUARE = 3
EXIT_CONFIG = 4
EXIT_VERIFY = 5


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="polynomial system file")
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (64-bit; default 0)")
    sub.add_argument("--tol-z", type=float, default=None,
                     help="slack threshold for on-component classification")
    sub.add_argument("--cond-max", type=float, default=None,
                     help="condition bound for nonsingular endpoints")
    sub.add_argument("--newton-tol", type=float, default=None,
                     help="Newton convergence tolerance")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads for path tracking")
    sub.add_argument("--config", default=None,
                     help="JSON file with config overrides")
    sub.add_argument("--report", default=None,
                     help="write the run report (JSON) to this path")
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="stdout format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycascade",
        description="homotopy continuation solver for square polynomial systems")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="find isolated solutions")
    _add_common_flags(solve)

    cascade = subs.add_parser(
        "cascade", help="witness points per dimension plus isolated solutions")
    _add_common_flags(cascade)
    cascade.add_argument("--witness", default=None,
                         help="witness file path (default: input stem + .witness)")

    verify = subs.add_parser("verify", help="re-check witnesses stored in a report")
    verify.add_argument("report", help="report JSON produced by cascade")
    verify.add_argument("--against", default=None,
                        help="check the witnesses against this system instead")
    return parser


def _build_config(args) -> CascadeConfig:
    settings: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        settings.update(loaded)
    for name in ("seed", "tol_z", "cond_max", "threads"):
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    if args.newton_tol is not None:
        tracker = dict(settings.get("tracker", {}))
        tracker["newton_tol"] = args.newton_tol
        settings["tracker"] = tracker
    return CascadeConfig.from_dict(settings)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_run(args) -> int:
    """solve or cascade: run, write the report (and the witness file), print."""
    try:
        cfg = _build_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    solve = args.command == "solve"
    source = _read_source(args.input)
    system = parse_system(source)
    output = (solve_total_degree if solve else run_cascade)(system, cfg)
    report = (build_solve_report if solve else build_cascade_report)(output, source, cfg)
    if args.report:
        write_report(args.report, report)
    if not solve:
        witness_path = args.witness
        if witness_path is None:
            witness_path = os.path.splitext(args.input)[0] + ".witness"
        write_witness_file(witness_path, report)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report))
    else:
        print(render_cascade_summary(report, results=output.results if solve else None))
    return EXIT_OK


def _decode_report(report: dict):
    """(config, parameters, [(level, points)]) decoded from a report.

    The parameters are None when no witness point is stored: solve reports
    carry none.  The witness file is written from each set's slices, so they
    must equal the parameters' effective hyperplanes (JSON floats round-trip).
    """
    cfg = CascadeConfig.from_dict(report["config"])
    sets = [(ws["level"], [j2vec(p["coordinates"]) for p in ws["points"]])
            for ws in sorted(report.get("witness_sets", []), key=lambda w: -w["level"])]
    if not any(points for _, points in sets):
        return cfg, None, sets
    p = report["parameters"]
    params = ParameterSample(
        seed=int(p["seed"]), eta=complex(*p["eta"]),
        constants=j2vec([h["constant"] for h in p["hyperplanes"]]),
        coefficients=np.vstack([j2vec(h["coefficients"]) for h in p["hyperplanes"]]),
        lambda_matrix=np.vstack([j2vec(row) for row in p["lambda"]]))
    if any(w.shape != (params.n,) for _, points in sets for w in points):
        raise ValueError("witness points and parameters differ in length")
    for ws in report["witness_sets"]:
        level = ws["level"]
        constants = j2vec([sl["constant"] for sl in ws["slices"]])
        coefficients = np.array([j2vec(sl["coefficients"]) for sl in ws["slices"]])
        if not (1 <= level <= params.n
                and np.array_equal(constants, params.eff_constants[:level])
                and np.array_equal(coefficients, params.eff_coefficients[:level])):
            raise ValueError(f"dim {level} witness set disagrees with the parameters")
    return cfg, params, sets


def cmd_verify(args) -> int:
    try:
        report = load_report(args.report)
        cfg, params, witness_sets = _decode_report(report)
        if args.against is None:
            system = parse_system(report["input"]["source"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed report: {exc!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.against is not None:
        system = parse_system(_read_source(args.against))
    if not system.is_square():
        raise NonSquareSystemError(
            f"system has {system.n_polys} equations in {system.n_vars} variables")
    failures = 0
    checked = 0
    for level, points in witness_sets:
        for idx, w in enumerate(points):
            checked += 1
            if w.shape[0] != system.n_vars:
                print(f"dim {level} point {idx}: FAIL "
                      f"(dimension mismatch with target system)")
                failures += 1
                continue
            check = verify_witness(w, system, params, level, cfg)
            verdict = "PASS" if check["pass"] else "FAIL"
            print(f"dim {level} point {idx}: {verdict} (residual {check['residual']:.2e}, "
                  f"slice {check['slice_residual']:.2e}, drift {check['drift']:.2e})")
            failures += 0 if check["pass"] else 1
    if checked == 0:
        print("no witness points stored in report")
    print(f"{checked - failures}/{checked} witness points verified")
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = cmd_verify if args.command == "verify" else cmd_run
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ZeroPolynomialError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonSquareSystemError as exc:
        print(f"system is not square: {exc}", file=sys.stderr)
        return EXIT_NONSQUARE


if __name__ == "__main__":
    sys.exit(main())
