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
from .cascade import CascadeConfig, NonSquareSystemError, run_cascade, solve_total_degree
from .polynomials import ParseError, parse_system
from .report import (build_cascade_report, build_solve_report, canonical_dumps,
                     j2vec, load_report, render_cascade_summary,
                     render_solve_listing, write_report, write_witness_file)
from .start_systems import ZeroPolynomialError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONSQUARE = 3
EXIT_CONFIG = 4
EXIT_VERIFY = 5


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="polynomial system file")
    sub.add_argument("--seed", type=int, default=0, help="random seed (64-bit)")
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
    settings["seed"] = args.seed
    if args.tol_z is not None:
        settings["tol_z"] = args.tol_z
    if args.cond_max is not None:
        settings["cond_max"] = args.cond_max
    if args.threads is not None:
        settings["threads"] = args.threads
    if args.newton_tol is not None:
        tracker = dict(settings.get("tracker", {}))
        tracker["newton_tol"] = args.newton_tol
        settings["tracker"] = tracker
    return CascadeConfig.from_dict(settings)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_solve(args) -> int:
    cfg = _load_config_or_exit(args)
    if cfg is None:
        return EXIT_CONFIG
    source = _read_source(args.input)
    system = parse_system(source)
    output = solve_total_degree(system, cfg)
    report = build_solve_report(output, source, cfg)
    if args.report:
        write_report(args.report, report)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report))
    else:
        print(render_solve_listing(report, results=output.results))
    return EXIT_OK


def cmd_cascade(args) -> int:
    cfg = _load_config_or_exit(args)
    if cfg is None:
        return EXIT_CONFIG
    source = _read_source(args.input)
    system = parse_system(source)
    output = run_cascade(system, cfg)
    report = build_cascade_report(output, source, cfg)
    if args.report:
        write_report(args.report, report)
    witness_path = args.witness
    if witness_path is None:
        witness_path = os.path.splitext(args.input)[0] + ".witness"
    write_witness_file(witness_path, report)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report))
    else:
        print(render_cascade_summary(report))
    return EXIT_OK


def _load_config_or_exit(args):
    try:
        return _build_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return None


def _decode_witness_sets(report: dict):
    """(residual tolerance, [(level, slices, points)]) decoded from a report."""
    tol = float(report["config"]["residual_tol"])
    sets = []
    for ws in sorted(report.get("witness_sets", []), key=lambda w: -w["level"]):
        slices = [(complex(sl["constant"][0], sl["constant"][1]),
                   j2vec(sl["coefficients"])) for sl in ws["slices"]]
        points = [j2vec(p["coordinates"]) for p in ws["points"]]
        if any(a.shape != w.shape for _, a in slices for w in points):
            raise ValueError(f"dim {ws['level']}: slice and point lengths differ")
        sets.append((ws["level"], slices, points))
    return tol, sets


def cmd_verify(args) -> int:
    own = args.against is None
    try:
        report = load_report(args.report)
        tol, witness_sets = _decode_witness_sets(report)
        if own:
            system = parse_system(report["input"]["source"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed report: {exc!r}", file=sys.stderr)
        return EXIT_INPUT
    if not own:
        system = parse_system(_read_source(args.against))
    failures = 0
    checked = 0
    for level, slices, points in witness_sets:
        for idx, w in enumerate(points):
            if w.shape[0] != system.n_vars:
                print(f"dim {level} point {idx}: FAIL "
                      f"(dimension mismatch with target system)")
                failures += 1
                checked += 1
                continue
            residual = float(np.max(np.abs(system.evaluate(w))))
            parts = [f"residual {residual:.2e}"]
            ok = residual <= tol
            if own:
                slice_res = max((abs(c + a @ w) for c, a in slices), default=0.0)
                parts.append(f"slice {slice_res:.2e}")
                ok = ok and slice_res <= tol
            verdict = "PASS" if ok else "FAIL"
            print(f"dim {level} point {idx}: {verdict} ({', '.join(parts)})")
            checked += 1
            failures += 0 if ok else 1
    if checked == 0:
        print("no witness points stored in report")
    print(f"{checked - failures}/{checked} witness points verified")
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "cascade": cmd_cascade,
               "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZeroPolynomialError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonSquareSystemError as exc:
        print(f"system is not square: {exc}", file=sys.stderr)
        return EXIT_NONSQUARE


if __name__ == "__main__":
    sys.exit(main())
