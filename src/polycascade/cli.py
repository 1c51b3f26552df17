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

from . import __version__
from .cascade import (CascadeConfig, NonSquareSystemError, _require_square,
                      run_cascade, solve_total_degree, verify_witness)
from .embedding import embed
from .polynomials import ParseError, parse_system
from .report import (build_cascade_report, build_solve_report, canonical_dumps,
                     decode_report, load_report, render_cascade_summary,
                     write_report, write_witness_file)
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
    for name in ("seed", "threads"):
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
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


def cmd_verify(args) -> int:
    try:
        report = load_report(args.report)
        cfg, params, witness_sets = decode_report(report)
        if args.against is None:
            system = parse_system(report["input"]["source"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed report: {exc!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.against is not None:
        system = parse_system(_read_source(args.against))
    _require_square(system)
    failures = 0
    checked = 0
    for level, points in witness_sets:
        # decode_report gives every point the parameters' length
        matched = points and params.n == system.n_vars
        embedded = embed(system, params, level) if matched else None
        for idx, w in enumerate(points):
            checked += 1
            if embedded is None:
                print(f"dim {level} point {idx}: FAIL "
                      f"(dimension mismatch with target system)")
                failures += 1
                continue
            check = verify_witness(w, embedded, cfg)
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
    except (ZeroPolynomialError, OverflowError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonSquareSystemError as exc:
        print(f"system is not square: {exc}", file=sys.stderr)
        return EXIT_NONSQUARE


if __name__ == "__main__":
    sys.exit(main())
