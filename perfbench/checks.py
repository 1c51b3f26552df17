#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the checkout root:

    python3 perfbench/checks.py --seed 1

For every workload it runs one operation untraced and two traced, all on
the same input, and checks that

1. the oracle accepts the real report and rejects three doctored copies of
   it (a dropped witness point or solution, an extra isolated solution, a
   wrong top dimension), so a failure share of 0 is not 0 by construction;
2. tracing only observes: the traced and untraced reports are byte-identical
   once ``report.strip_timing_fields`` has zeroed the timings;
3. the two traced runs give identical call and iteration counts.

Exits 1 if any check fails, and 2 if the program or a traced function is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import random
import shutil
import sys
import time

from run import SRC, WORK, OpRecord, junk_points, layer_metrics
from workloads import WORKLOADS

REPEATED_COUNTS = ("polynomials.jacobian.calls", "linalg.lu_factor.calls",
                   "tracking.attempts", "tracking.newton_iters", "tracking.paths")


def doctored(report: dict) -> list:
    """(label, copy) pairs, each breaking the census in one way."""
    sample = next((p for ws in report.get("witness_sets", []) for p in ws["points"]),
                  None) or report["isolated_solutions"][0]
    dropped = copy.deepcopy(report)
    top = report.get("top_dimension")
    if report["kind"] == "cascade":
        label = "dropped witness point"
        next(ws for ws in dropped["witness_sets"] if ws["level"] == top)["points"].pop()
    else:
        label = "dropped isolated solution"
        dropped["isolated_solutions"].pop()
    extra = copy.deepcopy(report)
    extra["isolated_solutions"].append(copy.deepcopy(sample))
    wrong_top = copy.deepcopy(report)
    wrong_top["top_dimension"] = (top or 0) + 1
    return [(label, dropped), ("extra isolated solution", extra),
            ("wrong top dimension", wrong_top)]


def one_op(cli, workload, seed: int, tracer=None):
    """Operation 0 of the seed's stream: (op, report, per-layer metrics or None)."""
    workdir = WORK / f"checks-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        op = workload.make_op(random.Random(seed), 0, workdir)
        report_path = workdir / "report.json"
        call = cli.main if tracer is None else tracer.span("bench.op", cli.main)
        if tracer is not None:
            tracer.op = 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(op.argv(report_path, workdir / "witness.txt"))
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"{workload.name}: exit {code}")
        text = report_path.read_text(encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    report = json.loads(text)
    metrics = None
    if tracer is not None:
        record = OpRecord(0, op.seed, seconds, 0.0, [], len(text.encode("utf-8")),
                          junk_points(report))
        metrics = layer_metrics(tracer, [record], [tracer.take_stats()])
    return op, report, metrics


def check_workload(cli, report_module, tracer_class, workload, seed: int) -> list:
    failures = []
    op, report, _ = one_op(cli, workload, seed)
    problems = workload.check(report, op)
    if problems:
        failures.append(f"oracle rejects the real report: {problems}")
    for label, bad in doctored(report):
        rejected = workload.check(bad, op)
        if rejected:
            print(f"{workload.name}: {label} rejected: {rejected[0]}")
        else:
            failures.append(f"oracle accepts a report with a {label}")

    traced = []
    for _ in range(2):
        with tracer_class() as tracer:
            traced.append(one_op(cli, workload, seed, tracer))
    plain = report_module.canonical_dumps(report_module.strip_timing_fields(report))
    for _, traced_report, _ in traced:
        if report_module.canonical_dumps(
                report_module.strip_timing_fields(traced_report)) != plain:
            failures.append("traced report differs from the untraced one")
    counts = [{name: m[name] for name in REPEATED_COUNTS} for _, _, m in traced]
    if counts[0] != counts[1]:
        failures.append(f"traced counts differ between runs: {counts}")
    print(f"{workload.name}: counts {counts[0]}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (SRC / "polycascade" / "__init__.py").is_file():
        print(f"polycascade sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from polycascade import cli, report as report_module
    from tracer import Tracer, TargetMissing

    status = 0
    for name in WORKLOADS:
        try:
            failures = check_workload(cli, report_module, Tracer, WORKLOADS[name],
                                      args.seed)
        except TargetMissing as exc:
            print(exc, file=sys.stderr)
            return 2
        for failure in failures:
            print(f"{name}: FAIL {failure}")
        if not failures:
            print(f"{name}: PASS (oracle rejects 3 doctored reports, tracing only "
                  f"observes, traced counts repeat)")
        status |= bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main())
