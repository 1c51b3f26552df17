#!/usr/bin/env python3
"""Benchmark of the polycascade command line, run from the checkout root.

    python3 perfbench/run.py --workload cyclic4-cascade --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One run is a closed loop with a single client: it draws operations from the
workload's seeded stream and calls ``polycascade.cli.main`` in this process,
one after another, until one more operation as long as the longest so far
would overrun ``--seconds``.  It always makes the workload's first
``measured_ops`` operations, and the wall time and the per-layer times are
taken over those alone, so every run of a seed times the same inputs.
Every report is checked against the workload's oracle and re-checked with
``polycascade.cli.main(["verify", report])``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The exit code is 1 when any operation failed
its oracle, failed ``verify`` or raised, and 2 when the program, an input
or a traced function is missing.

``--workload all`` runs every workload in its own process, prints each
metric by name and unit, and exits 1 if any workload failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CHECKOUT, WORKLOADS

SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"
SPANS = CHECKOUT / ".perfbench_out"
# fresh interpreters launched per run to time set-up; the median is reported
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def declared_units(kind: str) -> dict:
    """Units of the `end_to_end` or `per_layer` metrics declared in BENCHMARK.json."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class OpRecord:
    index: int
    seed: int
    seconds: float
    verify_seconds: float
    problems: list
    report_bytes: int = 0
    junk_points: int = 0


def tail(values: list):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None below eleven samples.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def junk_points(report: dict) -> int:
    """Points below the top dimension: lower-superset and unresolved level-0 points."""
    top = report.get("top_dimension")
    lower = sum(len(ws["points"]) for ws in report.get("witness_sets", [])
                if top is not None and ws["level"] < top)
    return lower + len(report.get("unresolved_level0", []))


def measure_setup() -> float:
    """Median seconds to start an interpreter and import polycascade.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polycascade.cli"],
                       env=env, cwd=CHECKOUT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(run, verify, op, workload, workdir: Path) -> OpRecord:
    """One operation through the CLI, then its oracle and `verify`."""
    report_path = workdir / f"report-{op.index}.json"
    witness_path = workdir / f"witness-{op.index}.txt"
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = run(op.argv(report_path, witness_path))
    except (Exception, SystemExit) as exc:  # an operation that raises is a failed one
        code = repr(exc)
    seconds = time.perf_counter() - t0
    record = OpRecord(op.index, op.seed, seconds, 0.0, [])
    if code != 0:
        record.problems.append(f"exit {code}")
        return record
    text = report_path.read_text(encoding="utf-8")
    if out.getvalue() != text:
        record.problems.append("stdout differs from the report file")
    report = json.loads(text)
    record.problems += workload.check(report, op)
    record.report_bytes = len(text.encode("utf-8"))
    record.junk_points = junk_points(report)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            verify_code = verify(["verify", str(report_path)])
    except (Exception, SystemExit) as exc:
        verify_code = repr(exc)
    record.verify_seconds = time.perf_counter() - t0
    if verify_code != 0:
        record.problems.append(f"verify exit {verify_code}")
    report_path.unlink()
    witness_path.unlink(missing_ok=True)
    return record


def run_loop(cli, workload, seed: int, seconds: float, tracer=None):
    """Closed loop of operations; returns their records and per-op trace statistics."""
    run, verify = cli.main, cli.main
    if tracer is not None:
        run, verify = tracer.span("bench.op", run), tracer.span("bench.verify", verify)
    rng = random.Random(seed)
    workdir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    records, op_stats = [], []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            op = workload.make_op(rng, len(records), workdir)
            if tracer is not None:
                tracer.op = op.index
            records.append(run_op(run, verify, op, workload, workdir))
            if tracer is not None:
                op_stats.append(tracer.take_stats())
            # past the measured prefix, stop before an operation as long as the
            # longest so far would overrun
            if (len(records) >= workload.measured_ops and
                    time.perf_counter() + max(r.seconds for r in records) > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return records, op_stats


def end_to_end_metrics(measured: list, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s.p50": statistics.median(r.seconds for r in measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, measured: list, op_stats: list) -> dict:
    """Per-layer metrics of the measured operations of a traced run.

    Counts are those of the run's first operation, whose input depends on
    the seed alone, so they repeat exactly; times average over the measured
    operations.  A share is a layer's self time over the traced operation
    time (run plus verify), summed over threads.
    """
    first = op_stats[0]
    n_ops = len(op_stats)
    paths = [p for p in tracer.paths if p[0] < n_ops]
    batches = [b for b in tracer.batches if b[0] < n_ops]

    def total(names, col):
        names = [names] if isinstance(names, str) else names
        return sum(s.get(n, (0, 0.0, 0.0, 0))[col] for s in op_stats for n in names)

    def calls0(name):
        return first.get(name, (0,))[0]

    def us(names):
        return 1e6 * _ratio(total(names, 1), total(names, 0))

    names = {n for s in op_stats for n in s}
    op_time = total(["bench.op", "bench.verify"], 1)

    def share(layer, exclude=()):
        own = [n for n in names if n.split(".")[0] == layer and n not in exclude]
        return _ratio(total(own, 2), op_time)

    paths0 = [p for p in paths if p[0] == 0]
    path_s = [p[1] for p in paths]
    path_tail = tail(path_s)
    steps0 = sum(p[3] for p in paths0)
    newton0 = sum(p[4] for p in paths0)
    attempts0 = calls0("tracking.euler_predict")
    batch_s = sum(b[1] for b in batches)
    busy_s = sum(b[1] * b[2] for b in batches)
    verdicts0 = [v[1] for v in tracer.verdicts if v[0] == 0]
    homotopy = "embedding.StartHomotopy.", "embedding.CascadeHomotopy."
    lu_calls0 = calls0("linalg.lu_factor")
    return {
        "polynomials.parse_ms": us("polynomials.parse_system") / 1e3,
        "polynomials.evaluate.calls": calls0("polynomials.PolynomialSystem.evaluate"),
        "polynomials.evaluate.us": us("polynomials.PolynomialSystem.evaluate"),
        "polynomials.jacobian.calls": calls0("polynomials.PolynomialSystem.jacobian"),
        "polynomials.jacobian.us": us("polynomials.PolynomialSystem.jacobian"),
        "polynomials.share": share("polynomials"),
        "linalg.lu_factor.calls": lu_calls0,
        "linalg.lu_factor.us": us("linalg.lu_factor"),
        "linalg.lu_solve.calls": calls0("linalg.lu_solve"),
        "linalg.lu_solve.us": us("linalg.lu_solve"),
        "linalg.condition_estimate.calls": calls0("linalg.condition_estimate"),
        "linalg.condition_estimate.us": us("linalg.condition_estimate"),
        "linalg.singular": _ratio(first.get("linalg.lu_factor", (0, 0, 0, 0))[3], lu_calls0),
        "linalg.share": share("linalg"),
        "embedding.value.us": us([h + "value" for h in homotopy]),
        "embedding.jacobian.us": us([h + "jacobian" for h in homotopy]),
        "embedding.s_derivative.us": us([h + "s_derivative" for h in homotopy]),
        "embedding.self_share": share("embedding"),
        "start_systems.share": share("start_systems"),
        "tracking.paths": len(paths0),
        "tracking.path_ms.p50": 1e3 * statistics.median(path_s) if path_s else 0.0,
        "tracking.path_ms.tail": 1e3 * path_tail[0] if path_tail else 0.0,
        "tracking.attempts": attempts0,
        "tracking.steps": steps0,
        "tracking.step_accept_ratio": _ratio(steps0, attempts0),
        "tracking.newton_iters": newton0,
        "tracking.newton_per_step": _ratio(newton0, steps0),
        "tracking.refine.calls": calls0("tracking.refine_endpoint"),
        "tracking.refine.us": us("tracking.refine_endpoint"),
        "tracking.converged": sum(p[2] == "converged" for p in paths0),
        "tracking.diverged": sum(p[2] == "diverged" for p in paths0),
        "tracking.failed": sum(p[2] == "failed" for p in paths0),
        "tracking.diverged_time_share": _ratio(
            sum(p[1] for p in paths if p[2] == "diverged"), sum(path_s)),
        # track_batch's own time is dispatch and, with threads, waiting
        "tracking.self_share": share("tracking", exclude=("tracking.track_batch",)),
        "tracking.batch_ms": 1e3 * _ratio(batch_s, len(batches)),
        "tracking.parallel_efficiency": _ratio(sum(path_s), busy_s),
        "cascade.track_ms": 1e3 * batch_s / n_ops,
        "cascade.classify_ms": 1e3 * total(
            ["cascade.run_cascade", "cascade.solve_total_degree"], 2) / n_ops,
        "cascade.verify_ms": 1e3 * total("cascade.verify_witness", 1) / n_ops,
        "cascade.verify.calls": len(verdicts0),
        "cascade.verify.pass_share": _ratio(sum(verdicts0), len(verdicts0)),
        "cascade.recycled_paths": sum(b[4] for b in batches if b[0] == 0),
        "cascade.junk_points": measured[0].junk_points,
        "report.build_ms": us("report.build_report") / 1e3,
        "report.dumps_ms": us("report.canonical_dumps") / 1e3,
        "report.bytes": measured[0].report_bytes,
        "cli.verify_ms": us("bench.verify") / 1e3,
        "traced.wall_s.p50": statistics.median(r.seconds for r in measured),
    }


def print_details(workload, records: list) -> None:
    """Human-readable lines before the result: each op, then the summary."""
    for r in records:
        verdict = "ok" if not r.problems else "FAIL " + "; ".join(r.problems)
        print(f"op {r.index:3d}  seed {r.seed:10d}  {r.seconds:8.3f} s  "
              f"verify {1e3 * r.verify_seconds:7.1f} ms  {verdict}")
    walls = [r.seconds for r in records]
    failed = sum(bool(r.problems) for r in records)
    found = tail(walls)
    tail_text = (f"{found[0]:.3f} s at p{found[1]:.1f} of {found[2]} ops" if found
                 else f"n/a ({len(walls)} ops, needs more than {TAIL_BEYOND})")
    print(f"{workload.name}: {len(records)} ops, wall_s.p50 over ops 0-"
          f"{workload.measured_ops - 1}, wall_s.tail {tail_text}, "
          f"census_fail_share {failed}/{len(records)}")


def run_workload(args) -> int:
    if not (SRC / "polycascade" / "__init__.py").is_file():
        print(f"polycascade sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from polycascade import cli

    workload = WORKLOADS[args.workload]
    if workload.system is not None and not (CHECKOUT / workload.system).is_file():
        print(f"input {workload.system} not found", file=sys.stderr)
        return 2
    measured = workload.measured_ops
    if args.trace:
        from tracer import Tracer, TargetMissing
        tracer = Tracer()
        try:
            with tracer:
                records, op_stats = run_loop(cli, workload, args.seed, args.seconds,
                                             tracer)
        except TargetMissing as exc:
            print(exc, file=sys.stderr)
            return 2
        metrics = layer_metrics(tracer, records[:measured], op_stats[:measured])
        SPANS.mkdir(exist_ok=True)
        tracer.write_spans(SPANS / f"spans-{workload.name}-s{args.seed}.tsv.gz")
        units = declared_units("per_layer")
    else:
        setup_s = measure_setup()
        records, _ = run_loop(cli, workload, args.seed, args.seconds)
        metrics = end_to_end_metrics(records[:measured], setup_s)
        units = declared_units("end_to_end")
    print_details(workload, records)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    failed = sum(bool(r.problems) for r in records)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 1 if failed else 0


def run_one(name: str, seed: int, seconds: float, trace: int):
    """One run of a workload in its own process.

    Returns (exit code, result or None, the output lines before the result,
    standard error).
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None, lines, proc.stderr
    return proc.returncode, result, lines[:-1], proc.stderr


def run_all(args) -> int:
    """Every workload in its own process; a table of metrics by name and unit."""
    status = 0
    for name in WORKLOADS:
        code, result, lines, stderr = run_one(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{name}: no result (exit {code})\n{stderr}")
            status = 1
            continue
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for line in lines:
            if not line.startswith("op "):
                print(f"  {line}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
        if code != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
