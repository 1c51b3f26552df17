#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline/untraced.json
    python3 perfbench/sweep.py --seeds 1-3 --trace 1 --out perfbench/baseline/traced.json

Runs ``run.py`` once per workload and seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json`` each.  It writes every run's result
and operation lines and, per workload and metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles over the median.  The machine facts and the
load average at the start are recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from run import run_one
from workloads import CHECKOUT


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, as 1-10")
    parser.add_argument("--workload", action="append",
                        help="workloads to run (default: those in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"machine": machine_facts(), "seconds": seconds, "trace": args.trace,
           "runs": {}, "summary": {}}
    status = 0
    for name in workloads:
        runs = out["runs"][name] = {}
        for seed in parse_seeds(args.seeds):
            code, result, lines, stderr = run_one(name, seed, seconds, args.trace)
            if result is None:
                print(f"{name} seed {seed}: no result (exit {code})\n{stderr}",
                      file=sys.stderr)
                status = 1
                continue
            runs[str(seed)] = dict(result, log=lines)
            status |= code != 0 or not result["correct"]
            brief = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                              if not k.endswith(".calls"))
            print(f"{name} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}  {brief}", flush=True)
        if not runs:
            continue
        metrics = next(iter(runs.values()))["metrics"]
        out["summary"][name] = {
            metric: dict(unit=metrics[metric]["unit"], **summarise(
                [r["metrics"][metric]["value"] for r in runs.values()]))
            for metric in metrics} if len(runs) > 1 else {}
        for metric, s in out["summary"][name].items():
            print(f"  {name} {metric}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.3f}")
    out["machine"]["loadavg_at_end"] = list(os.getloadavg())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
