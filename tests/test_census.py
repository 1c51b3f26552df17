"""Path-census snapshot: the guard for changes that alter the numerics.

A change to evaluation or linear algebra moves the low-order bits of every
report, so byte comparison is useless; what must not move is the census of
each run: per-level path classes, witness counts and multiplicities, the
isolated and unresolved counts, and the top dimension.  tests/data/census.json
pins these for fixed systems and seeds.  Regenerate it, only when a census
change is intended and understood, with

    PYTHONPATH=src python tests/test_census.py
"""

import json
import sys
from pathlib import Path

import pytest

from polycascade.cascade import CascadeConfig, run_cascade, solve_total_degree
from polycascade.polynomials import load_system

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "census.json"

# (system file relative to the repository root, command, seeds)
CASES = [
    ("systems/worked_example.sys", "cascade", (1, 2, 3)),
    ("systems/worked_example.sys", "solve", (1, 2, 3)),
    ("systems/lines2.sys", "cascade", (1, 2, 3)),
    ("systems/lines2.sys", "solve", (1, 2, 3)),
    ("systems/cyclic4.sys", "cascade", (1, 2, 3)),
    ("systems/three_spheres.sys", "cascade", (1, 2, 3)),
    ("perfbench/inputs/sphere_point.sys", "cascade", (1, 2, 3)),
    ("perfbench/inputs/sphere_point.sys", "solve", (1, 2, 3)),
]


def _level(stats) -> dict:
    return {"level": stats.level, "n_paths": stats.n_paths,
            "on_component": stats.on_component, "regular": stats.regular,
            "diverged": stats.diverged, "unresolved": stats.unresolved}


def census(system_file: str, command: str, seed: int) -> dict:
    f = load_system(ROOT / system_file)
    cfg = CascadeConfig(seed=seed)
    if command == "solve":
        out = solve_total_degree(f, cfg)
        return {"levels": [_level(s) for s in out.stats],
                "isolated": len(out.isolated_solutions),
                "unresolved": len(out.unresolved_level0),
                "total_paths": out.total_paths}
    out = run_cascade(f, cfg)
    return {"levels": [_level(s) for s in out.stats],
            "witness_sets": [{"level": ws.level,
                              "multiplicities": [p.multiplicity for p in ws.points],
                              "filtered_out": ws.filtered_out}
                             for ws in out.supersets],
            "isolated": len(out.isolated_solutions),
            "unresolved": len(out.unresolved_level0),
            "top_dimension": out.top_dimension,
            "total_paths": out.total_paths}


def _case_id(system_file: str, command: str, seed: int) -> str:
    return f"{Path(system_file).stem}-{command}-seed{seed}"


CASE_IDS = [(s, c, k) for s, c, seeds in CASES for k in seeds]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("system_file,command,seed", CASE_IDS,
                         ids=[_case_id(*case) for case in CASE_IDS])
def test_census_matches_snapshot(pinned, system_file, command, seed):
    assert census(system_file, command, seed) == pinned[_case_id(system_file, command, seed)]


def test_snapshot_covers_exactly_the_cases(pinned):
    assert sorted(pinned) == sorted(_case_id(*case) for case in CASE_IDS)


if __name__ == "__main__":
    snapshot = {_case_id(*case): census(*case) for case in CASE_IDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.stdout.write(f"wrote {len(snapshot)} censuses to {FIXTURE}\n")
