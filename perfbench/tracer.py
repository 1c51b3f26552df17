"""Span tracing of polycascade from outside the package.

The tracer wraps the public functions of each ``polycascade`` module in the
namespace where the caller looks them up (``tracking.lu_factor``,
``cascade.track_batch``, ``cli.run_cascade``, ...) and the methods of the
system and homotopy classes.  Nothing under ``src/`` changes; uninstalling
restores every original.  A target the package no longer has stops the
run with ``TargetMissing``, so no per-layer metric can silently read 0.
The private ``_eval_terms`` is left alone: it is called hundreds of
thousands of times per operation.

A span records its name, start, end, parent and operation id.  Each thread
keeps its own span stack, so spans of a tracking thread pool nest within
their thread.  Spans stay in memory until the run ends; per-name call
statistics are kept per thread and merged after each operation.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
from array import array
from time import perf_counter

# (module, attribute, span name): functions patched where they are looked up
FUNCTION_TARGETS = [
    ("cli", "parse_system", "polynomials.parse_system"),
    ("cli", "run_cascade", "cascade.run_cascade"),
    ("cli", "solve_total_degree", "cascade.solve_total_degree"),
    ("cli", "build_cascade_report", "report.build_report"),
    ("cli", "build_solve_report", "report.build_report"),
    ("cli", "write_report", "report.write_report"),
    ("cli", "write_witness_file", "report.write_witness_file"),
    ("cli", "canonical_dumps", "report.canonical_dumps"),
    ("cli", "load_report", "report.load_report"),
    ("report", "canonical_dumps", "report.canonical_dumps"),
    ("cascade", "embed", "embedding.embed"),
    ("cascade", "sample_parameters", "embedding.sample_parameters"),
    ("cascade", "build_start_system", "start_systems.build_start_system"),
    ("cascade", "track_batch", "tracking.track_batch"),
    ("cascade", "refine_endpoint", "tracking.refine_endpoint"),
    ("cascade", "verify_witness", "cascade.verify_witness"),
    ("cascade", "cluster_witnesses", "cascade.cluster_witnesses"),
    ("tracking", "track_path", "tracking.track_path"),
    ("tracking", "euler_predict", "tracking.euler_predict"),
    ("tracking", "newton_correct", "tracking.newton_correct"),
    ("tracking", "refine_endpoint", "tracking.refine_endpoint"),
    ("tracking", "lu_factor", "linalg.lu_factor"),
    ("tracking", "lu_solve", "linalg.lu_solve"),
    ("tracking", "condition_estimate", "linalg.condition_estimate"),
]

# (module, class, methods): patched on the class, span name module.Class.method
METHOD_TARGETS = [
    ("polynomials", "PolynomialSystem", ("evaluate", "jacobian")),
    ("embedding", "EmbeddedSystem", ("evaluate", "jacobian")),
    ("embedding", "StartHomotopy", ("value", "jacobian", "s_derivative", "target_residual")),
    ("embedding", "CascadeHomotopy", ("value", "jacobian", "s_derivative", "target_residual")),
    ("start_systems", "StartSystem", ("evaluate", "jacobian", "root")),
]

# one row per span in Tracer.spans
SPAN_FIELDS = ("id", "parent", "name", "op", "start", "end")
# spans are kept for the first SPAN_OPS operations, about 250k spans (12 MB)
# per cyclic-4 cascade; call statistics cover every operation
SPAN_OPS = 1


class TargetMissing(LookupError):
    """A function or method the tracer wraps is no longer in the package."""


class _ThreadState:
    def __init__(self):
        self.stack = []   # [span id, seconds covered by children]
        self.stats = {}   # name id -> [calls, inclusive s, self s, raised]


class Tracer:
    """Collects spans and per-name call statistics while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._saved: list = []
        self.op = -1
        self.spans = array("d")
        # per-name observations of return values: (op, ...) tuples
        self.paths: list = []     # (op, seconds, status, steps, newton iters)
        self.batches: list = []   # (op, seconds, threads, paths, recycled)
        self.verdicts: list = []  # (op, passed)

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name: str, fn, observe=None):
        """Return fn wrapped so that each call records one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            raised = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                row = state.stats.get(nid)
                if row is None:
                    row = state.stats[nid] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                row[3] += raised
                if self.op < SPAN_OPS:
                    # one extend call is atomic under the interpreter lock
                    self.spans.extend((sid, parent, nid, self.op, t0, t1))
            if observe is not None:
                observe(self.op, dur, result, args, kwargs)
            return result

        return traced

    def take_stats(self) -> dict:
        """Merge and reset the per-thread statistics: {name: [calls, incl, self, raised]}."""
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for nid, row in state.stats.items():
                acc = merged.setdefault(self.names[nid], [0, 0.0, 0.0, 0])
                for k in range(4):
                    acc[k] += row[k]
            state.stats = {}
        return merged

    # -- observers of return values -------------------------------------------

    def _observe_path(self, op, dur, result, args, kwargs):
        self.paths.append((op, dur, result.status.value, result.steps_taken,
                           result.newton_iters))

    def _observe_batch(self, op, dur, result, args, kwargs):
        threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
        recycled = len(result) if type(args[0]).__name__ == "CascadeHomotopy" else 0
        self.batches.append((op, dur, threads, len(result), recycled))

    def _observe_verdict(self, op, dur, result, args, kwargs):
        self.verdicts.append((op, bool(result["pass"])))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every target; raise TargetMissing, patching nothing, if any is gone."""
        observers = {"tracking.track_path": self._observe_path,
                     "tracking.track_batch": self._observe_batch,
                     "cascade.verify_witness": self._observe_verdict}
        patches, missing = [], []
        for module_name, attr, name in FUNCTION_TARGETS:
            module = importlib.import_module(f"polycascade.{module_name}")
            if hasattr(module, attr):
                patches.append((module, attr, getattr(module, attr), name))
            else:
                missing.append(f"{module_name}.{attr}")
        for module_name, cls_name, methods in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"polycascade.{module_name}"),
                          cls_name, None)
            for attr in methods:
                if cls is not None and attr in cls.__dict__:
                    patches.append((cls, attr, cls.__dict__[attr],
                                    f"{module_name}.{cls_name}.{attr}"))
                else:
                    missing.append(f"{module_name}.{cls_name}.{attr}")
        if missing:
            raise TargetMissing(
                f"traced functions missing from the package: {missing}")
        for owner, attr, original, name in patches:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as gzip'd tab-separated rows, names resolved."""
        width = len(SPAN_FIELDS)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for k in range(0, len(self.spans), width):
                sid, parent, nid, op, t0, t1 = self.spans[k:k + width]
                fh.write(f"{int(sid)}\t{int(parent)}\t{self.names[int(nid)]}\t"
                         f"{int(op)}\t{t0:.9f}\t{t1:.9f}\n")

