"""Run reports: JSON serialization, tables, and witness files.

Reports are plain JSON dicts with complex numbers stored as [re, im] pairs
and a non-finite residual or condition stored as null, so any strict JSON
parser reads them.  Serialization is canonical (sorted keys, fixed
indentation, trailing newline) so that dump -> load -> dump is
byte-identical and two runs with the same seed differ only in the wall_ms
timing fields.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np

from . import __version__
from .cascade import CascadeConfig, CascadeOutput
from .embedding import ParameterSample

SUPERSET_LABEL = "witness superset (may contain points of higher-dimensional components)"


def _c2j(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _vec2j(v) -> list:
    return [_c2j(z) for z in np.asarray(v).ravel()]


def _j2c(pair) -> complex:
    return complex(pair[0], pair[1])


def j2vec(pairs) -> np.ndarray:
    """Decode a list of [re, im] pairs back into a complex vector."""
    return np.array([_j2c(p) for p in pairs], dtype=np.complex128)


def _finite_or_null(value) -> float | None:
    """JSON has no infinity: a non-finite residual or condition is null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _null_as_inf(value) -> float:
    return math.inf if value is None else value


def _point2j(p) -> dict:
    return {
        "coordinates": _vec2j(p.x),
        "multiplicity": int(p.multiplicity),
        "residual": _finite_or_null(p.residual),
        "condition": _finite_or_null(p.condition),
    }


def _hyperplanes2j(constants, coefficients) -> list:
    """Hyperplanes constants[j] + coefficients[j] . x as JSON objects."""
    return [{"constant": _c2j(c), "coefficients": _vec2j(a)}
            for c, a in zip(constants, coefficients)]


def source_digest(source: str) -> str:
    return "sha256:" + hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_solve_report(output: CascadeOutput, source: str,
                       cfg: CascadeConfig) -> dict:
    return {
        "kind": "solve",
        "version": __version__,
        "input": {"digest": source_digest(source), "source": source},
        "seed": int(output.seed),
        "config": cfg.to_dict(),
        "gamma": _c2j(output.gamma),
        "start_constants": _vec2j(output.start_constants),
        "levels": [asdict(s) for s in output.stats],
        "isolated_solutions": [_point2j(p) for p in output.isolated_solutions],
        "unresolved_level0": [_point2j(p) for p in output.unresolved_level0],
        "total_paths": int(output.total_paths),
    }


def build_cascade_report(output: CascadeOutput, source: str,
                         cfg: CascadeConfig) -> dict:
    """The solve report plus the parameters, witness sets and top dimension."""
    params = output.parameters
    report = build_solve_report(output, source, cfg)
    report["kind"] = "cascade"
    report["parameters"] = {
        "seed": int(params.seed),
        "eta": _c2j(params.eta),
        "hyperplanes": _hyperplanes2j(params.constants, params.coefficients),
        "lambda": [_vec2j(row) for row in params.lambda_matrix],
    }
    # from the top level down, as the cascade emits them; every reader keeps the order
    report["witness_sets"] = [{
        "level": int(ws.level),
        "label": "witness set" if ws.level == params.n - 1 else SUPERSET_LABEL,
        "points": [_point2j(p) for p in ws.points],
        # the effective (eta-absorbed) hyperplanes that slice this dimension
        "slices": _hyperplanes2j(params.eff_constants[:ws.level],
                                 params.eff_coefficients[:ws.level]),
        "filtered_out": int(ws.filtered_out),
    } for ws in output.supersets]
    report["top_dimension"] = (None if output.top_dimension is None
                               else int(output.top_dimension))
    return report


def canonical_dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(report))


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def decode_report(report: dict):
    """(config, parameters, [(level, points)]) decoded from a report.

    The parameters are None only for a report with neither parameters nor
    witness sets, as a solve report is.  Every witness set is checked against
    them, whether or not it holds points: its points must have their length,
    its level must lie in 1..n and its slices must be the ones they give
    (JSON floats round-trip), since the witness file is written from them.
    """
    cfg = CascadeConfig.from_dict(report["config"])
    stored = report.get("witness_sets", [])
    sets = [(ws["level"], [j2vec(p["coordinates"]) for p in ws["points"]]) for ws in stored]
    if not sets and "parameters" not in report:
        return cfg, None, sets
    p = report["parameters"]
    params = ParameterSample(
        seed=int(p["seed"]), eta=complex(*p["eta"]),
        constants=j2vec([h["constant"] for h in p["hyperplanes"]]),
        coefficients=np.vstack([j2vec(h["coefficients"]) for h in p["hyperplanes"]]),
        lambda_matrix=np.vstack([j2vec(row) for row in p["lambda"]]))
    if any(w.shape != (params.n,) for _, points in sets for w in points):
        raise ValueError("witness points and parameters differ in length")
    for ws in stored:
        level = ws["level"]
        if not 1 <= level <= params.n or ws["slices"] != _hyperplanes2j(
                params.eff_constants[:level], params.eff_coefficients[:level]):
            raise ValueError(f"dim {level} witness set disagrees with the parameters")
    return cfg, params, sets


def strip_timing_fields(report: dict) -> dict:
    """Copy of the report with every wall_ms zeroed, for run comparisons."""
    clone = json.loads(json.dumps(report))
    for row in clone.get("levels", []):
        row["wall_ms"] = 0.0
    return clone


def render_cascade_table(report: dict) -> str:
    """Per-level path accounting in the four-bucket layout.

    Columns: paths tracked, endpoints on all of the level's slices (slack
    z = 0 in the paper's notation), nonsingular endpoints off them (recycled
    downward; isolated solutions at level 0), diverged paths, and
    singular/unresolved leftovers.
    """
    headers = ["system", "#paths", "z = 0", "z != 0", "-> inf", "failed", "time"]
    rows = [[f"E_{s['level']}", s["n_paths"], s["on_component"], s["regular"],
             s["diverged"], s["unresolved"], f"{s['wall_ms'] / 1000.0:.2f}s"]
            for s in report["levels"]]
    total_ms = sum(s["wall_ms"] for s in report["levels"])
    rows.append(["total", report["total_paths"], "", "", "", "", f"{total_ms / 1000.0:.2f}s"])
    widths = [max(len(str(r[k])) for r in rows + [headers]) for k in range(len(headers))]
    return "\n".join("  ".join(f"{v:>{w}}" for v, w in zip(r, widths))
                     for r in [headers] + rows)


def _fmt_complex(z, prec: int = 12) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    return f"{re:+.{prec}e} {im:+.{prec}e}"


def _point_line(p: dict, prec: int, sep: str, num: str) -> str:
    """A stored point: its coordinates, multiplicity, residual and condition."""
    coords = sep.join(_fmt_complex(_j2c(c), prec) for c in p["coordinates"])
    return sep.join([coords, f"mult {p['multiplicity']}",
                     f"residual {_null_as_inf(p['residual']):{num}}",
                     f"condition {_null_as_inf(p['condition']):{num}}"])


def _render_points(points: list) -> list:
    return ["  " + _point_line(p, 12, "  ", ".2e") for p in points]


def render_cascade_summary(report: dict, results=None) -> str:
    """The per-level table, the witness sets and level 0, then a closing line.

    Serves solve and cascade reports alike; given the level-0 path results,
    one line per path comes first.
    """
    lines = []
    if results is not None:
        for r in results:
            coords = "  ".join(_fmt_complex(z) for z in r.endpoint)
            lines.append(f"path {r.start_index:3d}  {r.status.value:>9}  {coords}"
                         f"  residual {r.residual:.2e}  condition {r.condition:.2e}")
        lines.append("")
    lines += [render_cascade_table(report), ""]
    for ws in report.get("witness_sets", []):
        if not (ws["points"] or ws["filtered_out"]):
            continue
        lines.append(f"dimension {ws['level']}: {len(ws['points'])} witness point(s)"
                     + (f" [{ws['filtered_out']} filtered]" if ws["filtered_out"] else "")
                     + f" -- {ws['label']}")
        lines.extend(_render_points(ws["points"]))
    isolated, unresolved = report["isolated_solutions"], report["unresolved_level0"]
    if isolated:
        lines.append(f"isolated solutions: {len(isolated)}")
        lines.extend(_render_points(isolated))
    if unresolved:
        lines.append(f"singular/unresolved endpoints: {len(unresolved)} cluster(s)")
        lines.extend(_render_points(unresolved))
    lines.append("")
    # a solve report has no top_dimension: it looks for isolated solutions only
    top = report.get("top_dimension")
    if top:
        lines.append(f"top dimension: {top}")
    elif isolated:
        lines.append(("no positive-dimensional components detected; " if top == 0 else "")
                     + f"{len(isolated)} isolated solution(s)")
    elif unresolved:
        lines.append(f"no regular solutions; {len(unresolved)} singular/unresolved cluster(s)")
    else:
        lines.append("no solutions detected")
    return "\n".join(lines)


def write_witness_file(path: str, report: dict) -> None:
    """Witness points grouped by dimension, with their slicing hyperplanes.

    Numbers are written as re/im pairs; each point line carries the
    coordinates followed by multiplicity, residual, condition.
    """
    lines = [
        "# witness points grouped by dimension",
        f"# input {report['input']['digest']}",
        f"# seed {report['seed']}",
    ]
    stored = [ws for ws in report.get("witness_sets", []) if ws["points"]]
    for ws in stored:
        lines.append(f"dim {ws['level']}")
        for j, sl in enumerate(ws["slices"], start=1):
            coeffs = " ".join(_fmt_complex(_j2c(c), 17) for c in sl["coefficients"])
            lines.append(f"slice {j}: {_fmt_complex(_j2c(sl['constant']), 17)} {coeffs}")
        lines.extend(_point_line(p, 17, " ", ".16e") for p in ws["points"])
    if not stored:
        lines.append("# no witness points")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
