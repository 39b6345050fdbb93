"""Correctness checks on the files one CLI call wrote.

The checks hold for any correct version of the program rather than pinning
today's numbers: a later change may legitimately move df, iterations or
the selected cell.

Each check returns an Outcome. `problems` are violations of correctness,
and one that concerns the whole call fails every operation of it. `notes`
are operations the program itself reported as failed (non-convergence, a
singular sensitivity system): they count as failed operations but are not
wrong output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

# `trace_v == n_hat - df` is exact because psi' is 0 or 1 for both losses.
TRACE_V_REL_TOL = 1e-9
SIM_METRIC_COLUMNS = slice(4, 15)


@dataclass
class Outcome:
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def whole_call(self, ops: int, problems) -> "Outcome":
        self.problems.extend(problems)
        if self.problems:
            self.failed = ops
        return self


def _schema(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "hubertune" / "schemas" / name).read_text())


def _validate(doc, schema) -> list:
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {e.message}" for e in validator.iter_errors(doc)]


def _load_json(path: Path):
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"cannot read {path.name}: {exc}"]


def check_select(root: Path, call) -> Outcome:
    out = Outcome()
    doc, problems = _load_json(call.outputs["report"])
    if doc is None:
        return out.whole_call(call.ops, problems)
    problems = _validate(doc, _schema(root, "select_report.schema.json"))
    if problems:
        return out.whole_call(call.ops, problems)
    cands = doc["candidates"]
    if len(cands) != call.ops:
        return out.whole_call(call.ops, [f"{len(cands)} candidates, {call.ops} grid cells"])

    for c in cands:
        singular = (c["reason"] or "").startswith("sensitivity system singular")
        if not c["converged"] or singular:
            out.failed += 1
            out.notes.append(f"cell {c['index']}: converged={c['converged']} reason={c['reason']}")
        if c["feasible"] != (c["constraint_ok"] and c["crit_defined"]):
            problems.append(f"cell {c['index']}: feasible flag disagrees with its fields")
    feasible = [c for c in cands if c["feasible"]]
    if any(c["crit_adaptive"] is None for c in feasible):
        return out.whole_call(call.ops, ["a feasible cell has no crit_adaptive"])
    ranking = [c["index"] for c in sorted(feasible, key=lambda c: (c["crit_adaptive"], c["index"]))]
    if doc["ranking"] != ranking:
        problems.append(f"ranking {doc['ranking']} is not the feasible cells sorted {ranking}")
    expected = ranking[0] if ranking else None
    if doc["selected_index"] != expected:
        problems.append(f"selected {doc['selected_index']}, argmin of crit_adaptive is {expected}")
    return out.whole_call(call.ops, problems)


def check_simulate(root: Path, call) -> Outcome:
    out = Outcome()
    config, problems = _load_json(call.inputs["config"])
    if config is None:
        return out.whole_call(call.ops, problems)
    problems = _validate(config, _schema(root, "sim_config.schema.json"))
    try:
        with open(call.outputs["records"], newline="") as fh:
            rows = list(csv.reader(fh))
        with open(call.outputs["aggregate"], newline="") as fh:
            aggregate = list(csv.reader(fh))
    except OSError as exc:
        return out.whole_call(call.ops, problems + [f"missing output: {exc}"])
    header, records = rows[0], rows[1:]
    if len(records) != call.ops:
        return out.whole_call(call.ops, problems + [f"{len(records)} records, expected {call.ops}"])
    if len(aggregate) != 1 + len(config["grid"]):
        problems.append(f"aggregate has {len(aggregate) - 1} rows, grid has {len(config['grid'])}")
    pivots = sorted(p.name for p in Path(call.outputs["pivots"]).glob("pivot_*.csv"))
    expected_pivots = sorted(f"pivot_{m}.csv" for m in header[SIM_METRIC_COLUMNS])
    if pivots != expected_pivots:
        problems.append(f"pivot files {pivots} != {expected_pivots}")

    col = {name: k for k, name in enumerate(header)}
    for k, row in enumerate(records):
        if row[col["failed"]] != "false":
            out.failed += 1
            out.notes.append(f"record {k}: failed")
            continue
        trace_v, n_hat, df = (float(row[col[c]]) for c in ("trace_v", "n_hat", "df"))
        if not math.isclose(trace_v, n_hat - df, rel_tol=TRACE_V_REL_TOL, abs_tol=0.0):
            out.failed += 1
            out.problems.append(f"record {k}: trace_v {trace_v!r} != n_hat - df {n_hat - df!r}")
    if problems:
        return out.whole_call(call.ops, problems)
    return out


def check_derivcheck(root: Path, call) -> Outcome:
    doc, problems = _load_json(call.outputs["report"])
    if doc is not None:
        problems = _validate(doc, _schema(root, "check_derivatives_report.schema.json"))
        if not doc.get("passed"):
            problems.append(f"derivative checks failed: {doc.get('failures')}")
    return Outcome().whole_call(call.ops, problems)


CHECKS = {
    "select_path": check_select,
    "select_wide": check_select,
    "simulate_heavy": check_simulate,
    "derivcheck": check_derivcheck,
}


def check(root: Path, call, exit_code: int) -> Outcome:
    """Outcome of one finished call."""
    if exit_code != 0:
        return Outcome().whole_call(call.ops, [f"exit code {exit_code}, expected 0"])
    return CHECKS[call.workload](root, call)
