"""Text formats for graphs, sequence tables, and audit reports.

Everything here is deterministic and newline-terminated, with exact integer
rendering (no floats anywhere).  The JSON graph schema is

    {"m": <int>, "c": <int>, "n": <int>, "arcs": [[tail, head], ...]}

with 1-based indices and the arc list sorted lexicographically, and it
round-trips: parsing a serialized graph reproduces the identical arc set.
"""
from __future__ import annotations

import json
from typing import Iterable, Mapping

from .edge_joint import JointDelta
from .jaco import JacoGraph, LinearFunction, jaco_from_arcs, verify_definition_fixed_point
from .recursion import TERM_NAMES, RecursionDelta
from .sequences import SequenceTable

RECURSION_HEADER = "n,i,paper_rhs,exact_rhs,direct,delta_paper"
JOINT_HEADER = "n,m,paper_rhs,closed_form,direct,delta_paper,missing_block,residual"


def jaco_to_json(j: JacoGraph) -> str:
    payload = {
        "m": j.f.m,
        "c": j.f.c,
        "n": j.n,
        "arcs": [[int(a), int(b)] for a, b in j.arc_array],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def jaco_from_json(text: str) -> JacoGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("graph JSON must be an object")
    missing = {"m", "c", "n", "arcs"} - payload.keys()
    if missing:
        raise ValueError(f"graph JSON missing keys: {sorted(missing)}")
    not_int = [key for key in ("m", "c", "n") if type(payload[key]) is not int]
    if not_int:
        raise ValueError(f"graph JSON fields must be integers: {not_int}")
    j = jaco_from_arcs(LinearFunction(payload["m"], payload["c"]), payload["n"], payload["arcs"])
    if not verify_definition_fixed_point(j):
        raise ValueError(f"graph JSON arcs do not follow the arc rule of {j.f} at n={j.n}")
    return j


def jaco_to_csv(j: JacoGraph) -> str:
    lines = ["tail,head"]
    lines.extend(f"{int(a)},{int(b)}" for a, b in j.arc_array)
    return "\n".join(lines) + "\n"


def jaco_to_dot(j: JacoGraph, directed: bool = False) -> str:
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    lines = [f"{kind} J{j.n} {{"]
    lines.extend(f"  v{v};" for v in range(1, j.n + 1))
    lines.extend(f"  v{int(a)} {joiner} v{int(b)};" for a, b in j.arc_array)
    lines.append("}")
    return "\n".join(lines) + "\n"


def sequence_to_csv(table: SequenceTable) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{value}" for n, value in table.rows)
    return "\n".join(lines) + "\n"


def sequence_to_json(table: SequenceTable) -> str:
    payload = {
        "name": table.name,
        "m": table.f.m,
        "c": table.f.c,
        "rows": [[n, value] for n, value in table.rows],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _recursion_row_values(row: RecursionDelta) -> list[int]:
    return [row.n, row.i, row.paper_rhs, row.exact_rhs, row.direct, row.delta_paper]


def recursion_report_csv(rows: Iterable[RecursionDelta], per_term: bool = False) -> str:
    header = RECURSION_HEADER
    if per_term:
        header += "," + ",".join(f"delta_{name}" for name in TERM_NAMES)
    lines = [header]
    for row in rows:
        values = _recursion_row_values(row)
        if per_term:
            deltas = row.term_deltas()
            values.extend(deltas[name] for name in TERM_NAMES)
        lines.append(",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def recursion_report_json(rows: Iterable[RecursionDelta]) -> str:
    payload = []
    for row in rows:
        entry = dict(zip(RECURSION_HEADER.split(","), _recursion_row_values(row)))
        entry["term_deltas"] = row.term_deltas()
        payload.append(entry)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _joint_row_values(row: JointDelta) -> list[int]:
    return [
        row.n,
        row.m,
        row.paper_rhs,
        row.closed_form,
        row.direct,
        row.delta_paper,
        row.missing_block,
        row.residual,
    ]


def joint_report_csv(rows: Iterable[JointDelta]) -> str:
    lines = [JOINT_HEADER]
    lines.extend(",".join(str(v) for v in _joint_row_values(row)) for row in rows)
    return "\n".join(lines) + "\n"


def joint_report_json(rows: Iterable[JointDelta]) -> str:
    payload = [dict(zip(JOINT_HEADER.split(","), _joint_row_values(row))) for row in rows]
    return json.dumps(payload, separators=(",", ":")) + "\n"


def joint_single_csv(row: Mapping[str, int | None]) -> str:
    columns = ["n", "m", "vi", "uj", "direct", "closed_form"]
    if row["paper_rhs"] is not None:
        columns += ["paper_rhs", "delta_paper", "missing_block"]
    header = ",".join(columns)
    values = ",".join(str(row[c]) for c in columns)
    return f"{header}\n{values}\n"


def joint_single_json(row: Mapping[str, int | None]) -> str:
    payload = {k: v for k, v in row.items() if v is not None}
    return json.dumps(payload, separators=(",", ":")) + "\n"
