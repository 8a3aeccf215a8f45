"""Text formats for graphs, sequence tables, and audit reports.

Everything here is deterministic and newline-terminated, with exact integer
rendering (no floats anywhere).  The JSON graph schema is

    {"m": <int>, "c": <int>, "n": <int>, "arcs": [[tail, head], ...]}

with 1-based indices and the arc list sorted lexicographically, and it
round-trips: parsing a serialized graph reproduces the identical arc set.

Every renderer returns one string.  The graph exports and the csv tables
grow it in place from generated pieces (`_concat`), so the text is held
once and no list of its pieces is kept beside it.  A built graph's arcs come
from its reach, one piece per run of equal tails (`_arc_runs`), so
exporting it never builds its arc table.
"""
from __future__ import annotations

import json
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .graph_core import _is_int
from .jaco import JacoGraph, LinearFunction, jaco_from_arcs, verify_definition_fixed_point

if TYPE_CHECKING:
    # Only the report renderers take these, so `build` loads no audit module.
    from .edge_joint import JointDelta
    from .recursion import RecursionDelta
    from .sequences import SequenceTable

RECURSION_HEADER = "n,i,paper_rhs,exact_rhs,direct,delta_paper"
JOINT_HEADER = "n,m,paper_rhs,closed_form,direct,delta_paper,missing_block,residual"


# Characters per append.  A batch this short keeps the pieces held beside the
# text to a few KB even for short csv lines, yet costs no more time than
# larger ones; a run piece of a graph export is usually longer on its own.
_BATCH_CHARS = 1 << 13


def _concat(pieces: Iterable[str]) -> str:
    """The concatenation of `pieces`, grown in place so that the text is held once.

    The pieces are joined in batches of about `_BATCH_CHARS` characters, and
    each batch is appended with `text +=` to a local that holds the only
    reference to the text.  CPython resizes a string with one reference in
    place instead of copying it, so the peak is the text plus one batch,
    where one `str.join` over all the pieces would hold every piece beside
    the result.  That holds only while the interpreter runs its specialized
    add: under a profiler or tracer, CPython 3.11 copies the whole text on
    every append (1.3 s instead of 0.02 s for 13 MB in 6.5 KB pieces), so
    there the pieces are joined at once.
    """
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return "".join(pieces)
    text = ""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH_CHARS:
            text += "".join(batch)
            batch.clear()
            size = 0
    text += "".join(batch)
    return text


def _arc_runs(j: JacoGraph, pre: str, mid: str, post: str, sep: str) -> Iterator[str]:
    """Text pieces whose concatenation renders all the arcs in stored order.

    Arc (a, b) renders as pre + a + mid + b + post, and consecutive arcs are
    separated by sep.  Each run of arcs sharing a tail yields its lead
    (pre + tail + mid), after the link (post + sep) from the previous run,
    and then one `str.join` over its heads' names; the last run is closed
    by post, and a graph without arcs yields nothing.  A reach-backed graph
    (every built graph) takes each tail's heads as the slice v + 1..hi(v) of
    the names and never builds its arc table; any other graph reads each
    run's heads from its table with one `tolist()`, so no arc is visited one
    numpy row at a time.
    """
    names = [str(v) for v in range(j.n + 1)]
    hi = j.underlying.reach
    if hi is not None:
        runs = ((v, names[v + 1 : h + 1]) for v, h in enumerate(hi.tolist(), 1) if h > v)
    else:
        tails = j.arc_array[:, 0]
        heads = j.arc_array[:, 1]
        # Every tail is at least 1, so the first row starts a run too.
        starts = np.flatnonzero(np.diff(tails, prepend=0)).tolist()
        ends = [*starts[1:], len(tails)]
        runs = (
            (tail, [names[h] for h in heads[start:end].tolist()])
            for start, end, tail in zip(starts, ends, tails[starts].tolist())
        )
    link = post + sep
    gap = ""
    for tail, head_names in runs:
        lead = pre + names[tail] + mid
        yield gap + lead
        yield (link + lead).join(head_names)
        gap = link
    if gap:
        yield post


def jaco_to_json(j: JacoGraph) -> str:
    head = f'{{"m":{j.f.m},"c":{j.f.c},"n":{j.n},"arcs":['
    return _concat(chain([head], _arc_runs(j, "[", ",", "]", ","), ["]}\n"]))


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
    not_int = [key for key in ("m", "c", "n") if not _is_int(payload[key])]
    if not_int:
        raise ValueError(f"graph JSON fields must be integers: {not_int}")
    if not isinstance(payload["arcs"], list):
        raise ValueError("graph JSON arcs must be a list of [tail, head] pairs")
    j = jaco_from_arcs(LinearFunction(payload["m"], payload["c"]), payload["n"], payload["arcs"])
    if not verify_definition_fixed_point(j):
        raise ValueError(f"graph JSON arcs do not follow the arc rule of {j.f} at n={j.n}")
    return j


def jaco_to_csv(j: JacoGraph) -> str:
    return _concat(chain(["tail,head\n"], _arc_runs(j, "", ",", "\n", "")))


def jaco_to_dot(j: JacoGraph, directed: bool = False) -> str:
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    vertices = (f"  v{v};\n" for v in range(1, j.n + 1))
    return _concat(chain([f"{kind} J{j.n} {{\n"], vertices, _arc_runs(j, "  v", f" {joiner} v", ";\n", ""), ["}\n"]))


def _csv(header: str, records: Iterable[Iterable[int]]) -> str:
    """The header line, then one line of comma-separated values per record."""
    return _concat(chain([header + "\n"], (",".join(map(str, record)) + "\n" for record in records)))


def sequence_to_csv(table: SequenceTable) -> str:
    return _concat(chain(["n,value\n"], (f"{n},{value}\n" for n, value in table.rows)))


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
    from .recursion import TERM_NAMES

    header = RECURSION_HEADER
    if per_term:
        header += "," + ",".join(f"delta_{name}" for name in TERM_NAMES)

    def record(row: RecursionDelta) -> list[int]:
        values = _recursion_row_values(row)
        if per_term:
            deltas = row.term_deltas()
            values.extend(deltas[name] for name in TERM_NAMES)
        return values

    return _csv(header, map(record, rows))


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
    return _csv(JOINT_HEADER, map(_joint_row_values, rows))


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
