"""Text formats for graphs, sequence tables, and audit reports.

Everything here is deterministic and newline-terminated, with exact integer
rendering (no floats anywhere).  The JSON graph schema is

    {"m": <int>, "c": <int>, "n": <int>, "arcs": [[tail, head], ...]}

with 1-based indices and the arc list sorted lexicographically, and it
round-trips: parsing a serialized graph reproduces the identical arc set.

Every renderer returns one string.  The graph exports and the sequence and
csv tables grow it in place from generated pieces (`_concat`), so the text
is held once and no list of its pieces is kept beside it.  A built graph's arcs come
from its reach, one piece per run of equal tails (`_arc_runs`), so
exporting it never builds its arc table.  The exports take a `JacoGraph`
or a `base.JacoReach`, which `build` renders: importing this module loads
no numpy, and only `jaco_from_json` and the export of a graph held as an
arc table import the graph layers.  `json` is imported only by the
functions that parse or dump with it, so `build` and `erratum` never load it.

The audit reports name their columns once (`RECURSION_COLUMNS`,
`JOINT_COLUMNS`), as the attribute names of their rows, and read each row's
values by name; one csv writer (`_csv`) and one json writer (`_json`) render
every report.  A single-joint row from `joint_check` prints its fields that
are not None, in its own key order.  `sequence_to_csv` keeps its own writer,
an f-string per row, which is about twice as fast as `_csv` on the long
tables that `sequences` prints.
"""
from __future__ import annotations

import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .base import JacoReach

if TYPE_CHECKING:
    # Only annotations name these, so `build` loads no graph or audit module.
    from .edge_joint import JointCheck
    from .jaco import JacoGraph
    from .recursion import RecursionDelta
    from .sequences import SequenceTable

# The columns of each audit report, in print order: attributes of its rows.
RECURSION_COLUMNS = ("n", "i", "paper_rhs", "exact_rhs", "direct", "delta_paper")
JOINT_COLUMNS = ("n", "m", "paper_rhs", "closed_form", "direct", "delta_paper", "missing_block", "residual")


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


def _arc_runs(j: JacoGraph | JacoReach, pre: str, mid: str, post: str, sep: str) -> Iterator[str]:
    """Text pieces whose concatenation renders all the arcs in stored order.

    Arc (a, b) renders as pre + a + mid + b + post, and consecutive arcs are
    separated by sep.  Each run of arcs sharing a tail yields its lead
    (pre + tail + mid), after the link (post + sep) from the previous run,
    and then one `str.join` over its heads' names; the last run is closed
    by post, and a graph without arcs yields nothing.  A JacoReach, or a
    reach-backed JacoGraph (every built graph), takes each tail's heads as
    the slice v + 1..hi(v) of the names, with hi as Python ints, and never
    builds its arc table; any other graph reads each run's heads from its
    table with one `tolist()`, so no arc is visited one numpy row at a time.
    """
    names = [str(v) for v in range(j.n + 1)]
    if isinstance(j, JacoReach):
        hi = j.hi
    else:
        hi = j.underlying.reach
        hi = None if hi is None else hi.tolist()
    if hi is not None:
        runs = ((v, names[v + 1 : h + 1]) for v, h in enumerate(hi, 1) if h > v)
    else:
        import numpy as np

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


def jaco_to_json(j: JacoGraph | JacoReach) -> str:
    m, c = (j.m, j.c) if isinstance(j, JacoReach) else (j.f.m, j.f.c)
    head = f'{{"m":{m},"c":{c},"n":{j.n},"arcs":['
    return _concat(chain([head], _arc_runs(j, "[", ",", "]", ","), ["]}\n"]))


def jaco_from_json(text: str) -> JacoGraph:
    import json

    from .graph_core import _is_int
    from .jaco import LinearFunction, jaco_from_arcs, verify_definition_fixed_point

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


def jaco_to_csv(j: JacoGraph | JacoReach) -> str:
    return _concat(chain(["tail,head\n"], _arc_runs(j, "", ",", "\n", "")))


def jaco_to_dot(j: JacoGraph | JacoReach, directed: bool = False) -> str:
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    vertices = (f"  v{v};\n" for v in range(1, j.n + 1))
    return _concat(chain([f"{kind} J{j.n} {{\n"], vertices, _arc_runs(j, "  v", f" {joiner} v", ";\n", ""), ["}\n"]))


def _csv(columns: Iterable[str], records: Iterable[Iterable[int]]) -> str:
    """The header line of `columns`, then one line of comma-separated values per record."""
    return _concat(chain([",".join(columns) + "\n"], (",".join(map(str, record)) + "\n" for record in records)))


def _json(payload: object) -> str:
    """`payload` as compact JSON, newline-terminated."""
    import json

    return json.dumps(payload, separators=(",", ":")) + "\n"


def _record(row: RecursionDelta | JointCheck, columns: Iterable[str]) -> dict[str, int]:
    """The row's values of `columns`, read by name, in their order."""
    return {name: getattr(row, name) for name in columns}


def sequence_to_csv(table: SequenceTable) -> str:
    # Its own f-string writer: through `_csv`, v1_vn_distance at 10^6 rows took 0.60 s, not 0.27 s (best of 3).
    return _concat(chain(["n,value\n"], (f"{n},{value}\n" for n, value in table.rows)))


def sequence_to_json(table: SequenceTable) -> str:
    import json

    head = f'{{"name":{json.dumps(table.name)},"m":{table.f.m},"c":{table.f.c},"rows":['
    rows = (f"[{n},{value}]" for n, value in table.rows)
    return _concat(chain([head, next(rows, "")], ("," + row for row in rows), ["]}\n"]))


def recursion_report_csv(rows: Iterable[RecursionDelta], per_term: bool = False) -> str:
    if not per_term:
        return _csv(RECURSION_COLUMNS, (_record(row, RECURSION_COLUMNS).values() for row in rows))
    from .recursion import TERM_NAMES

    columns = chain(RECURSION_COLUMNS, (f"delta_{name}" for name in TERM_NAMES))
    records = (chain(_record(row, RECURSION_COLUMNS).values(), row.term_deltas().values()) for row in rows)
    return _csv(columns, records)


def recursion_report_json(rows: Iterable[RecursionDelta]) -> str:
    return _json([{**_record(row, RECURSION_COLUMNS), "term_deltas": row.term_deltas()} for row in rows])


def joint_report_csv(rows: Iterable[JointCheck]) -> str:
    return _csv(JOINT_COLUMNS, (_record(row, JOINT_COLUMNS).values() for row in rows))


def joint_report_json(rows: Iterable[JointCheck]) -> str:
    return _json([_record(row, JOINT_COLUMNS) for row in rows])


def _present(row: Mapping[str, int | None]) -> dict[str, int]:
    """The fields of a `joint_check` row that are not None, in its order."""
    return {name: value for name, value in row.items() if value is not None}


def joint_single_csv(row: Mapping[str, int | None]) -> str:
    fields = _present(row)
    return _csv(fields, [fields.values()])


def joint_single_json(row: Mapping[str, int | None]) -> str:
    return _json(_present(row))
