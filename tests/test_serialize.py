"""Graph exports against naive per-arc renderings of the defining rule, and audit report texts.

`jaco_to_json`, `jaco_to_csv` and `jaco_to_dot` render the arcs one run of
equal tails at a time: a built graph, and the numpy-free record of
`base.jaco_reach` that `build` renders, from the reach, any other graph from
its arc table.  Here each output is compared with text built arc by
arc from `bruteforce.slow_jaco_arcs`, with the standard library's JSON
encoder for the JSON format.  The audit reports that a subcommand prints are
pinned by the CLI corpus; `joint_report_json`, which none prints, is pinned
here, and each report's csv and json renderings are checked to name one
column list.
"""
import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jaco_gutman import IDENTITY, JacoGraph, LinearFunction, SequenceTable, build_jaco, graph_core, sequence_table
from jaco_gutman.base import jaco_reach
from jaco_gutman.edge_joint import joint_check, joint_delta_report
from jaco_gutman.recursion import TERM_NAMES, recursion_delta_report
from jaco_gutman.serialize import (
    JOINT_COLUMNS,
    RECURSION_COLUMNS,
    jaco_from_json,
    jaco_to_csv,
    jaco_to_dot,
    jaco_to_json,
    joint_report_csv,
    joint_report_json,
    joint_single_csv,
    joint_single_json,
    recursion_report_csv,
    recursion_report_json,
    sequence_to_csv,
    sequence_to_json,
)

from bruteforce import slow_jaco_arcs


def naive_json(m, c, n, arcs):
    payload = {"m": m, "c": c, "n": n, "arcs": [[a, b] for a, b in arcs]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def naive_csv(arcs):
    return "tail,head\n" + "".join(f"{a},{b}\n" for a, b in arcs)


def naive_dot(n, arcs, directed):
    kind, joiner = ("digraph", "->") if directed else ("graph", "--")
    vertices = "".join(f"  v{v};\n" for v in range(1, n + 1))
    lines = "".join(f"  v{a} {joiner} v{b};\n" for a, b in arcs)
    return f"{kind} J{n} {{\n{vertices}{lines}}}\n"


def check_renderings(j, m, c, arcs):
    assert jaco_to_json(j) == naive_json(m, c, j.n, arcs)
    assert jaco_to_csv(j) == naive_csv(arcs)
    assert jaco_to_dot(j) == naive_dot(j.n, arcs, directed=False)
    assert jaco_to_dot(j, directed=True) == naive_dot(j.n, arcs, directed=True)


# m = 0 gives the disconnected families, m = 0 = c the graphs without arcs.
@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 60))
@example(0, 0, 9)
@example(0, 3, 17)
@example(2, 1, 1)
@settings(max_examples=120, deadline=None)
def test_exports_match_naive_renderings(m, c, n):
    arcs = slow_jaco_arcs(m, c, n)
    j = build_jaco(LinearFunction(m, c), n)
    check_renderings(j, m, c, arcs)
    check_renderings(jaco_reach(m, c, n), m, c, arcs)
    assert jaco_from_json(jaco_to_json(j)) == j


def _no_table(hi):
    raise AssertionError("arc table materialized")


@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 60))
@example(0, 0, 9)
@example(0, 3, 17)
@example(2, 1, 1)
@settings(max_examples=60, deadline=None)
def test_built_graphs_export_without_their_arc_table(m, c, n):
    arcs = slow_jaco_arcs(m, c, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_core, "_arc_table", _no_table)
        j = build_jaco(LinearFunction(m, c), n)
        texts = [jaco_to_json(j), jaco_to_csv(j), jaco_to_dot(j), jaco_to_dot(j, directed=True)]
        check_renderings(j, m, c, arcs)
    assert all(type(text) is str for text in texts)


def test_unsorted_ungrouped_tails_never_reach_the_renderers():
    # tails revisit 1 and 3 after other tails, and heads skip and go backwards
    arcs = [(3, 5), (1, 2), (1, 4), (3, 4), (1, 3), (2, 5), (4, 5)]
    with pytest.raises(ValueError, match="strictly increase"):
        JacoGraph(IDENTITY, 5, np.array(arcs, dtype=np.int64))


def test_heads_beyond_the_order_never_reach_the_renderers():
    with pytest.raises(ValueError, match=r"\(2, 12\) breaks 1 <= a < b <= 3"):
        JacoGraph(IDENTITY, 3, np.array([(1, 2), (2, 12)], dtype=np.int64))


def test_arc_table_is_not_iterated_row_by_row():
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("arc table iterated one row at a time")

    plain = build_jaco(LinearFunction(2, 1), 40)
    guarded = JacoGraph(plain.f, plain.n, np.array(plain.arc_array).view(NoIteration))
    assert jaco_to_json(guarded) == jaco_to_json(plain)
    assert jaco_to_csv(guarded) == jaco_to_csv(plain)
    for directed in (False, True):
        assert jaco_to_dot(guarded, directed) == jaco_to_dot(plain, directed)
    assert guarded.arcs == plain.arcs
    assert guarded.underlying.edge_list() == plain.underlying.edge_list()


@pytest.mark.parametrize("m, c, n", [(1, 0, 30), (0, 2, 7), (0, 0, 4)])
def test_tuple_views_hold_python_ints(m, c, n):
    j = build_jaco(LinearFunction(m, c), n)
    expected = slow_jaco_arcs(m, c, n)
    assert j.arcs == tuple(expected)
    assert j.underlying.edge_list() == expected
    assert all(type(x) is int for arc in j.arcs for x in arc)
    assert all(type(x) is int for edge in j.underlying.edge_list() for x in edge)


def _traced_peak_per_char(render):
    tracemalloc.start()
    try:
        text = render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text)


@pytest.mark.parametrize("render", [jaco_to_json, jaco_to_csv, jaco_to_dot], ids=lambda render: render.__name__)
def test_graph_exports_hold_their_text_once(render):
    # The text grows in place from its run pieces, so the peak is the text
    # and one batch of pieces, about 1.02 times the text; holding every piece
    # until one join reads 2.02.
    j = build_jaco(LinearFunction(2, 1), 2000)
    ratio = _traced_peak_per_char(lambda: render(j))
    assert ratio <= 1.25, f"{render.__name__} of J_2000(2x + 1) peaked at {ratio:.2f} B a character"


@pytest.mark.parametrize("render", [sequence_to_csv, sequence_to_json], ids=lambda render: render.__name__)
def test_sequence_tables_hold_their_text_once(render):
    # About 1.04 times the text for 10^5 short rows; a list of every csv line
    # and its join read 7.4, and a list of [n, value] lists given to
    # json.dumps 7.0.
    table = sequence_table("edges", IDENTITY, 10**5)
    ratio = _traced_peak_per_char(lambda: render(table))
    assert ratio <= 1.25, f"{render.__name__} of 10^5 rows peaked at {ratio:.2f} B a character"


@pytest.mark.parametrize(
    "table",
    [
        *(sequence_table(name, LinearFunction(2, 1), 30) for name in ("edges", "gutman", "v1_vn_distance")),
        SequenceTable("one row", IDENTITY, ((1, 0),)),
        SequenceTable('no "rows" \u00e9', LinearFunction(0, 3), ()),
    ],
    ids=lambda table: f"{table.name}, {len(table.rows)} rows",
)
def test_sequence_json_is_the_standard_encoding(table):
    payload = {"name": table.name, "m": table.f.m, "c": table.f.c, "rows": [[n, value] for n, value in table.rows]}
    assert sequence_to_json(table) == json.dumps(payload, separators=(",", ":")) + "\n"


def test_exports_under_a_profiler_match():
    # A profiler turns off the in-place growth, so the text is joined at once.
    j = build_jaco(LinearFunction(2, 1), 40)
    table = sequence_table("edges", IDENTITY, 40)
    renders = [jaco_to_json, jaco_to_csv, jaco_to_dot, lambda _: sequence_to_csv(table), lambda _: sequence_to_json(table)]
    plain = [render(j) for render in renders]
    sys.setprofile(lambda frame, event, arg: None)
    try:
        profiled = [render(j) for render in renders]
    finally:
        sys.setprofile(None)
    assert profiled == plain


def test_joint_report_json_text_is_pinned():
    # No subcommand prints this report, so the CLI corpus does not pin it.
    one = '[{"n":2,"m":2,"paper_rhs":15,"closed_form":19,"direct":19,"delta_paper":-4,"missing_block":4,"residual":0}]\n'
    assert joint_report_json(joint_delta_report(2, 2)) == one
    text = joint_report_json(joint_delta_report(12, 6))
    last = '{"n":12,"m":6,"paper_rhs":8231,"closed_form":8781,"direct":8781,"delta_paper":-550,"missing_block":550,"residual":0}]\n'
    assert text.startswith(one[:-2] + ",") and text.endswith("," + last)
    assert (len(text), text.count("{")) == (5142, 45)
    assert hashlib.sha256(text.encode()).hexdigest() == "08daeb3881eba8e920e8710e64a6b15f28ea480ccfc15711c38d9d3591365f54"


def _spread_terms(entry):
    """A recursion report entry with its term_deltas spread into delta_<term> columns, as the per-term csv prints them."""
    deltas = entry.pop("term_deltas")
    return {**entry, **{f"delta_{name}": value for name, value in deltas.items()}}


def _drop_terms(entry):
    del entry["term_deltas"]
    return entry


def _present_keys(row):
    return [name for name, value in row.items() if value is not None]


_RECURSION_ROWS = recursion_delta_report(9)
_JOINT_ROWS = joint_delta_report(9, 5)
_SINGLE_ROWS = {
    "trivial anchors, n >= m >= 2": joint_check(9, 5),
    "trivial anchors, m > n": joint_check(5, 9),
    "non-trivial anchors": joint_check(9, 5, 3, 2),
}


@pytest.mark.parametrize(
    "csv_text, json_text, as_csv, columns",
    [
        pytest.param(
            recursion_report_csv(_RECURSION_ROWS),
            recursion_report_json(_RECURSION_ROWS),
            _drop_terms,
            list(RECURSION_COLUMNS),
            id="recursion report",
        ),
        pytest.param(
            recursion_report_csv(_RECURSION_ROWS, per_term=True),
            recursion_report_json(_RECURSION_ROWS),
            _spread_terms,
            [*RECURSION_COLUMNS, *(f"delta_{name}" for name in TERM_NAMES)],
            id="recursion report, per term",
        ),
        pytest.param(
            joint_report_csv(_JOINT_ROWS), joint_report_json(_JOINT_ROWS), dict, list(JOINT_COLUMNS), id="joint report"
        ),
        *(
            pytest.param(joint_single_csv(row), joint_single_json(row), dict, _present_keys(row), id=f"joint_check, {case}")
            for case, row in _SINGLE_ROWS.items()
        ),
    ],
)
def test_csv_header_and_json_keys_are_one_column_list(csv_text, json_text, as_csv, columns):
    header, *lines = csv_text.splitlines()
    payload = json.loads(json_text)
    entries = [as_csv(entry) for entry in (payload if isinstance(payload, list) else [payload])]
    assert header.split(",") == columns
    assert len(entries) == len(lines) > 0
    assert all(list(entry) == columns for entry in entries)
    assert [line.split(",") for line in lines] == [[str(value) for value in entry.values()] for entry in entries]
