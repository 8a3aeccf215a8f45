"""Graph exports against naive per-arc renderings of the defining rule.

`jaco_to_json`, `jaco_to_csv` and `jaco_to_dot` render the arcs one run of
equal tails at a time: a built graph from its reach, any other graph from its
arc table.  Here each output is compared with text built arc by
arc from `bruteforce.slow_jaco_arcs`, with the standard library's JSON
encoder for the JSON format.
"""
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jaco_gutman import IDENTITY, JacoGraph, LinearFunction, build_jaco, graph_core, sequence_table
from jaco_gutman.serialize import jaco_from_json, jaco_to_csv, jaco_to_dot, jaco_to_json, sequence_to_csv

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


def test_sequence_csv_holds_its_text_once():
    # About 1.04 times the text for 10^5 short lines; a list of every line
    # and its join read 7.4.
    table = sequence_table("edges", IDENTITY, 10**5)
    ratio = _traced_peak_per_char(lambda: sequence_to_csv(table))
    assert ratio <= 1.25, f"sequence_to_csv of 10^5 rows peaked at {ratio:.2f} B a character"


def test_exports_under_a_profiler_match():
    # A profiler turns off the in-place growth, so the text is joined at once.
    j = build_jaco(LinearFunction(2, 1), 40)
    table = sequence_table("edges", IDENTITY, 40)
    renders = [jaco_to_json, jaco_to_csv, jaco_to_dot, lambda _: sequence_to_csv(table)]
    plain = [render(j) for render in renders]
    sys.setprofile(lambda frame, event, arg: None)
    try:
        profiled = [render(j) for render in renders]
    finally:
        sys.setprofile(None)
    assert profiled == plain
