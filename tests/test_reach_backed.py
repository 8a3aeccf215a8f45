"""Reach-backed graphs: `build_jaco` holds hi and builds its arc table on demand."""
import ast
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jaco_gutman import (
    IDENTITY,
    SEQUENCE_NAMES,
    DisconnectedGraphError,
    JacoGraph,
    LinearFunction,
    SimpleGraph,
    all_pairs_distances,
    build_jaco,
    component_structure,
    from_edges,
    gutman_index,
    hope_graph,
    induced_subgraph,
    is_connected,
    jaco_from_arcs,
    jaconian_info,
    recursion_delta_report,
    sequence_tables,
    wiener_index,
)
import jaco_gutman
from jaco_gutman import graph_core, recursion, sequences
from jaco_gutman.graph_core import dense_adjacency

from bruteforce import brute_gutman, brute_wiener, component_orders, slow_jaco_arcs, split_degree_counts


def _index_or_disconnected(index, g):
    try:
        return index(g)
    except DisconnectedGraphError:
        return "disconnected"


@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 60))
@example(0, 0, 7)  # no arcs at all
@example(0, 3, 60)  # cliques on c + 1 vertices
@example(0, 4, 60)  # ... and a smaller remainder clique
@example(1, 0, 1)
@settings(max_examples=150, deadline=None)
def test_reach_backed_graph_matches_its_table(m, c, n):
    f = LinearFunction(m, c)
    arcs = slow_jaco_arcs(m, c, n)
    built = build_jaco(f, n)
    table = jaco_from_arcs(f, n, arcs)
    g, h = built.underlying, table.underlying
    components, counts = component_orders(n, arcs), split_degree_counts(n, arcs)
    for j in (built, table):
        assert component_structure(j) == components
        assert is_connected(j.underlying) == (components == [n])
        assert tuple(a.tolist() for a in j.underlying.split_degree_arrays()) == counts
        assert (j.in_degree_array.tolist(), j.out_degree_array.tolist()) == counts
        vertices = range(1, n + 1)
        assert ([j.in_degree(v) for v in vertices], [j.out_degree(v) for v in vertices]) == counts
    assert g.reach is not None and h.reach is None
    assert g.order == h.order and g.size == h.size == built.arc_count == table.arc_count
    assert np.array_equal(g.degree_array(), h.degree_array())
    for x in (g, h):
        # the degrees are kept read-only; below and above are derived per call
        assert x.degree_array() is x.degree_array() and not x.degree_array().flags.writeable
        assert np.array_equal(sum(x.split_degree_arrays()), x.degree_array())
    assert np.array_equal(all_pairs_distances(g), all_pairs_distances(h))
    for index in (gutman_index, wiener_index):
        assert _index_or_disconnected(index, g) == _index_or_disconnected(index, h)
    # lo(v), the first u with hi(u) >= v, is kept on a reach-backed graph only
    hi = g.reach.tolist()
    assert g.lo.tolist() == [next(u for u in range(1, n + 1) if hi[u - 1] >= v) for v in range(1, n + 1)]
    assert g.lo is g.lo and not g.lo.flags.writeable and h.lo is None
    assert g._edges is None  # nothing above read the table
    # the adjacency of either backing is scattered from its edge table
    adj = dense_adjacency(g)
    assert adj.dtype == bool and np.array_equal(adj, dense_adjacency(h))
    assert np.array_equal(built.arc_array, table.arc_array)
    assert built.arc_array.dtype == np.int64 and not built.arc_array.flags.writeable
    assert built.arc_array is g.edge_array
    assert built == table and hash(built) == hash(table) and g == h


def test_table_semantics_kept_for_explicit_arcs():
    arcs = np.array([(1, 2), (2, 3)], dtype=np.int64)
    j = jaco_from_arcs(IDENTITY, 3, arcs)
    assert j.underlying.reach is None
    assert jaco_from_arcs(IDENTITY, 3, [(1, 2), (2, 3)]) == build_jaco(IDENTITY, 3)
    assert JacoGraph(IDENTITY, 3, arcs).arc_array is arcs


def test_comparing_and_hashing_built_graphs_reads_no_table():
    a, b = build_jaco(IDENTITY, 6000), build_jaco(IDENTITY, 6000)
    assert a == b and hash(a) == hash(b)
    assert a != build_jaco(IDENTITY, 5999)
    # same order and size, other edges: 1-2, 2-3, 2-4, 3-4 against 1-2, 1-3, 2-3, 3-4
    g, h = (SimpleGraph.from_reach(np.array(hi, dtype=np.int64)) for hi in ([2, 4, 4, 4], [3, 3, 4, 4]))
    assert g.size == h.size and g != h
    for graph in (a.underlying, b.underlying, g, h):
        assert graph._edges is None


@pytest.mark.parametrize(
    "hi, message",
    [
        ([2, 3, 3], "one-dimensional int64 array"),
        (np.array([2, 3, 3], dtype=np.int32), "one-dimensional int64 array"),
        (np.array([2.0, 3.0, 3.0]), "one-dimensional int64 array"),
        (np.array([[2, 3, 3]], dtype=np.int64), "one-dimensional int64 array"),
        (np.array([2, 1, 3], dtype=np.int64), r"^reach of vertex 2 is 1, outside 2\.\.3$"),
        (np.array([0, 2, 3], dtype=np.int64), r"^reach of vertex 1 is 0, outside 1\.\.3$"),
        (np.array([2, 4, 3], dtype=np.int64), r"^reach of vertex 2 is 4, outside 2\.\.3$"),
        (np.array([3, 2, 3], dtype=np.int64), r"^reach of vertex 2 is 2, below 3, the reach of vertex 1$"),
        (np.array([2, 4, 3, 4], dtype=np.int64), r"^reach of vertex 3 is 3, below 4, the reach of vertex 2$"),
    ],
    ids=["list", "int32", "float", "2-D", "below its vertex", "zero", "past the order", "drops", "drops later"],
)
def test_reach_check_rejects_each_bad_array(hi, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph.from_reach(hi)


def test_reach_is_frozen_and_owned():
    hi = np.array([2, 3, 3], dtype=np.int64)
    g = SimpleGraph.from_reach(hi)
    assert g.reach is hi and not hi.flags.writeable
    assert SimpleGraph.from_reach(np.zeros(0, dtype=np.int64)).order == 0


def test_lazy_table_passes_the_table_check(monkeypatch):
    # A table builder that broke the invariant would be caught on first access.
    monkeypatch.setattr(graph_core, "_arc_table", lambda hi: np.array([[2, 1]], dtype=np.int64))
    g = build_jaco(IDENTITY, 3).underlying
    with pytest.raises(ValueError, match=r"\(2, 1\) breaks 1 <= a < b <= 3"):
        g.edge_array


def _no_table(hi):
    raise AssertionError("arc table materialized")


def test_indices_leave_the_arc_table_unbuilt(monkeypatch):
    monkeypatch.setattr(graph_core, "_arc_table", _no_table)
    j = build_jaco(IDENTITY, 3000)
    assert gutman_index(j.underlying) == 9890470052328
    for m, c in ((1, 0), (2, 1), (3, 4), (0, 0)):
        j = build_jaco(LinearFunction(m, c), 200)
        _index_or_disconnected(gutman_index, j.underlying)
        _index_or_disconnected(wiener_index, j.underlying)
        j.arc_count, j.in_degree_array, j.out_degree_array, j.underlying.degree_array()
        assert j.underlying._edges is None


@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 60), st.integers(1, 60), st.integers(0, 60))
@example(0, 0, 7, 1, 7)
@example(1, 0, 1, 1, 0)  # the empty range
@example(2, 1, 60, 5, 60)
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_of_a_reach_backed_graph_matches_its_table(m, c, n, s, e):
    f = LinearFunction(m, c)
    built, table = build_jaco(f, n), jaco_from_arcs(f, n, slow_jaco_arcs(m, c, n))
    contiguous = [range(min(s, n), min(e, n) + 1)]  # empty when e < s
    if n >= 2:
        contiguous.append(jaconian_info(built).hope_range)
    for vertices in contiguous:
        sub, mapping = induced_subgraph(built.underlying, vertices)
        expected, expected_mapping = induced_subgraph(table.underlying, vertices)
        assert sub.reach is not None and mapping == expected_mapping == tuple(vertices)
        assert sub.order == expected.order and sub.edge_list() == expected.edge_list()
    if n >= 3:
        # a gap leaves the reach path: the table answers, the same way for both
        gapped = [1, n]
        assert induced_subgraph(built.underlying, gapped) == induced_subgraph(table.underlying, gapped)
    if n >= 2:
        assert hope_graph(built) == hope_graph(table)


def test_hope_graph_leaves_the_arc_table_unbuilt(monkeypatch):
    monkeypatch.setattr(graph_core, "_arc_table", _no_table)
    hope = hope_graph(build_jaco(IDENTITY, 3000))
    assert (hope.order, hope.size) == (1146, 656085) and hope.reach is not None


def _no_kernel(adj):
    raise AssertionError("distance kernel called")


def _no_adjacency(g):
    raise AssertionError("dense adjacency built")


# Each call builds its own graph, so nothing memoized carries over.
NO_ADJACENCY_CALLS = {
    "gutman_index": lambda: [gutman_index(build_jaco(f, 300).underlying) for f in (IDENTITY, LinearFunction(2, 1))],
    "wiener_index": lambda: [wiener_index(build_jaco(f, 300).underlying) for f in (IDENTITY, LinearFunction(2, 1))],
    "sequence_tables": lambda: sequence_tables(SEQUENCE_NAMES, IDENTITY, 60),
    "recursion_delta_report": lambda: recursion_delta_report(60),
}


@pytest.mark.parametrize("call", NO_ADJACENCY_CALLS)
def test_built_graphs_reach_their_distances_without_an_adjacency(call, monkeypatch):
    # a reach-backed graph hands its reach to the kernel, and the recursion
    # audit hands it each prefix reach, so no bool adjacency is built; the
    # name is patched in every module that could import it
    expected = NO_ADJACENCY_CALLS[call]()
    for module in (graph_core, recursion, sequences):
        monkeypatch.setattr(module, "dense_adjacency", _no_adjacency, raising=False)
    assert NO_ADJACENCY_CALLS[call]() == expected


def _index_outcome(index, g):
    """The index of g, or the type and message of the ValueError it raises."""
    try:
        return index(g)
    except ValueError as exc:
        return type(exc), str(exc)


INDICES = ((gutman_index, brute_gutman, "the Gutman index"), (wiener_index, brute_wiener, "the Wiener index"))


@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 70))
@example(0, 0, 1)
@example(0, 0, 2)  # two isolated vertices
@example(1, 0, 2)
@example(0, 3, 70)  # cliques on c + 1 vertices
@example(0, 4, 70)  # ... and a smaller remainder clique
@settings(max_examples=150, deadline=None)
def test_forest_sums_match_the_forced_bfs_and_the_oracle(m, c, n):
    g = build_jaco(LinearFunction(m, c), n).underlying
    table = from_edges(n, g.edge_list())
    assert table.reach is None  # so its indices sum the BFS distances
    arcs = slow_jaco_arcs(m, c, n)
    connected = component_orders(n, arcs) == [n]
    for index, brute, what in INDICES:
        outcome = _index_outcome(index, g)
        assert outcome == _index_outcome(index, table)
        if connected:
            assert outcome == brute(n, arcs)
        else:
            message = f"{what} is defined for connected graphs only and this graph is disconnected"
            assert outcome == (DisconnectedGraphError, message)


@pytest.mark.parametrize(
    "hi, gutman, wiener",
    [
        ([], ValueError, ValueError),
        ([1], 0, 0),
        ([1, 2], DisconnectedGraphError, DisconnectedGraphError),
        ([2, 2], 1, 1),
    ],
    ids=["order 0", "order 1", "order 2, no edge", "order 2, one edge"],
)
def test_forest_sums_of_orders_0_1_and_2(hi, gutman, wiener):
    g = SimpleGraph.from_reach(np.array(hi, dtype=np.int64))
    table = from_edges(len(hi), g.edge_list())
    for (index, _, _), expected in zip(INDICES, (gutman, wiener)):
        outcome = _index_outcome(index, g)
        assert outcome == _index_outcome(index, table)
        assert (outcome[0] if isinstance(outcome, tuple) else outcome) == expected


def _path_reach(n):
    return np.minimum(np.arange(2, n + 2), n)


BOUND_GRAPHS = {
    "J_300(x)": lambda: build_jaco(IDENTITY, 300).underlying,
    "J_200(2x+1)": lambda: build_jaco(LinearFunction(2, 1), 200).underlying,
    "J_150(3x+4)": lambda: build_jaco(LinearFunction(3, 4), 150).underlying,
    "path P_40": lambda: SimpleGraph.from_reach(_path_reach(40)),  # one walk of 39 jumps
    "J_1(x)": lambda: build_jaco(IDENTITY, 1).underlying,
}


@pytest.mark.parametrize("make", BOUND_GRAPHS.values(), ids=BOUND_GRAPHS)
def test_forest_sums_agree_on_both_sides_of_the_int64_bound(make, monkeypatch):
    # Round r's int64 bound is 2^r * sum(w): a limit of exactly that value
    # sends the round to Python integers and one more keeps it in int64, for
    # every round; the limb width of the final dot product moves with it, and
    # a limit of 0 leaves no int64 arithmetic at all.  Each call gets a fresh
    # graph, so no memoized index carries over.
    expected = [index(make()) for index, _, _ in INDICES]
    g = make()
    weight_sums = (int(g.degree_array().sum()), g.order)
    for safe in [0] + [total * 2**k + d for total in weight_sums for k in range(8) for d in (0, 1)]:
        monkeypatch.setattr(graph_core, "_INT64_SAFE", safe)
        assert [index(make()) for index, _, _ in INDICES] == expected
    table = from_edges(g.order, g.edge_list())
    assert expected == [brute(g.order, table.edge_list()) for _, brute, _ in INDICES]


@given(
    st.lists(st.tuples(st.integers(0, 2**31), st.integers(0, 2**63 - 1)), min_size=1, max_size=40),
    st.sampled_from([0, 1, 2**20, 2**40, 2**62]),
    st.sets(st.integers(1, 39)),
    st.booleans(),
)
@example([(2**31, 2**63 - 1)] * 40, 2**62, set(), False)  # the largest weights and values: 25-bit limbs
@example([(2**31, 2**63 - 1)] * 40, 2**62, set(range(1, 40)), False)  # ... in one-element segments
@example([(3, 15)], 2**7, set(), False)  # 1 * 3 takes 2 bits, so the limbs are 4 bits wide: c is one full limb
@example([(3, 15)], 2**7 - 1, set(), False)  # ... and the same below a power of two
@example([(3, 15)], 2**6, set(), False)  # ... and two 3-bit limbs one bit lower
@example([(1, 0), (2, 2**63 - 1), (0, 5)], 0, {1, 2}, True)  # no int64 at all, c past int64
@settings(max_examples=100, deadline=None)
def test_exact_dot_matches_python_integers(pairs, safe, cuts, wide):
    # With `wide`, c holds Python integers, some past int64.  The segments
    # start at 0 and at each drawn cut inside the vector.
    if wide:
        pairs = [(a, b << 8) for a, b in pairs]
    w = np.array([a for a, _ in pairs], dtype=np.int64)
    c = np.array([b for _, b in pairs], dtype=object if wide else np.int64)
    starts = np.array(sorted({0} | {k for k in cuts if k < len(pairs)}), dtype=np.int64)
    bounds = [*starts.tolist(), len(pairs)]
    expected = [sum(a * b for a, b in pairs[s:e]) for s, e in zip(bounds, bounds[1:])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_core, "_INT64_SAFE", safe)
        assert graph_core._exact_dot(w, c) == sum(expected)
        assert graph_core._exact_dot(w, c, starts) == expected


def test_reach_backed_indices_form_no_distances(monkeypatch):
    graphs = [build_jaco(f, 500).underlying for f in (IDENTITY, LinearFunction(2, 1), LinearFunction(0, 2))]
    expected = [_index_outcome(index, from_edges(g.order, g.edge_list())) for g in graphs for index, _, _ in INDICES]
    monkeypatch.setattr(graph_core, "layered_distance_matrix", _no_kernel)
    monkeypatch.setattr(graph_core, "dense_adjacency", _no_adjacency)
    assert [_index_outcome(index, g) for g in graphs for index, _, _ in INDICES] == expected
    assert expected[-1][0] is DisconnectedGraphError


def test_connectivity_leaves_the_arc_table_and_the_kernel_alone(monkeypatch):
    monkeypatch.setattr(graph_core, "_arc_table", _no_table)
    monkeypatch.setattr(graph_core, "layered_distance_matrix", _no_kernel)
    assert component_structure(build_jaco(IDENTITY, 3000)) == [3000]
    cliques = build_jaco(LinearFunction(0, 2), 20000)
    assert not is_connected(cliques.underlying)
    assert component_structure(cliques) == [3] * 6666 + [2]


def test_no_module_reads_a_private_simple_graph_member():
    # Only graph_core may look inside a SimpleGraph, so the choice between a
    # reach-backed and a table-backed graph stays there.
    private = {name for name in vars(SimpleGraph) if name.startswith("_") and not name.endswith("__")}
    assert {"_edges", "_hi", "_lo"} <= private
    package = Path(jaco_gutman.__file__).parent
    leaks = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "graph_core.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not leaks, leaks


_RSS_PROBE = """
import os, subprocess, sys
for command in sys.argv[1:]:
    child = subprocess.Popen([sys.executable, "-m", "jaco_gutman", *command.split()], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    print(child.returncode, usage.ru_maxrss)
"""


def _peak_growth_mb(command):
    """How far the peak RSS of `jaco <command>` exceeds that of `jaco gutman --n 2`, in MB."""
    # A child's max RSS includes the peak of the process that spawned it, so
    # both children come from a small probe process rather than from pytest.
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, "gutman --n 2", command], capture_output=True, text=True, check=True
    )
    (code_small, rss_small), (code_large, rss_large) = (map(int, line.split()) for line in proc.stdout.splitlines())
    assert code_small == code_large == 0
    return (rss_large - rss_small) / 1024  # ru_maxrss is in KiB on Linux


def test_gutman_3000_peak_memory():
    # The index sums over the jump forest in O(n) memory, about 0 MB above
    # the floor; its 9 MB int8 distance matrix alone would break the bound.
    grown_mb = _peak_growth_mb("gutman --n 3000")
    assert grown_mb < 5, f"gutman --n 3000 peaked {grown_mb:.1f} MB above gutman --n 2"


def test_gutman_million_peak_memory():
    # The build's scan and a few int64 arrays of n entries (8 MB each at
    # n = 10^6), about 46 MB above the floor; the distance matrix would need
    # 931 GiB.  The bound leaves less than one more such array of headroom,
    # so keeping one more per-vertex array on the graph breaks it.
    grown_mb = _peak_growth_mb("gutman --n 1000000")
    assert grown_mb < 52, f"gutman --n 1000000 peaked {grown_mb:.0f} MB above gutman --n 2"


@pytest.mark.parametrize("f", [IDENTITY, LinearFunction(2, 1), LinearFunction(0, 2)], ids=str)
def test_distances_of_a_built_graph_take_one_byte_a_pair(f):
    # The int8 matrix is 1 B a pair and the jump fill reads the reach, not an
    # adjacency; its other buffers are O(n) or a block of rows, so any n x n
    # temporary, even a bool one, breaks the bound.
    n = 2000
    g = build_jaco(f, n).underlying
    tracemalloc.start()
    try:
        dist = all_pairs_distances(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.dtype == np.int8
    assert peak <= 1.2 * n * n, f"all_pairs_distances of {f} at n = {n} peaked {peak / n / n:.2f} B a pair"


@pytest.mark.parametrize("half", ["in_degree_array", "out_degree_array"])
def test_a_half_degree_array_takes_one_array(half):
    # Each half is computed in the one array it returns, from the kept lo or
    # from hi, without the other half or a separate vertex array.
    n = 10**5
    j = build_jaco(IDENTITY, n)
    j.underlying.lo
    tracemalloc.start()
    try:
        getattr(j, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n, f"{half} of J_{n} peaked at {peak / 8 / n:.2f} int64 arrays of n entries"


def test_sequences_5000_peak_memory():
    # Each order's Gutman index sums over its prefix reach's jump forest and
    # the distance table walks one chain, so all four tables take O(N)
    # memory, about 5 MB above the floor; the int8 matrix of J_5001 alone
    # would be 25 MB.
    grown_mb = _peak_growth_mb("sequences --n-max 5000")
    assert grown_mb < 12, f"sequences --n-max 5000 peaked {grown_mb:.1f} MB above gutman --n 2"


def test_export_2000_peak_memory():
    # 13 MB of JSON, held once as it grows from its run pieces, about 13 MB
    # above the floor: no arc table, no list of the pieces beside the text
    # (25 MB above the floor) and no encoded copy of the whole text.
    grown_mb = _peak_growth_mb("build --m 2 --c 1 --n 2000 --format json")
    assert grown_mb < 18, f"build --m 2 --c 1 --n 2000 peaked {grown_mb:.0f} MB above gutman --n 2"


def test_erratum_40_peak_memory():
    # The edge-joint audits grow their BFS balls in batches of at most
    # edge_joint._BATCH_SOURCES sources (2^12, about 0.6 MB of int64 arrays),
    # about 2 MB above the floor in all; one batch of all the audits' sources
    # would not fit.
    grown_mb = _peak_growth_mb("erratum --n-max 40 --m-max 40")
    assert grown_mb < 5, f"erratum --n-max 40 --m-max 40 peaked {grown_mb:.1f} MB above gutman --n 2"


def test_joint_100000_peak_memory(tmp_path):
    # Both sides' index and T come from their jump forests and the direct
    # value from interval balls, so the joint of two J_100000(x) takes O(n)
    # memory, about 20 MB above the floor; its bool adjacency alone would be
    # 40 GB.  Past 2^63, the direct value must still equal the closed form.
    out = tmp_path / "joint.json"
    grown_mb = _peak_growth_mb(f"joint --n 100000 --m 100000 --vi 777 --uj 5 --format json --out {out}")
    assert grown_mb < 100, f"joint --n 100000 --m 100000 peaked {grown_mb:.0f} MB above gutman --n 2"
    row = json.loads(out.read_text())
    assert row["direct"] == row["closed_form"] > 2**63
