"""Graph primitives: construction, distances, and the two indices."""
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import (
    IDENTITY,
    DisconnectedGraphError,
    JacoGraph,
    JointSpec,
    LinearFunction,
    SimpleGraph,
    all_pairs_distances,
    anchor_audit,
    anchor_checks,
    build_jaco,
    degree,
    from_edges,
    gutman_index,
    induced_subgraph,
    is_connected,
    jaco_from_arcs,
    joint_delta_report,
    prefix_scan,
    recursion_delta_report,
    sequence_table,
    wiener_index,
)
from jaco_gutman import graph_core
from jaco_gutman.graph_core import _component_sizes, _pair_sum

from bruteforce import (
    adjacency_from_edges,
    bfs_distances,
    brute_gutman,
    brute_wiener,
    component_orders,
    component_orders_by_lowest_vertex,
    random_connected_graph,
    split_degree_counts,
)


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n):
    return from_edges(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


class TestConstruction:
    def test_canonical_edge_order(self):
        g = from_edges(4, [(3, 1), (2, 1), (4, 3), (2, 4)])
        assert g.edge_list() == [(1, 2), (1, 3), (2, 4), (3, 4)]

    def test_duplicates_collapse(self):
        g = from_edges(3, [(1, 2), (2, 1), (1, 2)])
        assert g.size == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 4)])
        with pytest.raises(ValueError):
            from_edges(3, [(0, 2)])

    def test_order_zero_allowed(self):
        g = from_edges(0, [])
        assert g.order == 0 and g.size == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            from_edges(-1, [])

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2.9)], [(True, 2)], [("1", 2)], [(1, 2, 3)], np.array([[1.0, 2.0]])],
    )
    def test_non_integer_endpoint_rejected(self, edges):
        with pytest.raises(ValueError):
            from_edges(3, edges)

    def test_integer_array_is_not_iterated(self):
        class NoIteration(np.ndarray):
            def __iter__(self):
                raise AssertionError("integer edge array iterated element by element")

        edges = np.array([[3, 1], [2, 1], [1, 3]], dtype=np.int32).view(NoIteration)
        assert from_edges(3, edges).edge_list() == [(1, 2), (1, 3)]

    def test_equality_and_hash(self):
        a = from_edges(3, [(1, 2), (2, 3)])
        b = from_edges(3, [(2, 3), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != from_edges(3, [(1, 2)])

    def test_degrees(self):
        g = from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert degree(g, 1) == 3
        assert [degree(g, v) for v in (2, 3, 4)] == [1, 1, 1]
        assert g.degree_array().tolist() == [3, 1, 1, 1]
        with pytest.raises(ValueError):
            degree(g, 5)


def table(rows, dtype=np.int64):
    return np.array(rows, dtype=dtype).reshape(-1, 2)


TABLE_BREACHES = [
    pytest.param(3, table([[2, 1]]), id="backward row"),
    pytest.param(3, table([[2, 2]]), id="self-loop"),
    pytest.param(3, table([[0, 2]]), id="endpoint 0"),
    pytest.param(3, table([[1, 2], [2, 12]]), id="endpoint past n"),
    pytest.param(3, table([[1, 2], [1, 2]]), id="duplicate row"),
    pytest.param(3, table([[1, 3], [1, 2]]), id="unsorted heads"),
    pytest.param(3, table([[2, 3], [1, 2]]), id="unsorted tails"),
    pytest.param(3, table([[1, 2]], np.int32), id="int32 dtype"),
    pytest.param(3, np.array([[1, 2, 3]], dtype=np.int64), id="shape (k, 3)"),
    pytest.param(3, [[1, 2]], id="list, not an array"),
    pytest.param(2.5, table([[1, 2]]), id="order 2.5"),
    pytest.param(True, table([[1, 2]]), id="order True"),
]


class TestTableInvariant:
    @pytest.mark.parametrize("kind", ["SimpleGraph", "JacoGraph"])
    @pytest.mark.parametrize("order, edges", TABLE_BREACHES)
    def test_breach_rejected(self, kind, order, edges):
        with pytest.raises(ValueError):
            if kind == "SimpleGraph":
                SimpleGraph(order, edges)
            else:
                JacoGraph(IDENTITY, order, edges)

    def test_jaco_order_zero_rejected(self):
        assert SimpleGraph(0, table([])).order == 0
        with pytest.raises(ValueError, match="at least 1"):
            JacoGraph(IDENTITY, 0, table([]))

    def test_table_is_kept_and_frozen_in_place(self):
        edges = table([[1, 2], [1, 3], [2, 3]])
        g = SimpleGraph(3, edges)
        assert g.edge_array is edges and not edges.flags.writeable
        arcs = table([[1, 2], [2, 3]])
        j = JacoGraph(IDENTITY, 3, arcs)
        assert j.arc_array is arcs and j.underlying.edge_array is arcs
        assert not arcs.flags.writeable

    def test_numpy_integer_order_accepted(self):
        g = SimpleGraph(np.int64(3), table([[1, 2]]))
        assert g.order == 3 and type(g.order) is int


def _joint(v, u):
    return JointSpec(from_edges(3, [(1, 2), (2, 3)]), from_edges(2, [(1, 2)]), v, u)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: induced_subgraph(from_edges(3, []), [True, 2]), id="induced_subgraph bool"),
        pytest.param(lambda: induced_subgraph(from_edges(3, []), [1, 2.7]), id="induced_subgraph float"),
        pytest.param(lambda: degree(from_edges(3, []), True), id="degree bool"),
        pytest.param(lambda: degree(from_edges(3, []), 2.0), id="degree float"),
        pytest.param(lambda: _joint(True, 1), id="JointSpec v bool"),
        pytest.param(lambda: _joint(1, 2.0), id="JointSpec u float"),
        pytest.param(lambda: from_edges(2.5, [(1, 2)]), id="from_edges order float"),
        pytest.param(lambda: from_edges(True, []), id="from_edges order bool"),
        pytest.param(lambda: LinearFunction(1.0, 0), id="LinearFunction float"),
        pytest.param(lambda: jaco_from_arcs(IDENTITY, 3.0, [(1, 2)]), id="jaco_from_arcs order float"),
        pytest.param(lambda: build_jaco(IDENTITY, True), id="build_jaco order bool"),
        pytest.param(lambda: build_jaco(IDENTITY, 2.5), id="build_jaco order float"),
        pytest.param(lambda: build_jaco(IDENTITY, 3).in_degree(True), id="in_degree bool"),
    ],
)
def test_non_integer_argument_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, passed",
    [
        pytest.param(lambda: recursion_delta_report(3.5), 3.5, id="recursion_delta_report float"),
        pytest.param(lambda: recursion_delta_report(1), 1, id="recursion_delta_report 1"),
        pytest.param(lambda: joint_delta_report(3.5, 3), 3.5, id="joint_delta_report n_max float"),
        pytest.param(lambda: joint_delta_report(3, True), True, id="joint_delta_report m_max bool"),
        pytest.param(lambda: anchor_audit(4, 3.5), 3.5, id="anchor_audit m_max float"),
        pytest.param(lambda: anchor_audit(1, 3), 1, id="anchor_audit n_max 1"),
        pytest.param(lambda: anchor_audit(4, 3, per_pair=2.0), 2.0, id="anchor_audit per_pair float"),
        pytest.param(lambda: anchor_audit(4, 3, per_pair=-1), -1, id="anchor_audit per_pair negative"),
        # the generator checks its arguments when called, before any check is read
        pytest.param(lambda: anchor_checks(4, 3.5), 3.5, id="anchor_checks m_max float"),
        pytest.param(lambda: prefix_scan(IDENTITY, True), True, id="prefix_scan bool"),
        pytest.param(lambda: prefix_scan(IDENTITY, 2.5), 2.5, id="prefix_scan float"),
        pytest.param(lambda: sequence_table("edges", IDENTITY, True), True, id="sequence_table bool"),
        pytest.param(lambda: sequence_table("gutman", IDENTITY, 0), 0, id="sequence_table 0"),
    ],
)
def test_order_bound_rejected_naming_the_value(call, passed):
    with pytest.raises(ValueError, match=f"must be an integer, at least [0-2], got {re.escape(repr(passed))}$"):
        call()


def test_numpy_integer_arguments_accepted():
    g = from_edges(3, [(1, 2), (2, 3)])
    assert degree(g, np.int64(2)) == 2
    sub, mapping = induced_subgraph(g, np.array([3, 2]))
    assert sub.edge_list() == [(1, 2)] and mapping == (2, 3)
    assert all(type(v) is int for v in mapping)
    assert _joint(np.int64(2), np.int32(1)).v == 2
    assert LinearFunction(np.int64(1), 0) == IDENTITY


class TestDistances:
    def test_path_distances(self):
        d = all_pairs_distances(path(4))
        assert d[0, 3] == 3
        assert d[1, 2] == 1
        assert d[2, 2] == 0
        assert d.dtype == np.int8 and (d >= 0).all()

    def test_symmetry_raw(self):
        d = all_pairs_distances(cycle(7))
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()

    def test_unreachable_sentinel(self):
        # an unreachable pair reads -1, which no distance can be
        d = all_pairs_distances(from_edges(4, [(1, 2), (3, 4)]))
        assert d.tolist() == [[0, 1, -1, -1], [1, 0, -1, -1], [-1, -1, 0, 1], [-1, -1, 1, 0]]

    def test_is_connected(self):
        assert is_connected(path(6))
        assert not is_connected(from_edges(3, [(1, 2)]))
        assert is_connected(from_edges(1, []))
        with pytest.raises(ValueError):
            is_connected(from_edges(0, []))


class TestIndices:
    def test_k2(self):
        assert gutman_index(complete(2)) == 1
        assert wiener_index(complete(2)) == 1

    def test_p4(self):
        assert gutman_index(path(4)) == 19
        assert wiener_index(path(4)) == 10

    def test_c4(self):
        assert gutman_index(cycle(4)) == 32
        assert wiener_index(cycle(4)) == 8

    def test_disconnected_raises(self):
        g = from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraphError, match="disconnected"):
            gutman_index(g)
        with pytest.raises(DisconnectedGraphError, match="disconnected"):
            wiener_index(g)

    @pytest.mark.parametrize("index", [gutman_index, wiener_index, graph_core.degree_distance_sums])
    def test_disconnected_table_graph_fails_before_any_distance(self, index, monkeypatch):
        # the connectivity gate reads the edge table's components, so a
        # disconnected table-backed graph is refused before the BFS runs
        def no_bfs(adj):
            raise AssertionError("the BFS ran before the connectivity gate")

        monkeypatch.setattr(graph_core, "_layered_bfs", no_bfs)
        g = from_edges(200, [(v, v + 1) for v in range(1, 200) if v != 120])
        with pytest.raises(DisconnectedGraphError, match="connected graphs only"):
            index(g)
        with pytest.raises(ValueError, match="empty graph"):
            index(from_edges(0, []))

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            gutman_index(from_edges(0, []))

    def test_single_vertex(self):
        assert gutman_index(from_edges(1, [])) == 0
        assert wiener_index(from_edges(1, [])) == 0

    def test_regular_identity_cycles(self):
        # Gut = k^2 * W on k-regular graphs; cycles are 2-regular
        for n in range(3, 51):
            g = cycle(n)
            assert gutman_index(g) == 4 * wiener_index(g)

    def test_regular_identity_complete(self):
        for n in range(2, 11):
            g = complete(n)
            assert gutman_index(g) == (n - 1) ** 2 * wiener_index(g)

    def test_random_graphs_vs_bruteforce(self):
        rng = random.Random(1729)
        for _ in range(200):
            order, edges = random_connected_graph(rng, max_order=12)
            g = from_edges(order, edges)
            assert gutman_index(g) == brute_gutman(order, edges)
            assert wiener_index(g) == brute_wiener(order, edges)

    def test_relabeling_invariance(self):
        rng = random.Random(99)
        for _ in range(40):
            order, edges = random_connected_graph(rng, max_order=10)
            perm = list(range(1, order + 1))
            rng.shuffle(perm)
            relabeled = [(perm[a - 1], perm[b - 1]) for a, b in edges]
            assert gutman_index(from_edges(order, relabeled)) == gutman_index(
                from_edges(order, edges)
            )

    def test_pair_sum_bigint_path_agrees(self, monkeypatch):
        rng = random.Random(2718)
        cases = [random_connected_graph(rng, max_order=12) for _ in range(20)]
        fast = [_pair_sum(*self._degrees_and_distances(o, e)) for o, e in cases]
        # no bound is below zero, so every sum takes the Python-integer branch
        monkeypatch.setattr(graph_core, "_INT64_SAFE", 0)
        slow = [_pair_sum(*self._degrees_and_distances(o, e)) for o, e in cases]
        assert fast == slow == [brute_gutman(o, e) for o, e in cases]
        assert all(type(value) is int for value in slow)
        # the odd-total check holds in Python integers too
        with pytest.raises(ArithmeticError, match="ordered pair total 1 is odd"):
            _pair_sum(np.array([1, 1]), np.array([[0, 1], [0, 0]]))

    @staticmethod
    def _degrees_and_distances(order, edges):
        g = from_edges(order, edges)
        return g.degree_array(), all_pairs_distances(g)

    def test_pair_sum_parity_check_survives_optimize(self):
        # an asymmetric matrix makes the ordered-pair total odd; under -O an
        # assert would vanish and the halving would floor silently
        code = (
            "import numpy as np\n"
            "from jaco_gutman.graph_core import _pair_sum\n"
            "_pair_sum(np.array([1, 1]), np.array([[0, 1], [0, 0]]))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ArithmeticError: ordered pair total 1 is odd" in proc.stderr


class TestDistanceMemo:
    def test_one_kernel_call_per_graph(self, monkeypatch):
        calls = []
        real = graph_core.layered_distance_matrix

        def counting(adj):
            calls.append(adj.shape[0])
            return real(adj)

        monkeypatch.setattr(graph_core, "layered_distance_matrix", counting)
        g = cycle(9)
        assert gutman_index(g) == gutman_index(g) == 4 * wiener_index(g)
        assert all_pairs_distances(g)[0, 4] == 4
        assert is_connected(g)
        assert calls == [9]

    def test_memoized_matrix_is_read_only(self):
        g = path(5)
        assert gutman_index(g) == brute_gutman(5, g.edge_list())
        raw = all_pairs_distances(g)
        assert not raw.flags.writeable
        with pytest.raises(ValueError):
            raw[0, 4] = 1
        assert gutman_index(g) == brute_gutman(5, g.edge_list())

    def test_all_pairs_and_gutman_agree_on_a_shared_graph(self):
        rng = random.Random(31)
        for first in ("gutman", "distances") * 10:
            order, edges = random_connected_graph(rng, max_order=12)
            g = from_edges(order, edges)
            if first == "gutman":
                gut = gutman_index(g)
                raw = all_pairs_distances(g)
            else:
                raw = all_pairs_distances(g)
                gut = gutman_index(g)
            oracle = adjacency_from_edges(order, edges)
            for a in range(order):
                reach = bfs_distances(oracle, a + 1)
                assert raw[a].tolist() == [reach[v] for v in range(1, order + 1)]
            assert gut == _pair_sum(g.degree_array(), raw) == brute_gutman(order, edges)


class TestInducedSubgraph:
    def test_relabeling_and_mapping(self):
        g = from_edges(6, [(1, 2), (2, 5), (5, 6), (2, 6), (3, 4)])
        sub, mapping = induced_subgraph(g, [2, 5, 6])
        assert mapping == (2, 5, 6)
        assert sub.order == 3
        assert sub.edge_list() == [(1, 2), (1, 3), (2, 3)]

    def test_empty_selection(self):
        sub, mapping = induced_subgraph(path(3), [])
        assert sub.order == 0 and mapping == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path(3), [4])

    def test_index_preserved_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(30):
            order, edges = random_connected_graph(rng, max_order=10)
            keep = sorted(rng.sample(range(1, order + 1), rng.randint(1, order)))
            sub, mapping = induced_subgraph(from_edges(order, edges), keep)
            keepset = set(keep)
            expected = sorted(
                (mapping.index(a) + 1, mapping.index(b) + 1)
                for a, b in edges
                if a in keepset and b in keepset
            )
            assert sub.edge_list() == expected


@st.composite
def connected_graphs(draw, max_order=9):
    order = draw(st.integers(2, max_order))
    edges = set()
    for v in range(2, order + 1):
        edges.add((draw(st.integers(1, v - 1)), v))
    extras = draw(
        st.lists(
            st.tuples(st.integers(1, max_order), st.integers(1, max_order)),
            max_size=12,
        )
    )
    for a, b in extras:
        if a != b and a <= order and b <= order:
            edges.add((min(a, b), max(a, b)))
    return order, sorted(edges)


@given(connected_graphs())
@settings(max_examples=120, deadline=None)
def test_gutman_matches_bruteforce(ge):
    order, edges = ge
    assert gutman_index(from_edges(order, edges)) == brute_gutman(order, edges)


@given(connected_graphs())
@settings(max_examples=80, deadline=None)
def test_distance_matrix_properties(ge):
    order, edges = ge
    raw = all_pairs_distances(from_edges(order, edges))
    assert (raw == raw.T).all()
    assert (np.diag(raw) == 0).all()
    assert (raw >= 0).all()
    for a, b in edges:
        assert raw[a - 1, b - 1] == 1


@st.composite
def any_graphs(draw, max_order=9):
    order = draw(st.integers(1, max_order))
    pairs = st.tuples(st.integers(1, order), st.integers(1, order))
    edges = {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=14)) if a != b}
    return order, sorted(edges)


@given(any_graphs())
@settings(max_examples=120, deadline=None)
def test_source_rows_and_connectivity_match_oracle(ge):
    order, edges = ge
    g = from_edges(order, edges)
    oracle = adjacency_from_edges(order, edges)
    for s, row in enumerate(all_pairs_distances(g).tolist()):
        reach = bfs_distances(oracle, s + 1)
        assert row == [reach.get(v, -1) for v in range(1, order + 1)]
    assert is_connected(g) == (len(bfs_distances(oracle, 1)) == order)
    assert sorted(_component_sizes(g).tolist(), reverse=True) == component_orders(order, edges)
    assert tuple(a.tolist() for a in g.split_degree_arrays()) == split_degree_counts(order, edges)


def _no_kernel(adj):
    raise AssertionError("distance kernel called")


def test_table_components_come_from_the_edges_alone(monkeypatch):
    monkeypatch.setattr(graph_core, "layered_distance_matrix", _no_kernel)
    rng = random.Random(4096)
    for _ in range(300):
        order = rng.randint(1, 60)
        pairs = [(rng.randint(1, order), rng.randint(1, order)) for _ in range(rng.randint(0, 2 * order))]
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        g = from_edges(order, edges)
        sizes = _component_sizes(g).tolist()
        assert sizes == component_orders_by_lowest_vertex(order, edges)
        assert is_connected(g) == (sizes == [order])
    # long paths and trees under shuffled labels, whole and with one edge cut
    for order in (1500, 4000):
        label = list(range(1, order + 1))
        rng.shuffle(label)
        for parent in (lambda v: v - 1, lambda v: rng.randint(1, v - 1)):
            edges = [(label[parent(v) - 1], label[v - 1]) for v in range(2, order + 1)]
            assert is_connected(from_edges(order, edges))
            cut = rng.randrange(len(edges))
            kept = edges[:cut] + edges[cut + 1 :]
            assert not is_connected(from_edges(order, kept))
            assert _component_sizes(from_edges(order, kept)).tolist() == component_orders_by_lowest_vertex(order, kept)
