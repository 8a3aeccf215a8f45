"""Graph primitives: construction, distances, and the two indices."""
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import (
    UNREACHABLE,
    DisconnectedGraphError,
    all_pairs_distances,
    degree,
    from_edges,
    gutman_index,
    induced_subgraph,
    is_connected,
    wiener_index,
)
from jaco_gutman import graph_core
from jaco_gutman.graph_core import _pair_sum, dense_adjacency, layered_distance_matrix

from bruteforce import (
    adjacency_from_edges,
    bfs_distances,
    brute_gutman,
    brute_wiener,
    random_connected_graph,
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


class TestDistances:
    def test_path_distances(self):
        d = all_pairs_distances(path(4))
        assert d.get(1, 4) == 3
        assert d.get(2, 3) == 1
        assert d.get(3, 3) == 0
        assert d.all_reachable()

    def test_symmetry_raw(self):
        d = all_pairs_distances(cycle(7)).raw
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()

    def test_unreachable_sentinel(self):
        g = from_edges(4, [(1, 2), (3, 4)])
        d = all_pairs_distances(g)
        assert d.get(1, 3) is UNREACHABLE
        assert not d.all_reachable()
        # the sentinel is falsy, prints by name, and refuses arithmetic
        assert not UNREACHABLE
        assert repr(UNREACHABLE) == "UNREACHABLE"
        with pytest.raises(TypeError):
            UNREACHABLE + 1  # noqa: B018

    def test_to_lists_mixes_ints_and_sentinel(self):
        g = from_edges(3, [(1, 2)])
        rows = all_pairs_distances(g).to_lists()
        assert rows[0][1] == 1
        assert rows[0][2] is UNREACHABLE

    def test_get_out_of_range(self):
        d = all_pairs_distances(path(3))
        with pytest.raises(ValueError):
            d.get(0, 1)

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

    @staticmethod
    def _degrees_and_distances(order, edges):
        g = from_edges(order, edges)
        return g.degree_array(), all_pairs_distances(g).raw

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
    raw = all_pairs_distances(from_edges(order, edges)).raw
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


@given(any_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_source_rows_and_connectivity_match_oracle(ge, data):
    order, edges = ge
    g = from_edges(order, edges)
    sources = data.draw(st.lists(st.integers(0, order - 1), max_size=order))
    adj = dense_adjacency(g)
    assert (layered_distance_matrix(adj, sources=sources) == layered_distance_matrix(adj)[sources]).all()
    oracle = adjacency_from_edges(order, edges)
    for s in sources:
        reach = bfs_distances(oracle, s + 1)
        expected = [reach.get(v, -1) for v in range(1, order + 1)]
        assert layered_distance_matrix(adj, sources=[s])[0].tolist() == expected
    assert is_connected(g) == (len(bfs_distances(oracle, 1)) == order)
