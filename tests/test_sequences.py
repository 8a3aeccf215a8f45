"""Per-order sequence tables."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jaco_gutman import (
    DisconnectedGraphError,
    IDENTITY,
    LinearFunction,
    SEQUENCE_NAMES,
    all_pairs_distances,
    build_jaco,
    gutman_index,
    jaco_from_arcs,
    jaconian_info,
    sequence_table,
    sequence_tables,
)
from jaco_gutman import graph_core, jaco
from jaco_gutman.cli import main
from jaco_gutman.serialize import sequence_to_csv

from bruteforce import adjacency_from_edges, bfs_distances, brute_gutman, slow_jaco_arcs

IDENTITY_FIRST_SEVEN = {
    "edges": (0, 1, 2, 3, 5, 7, 10),
    "gutman": (0, 1, 6, 19, 58, 127, 263),
    "jaconian_cardinality": (1, 2, 1, 2, 1, 3, 2),
    "v1_vn_distance": (0, 1, 2, 3, 3, 4, 4),
}


class TestFrozenValues:
    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_identity_first_seven(self, name):
        table = sequence_table(name, IDENTITY, 7)
        assert table.name == name
        assert table.rows == tuple(enumerate(IDENTITY_FIRST_SEVEN[name], start=1))

    def test_rows_indexed_from_one(self):
        table = sequence_table("edges", IDENTITY, 12)
        assert [n for n, _ in table.rows] == list(range(1, 13))


class TestCrossChecks:
    def test_edges_match_arc_counts(self):
        table = sequence_table("edges", LinearFunction(2, 1), 50)
        for n, value in table.rows:
            assert value == build_jaco(LinearFunction(2, 1), n).arc_count

    def test_gutman_matches_index(self):
        table = sequence_table("gutman", IDENTITY, 40)
        for n, value in table.rows:
            assert value == gutman_index(build_jaco(IDENTITY, n).underlying)

    def test_jaconian_matches_info(self):
        table = sequence_table("jaconian_cardinality", LinearFunction(1, 1), 60)
        for n, value in table.rows:
            info = jaconian_info(build_jaco(LinearFunction(1, 1), n))
            assert value == len(info.jaconian_set)

    def test_distance_matches_matrix(self):
        # row 1 of J_N's all-pairs matrix holds dist(v_1, v_n) in column n
        cases = [(IDENTITY, 60), (LinearFunction(2, 1), 60), (LinearFunction(3, 2), 45), (LinearFunction(0, 5), 6)]
        for f, n_max in cases:
            table = sequence_table("v1_vn_distance", f, n_max)
            assert table.rows == tuple(enumerate(all_pairs_distances(build_jaco(f, n_max).underlying)[0].tolist(), 1))

    @pytest.mark.parametrize("m, c", [(2, 1), (1, 3)])
    def test_distance_matches_oracle(self, m, c):
        table = sequence_table("v1_vn_distance", LinearFunction(m, c), 40)
        arcs = slow_jaco_arcs(m, c, 40)
        for n, value in table.rows:
            prefix = [(a, b) for a, b in arcs if b <= n]
            assert value == bfs_distances(adjacency_from_edges(n, prefix), 1)[n]


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            sequence_table("girth", IDENTITY, 5)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            sequence_table("edges", IDENTITY, 0)

    def test_gutman_needs_connectivity(self):
        with pytest.raises(DisconnectedGraphError):
            sequence_table("gutman", LinearFunction(0, 2), 7)

    def test_distance_needs_connectivity(self):
        with pytest.raises(DisconnectedGraphError):
            sequence_table("v1_vn_distance", LinearFunction(0, 2), 7)

    def test_disconnected_counts_still_fine(self):
        # edge and cardinality tables have no connectivity requirement
        table = sequence_table("edges", LinearFunction(0, 2), 7)
        assert table.rows[-1] == (7, 6)

    def test_failed_contiguity_audit_raises(self, monkeypatch):
        # v_5's only in-neighbour is v_1, so its in-set is not [4, 4]
        monkeypatch.setattr(jaco, "build_jaco", lambda f, n: jaco_from_arcs(f, n, [(1, n)]))
        for name in ("gutman", "v1_vn_distance"):
            with pytest.raises(ValueError, match="contiguity audit .*in-neighbors of v_5"):
                sequence_table(name, IDENTITY, 5)


DISTANCE_TABLES = {"gutman": "the Gutman index sequence", "v1_vn_distance": "the distance sequence"}


@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 40))
@example(0, 2, 12)  # m = 0: cliques on c + 1 vertices, apart from order 4
@example(0, 0, 5)  # m = 0 = c: no arcs, apart from order 2
@example(0, 2, 3)  # vertex 1's component ends at n_max ...
@example(0, 2, 4)  # ... and one order below it
@settings(max_examples=100, deadline=None)
def test_distance_tables_match_oracle(m, c, n_max):
    arcs = slow_jaco_arcs(m, c, n_max)
    expected = {name: [] for name in DISTANCE_TABLES}
    apart_at = None
    for n in range(1, n_max + 1):
        prefix = [(a, b) for a, b in arcs if b <= n]
        reach = bfs_distances(adjacency_from_edges(n, prefix), 1)
        if len(reach) < n:
            apart_at = n
            break
        expected["gutman"].append((n, brute_gutman(n, prefix)))
        expected["v1_vn_distance"].append((n, reach[n]))
    for name, what in DISTANCE_TABLES.items():
        if apart_at is None:
            assert sequence_table(name, LinearFunction(m, c), n_max).rows == tuple(expected[name])
        else:
            message = f"^{what} at order {apart_at} is defined for connected graphs only and this graph is disconnected$"
            with pytest.raises(DisconnectedGraphError, match=message):
                sequence_table(name, LinearFunction(m, c), n_max)


# Order n's graph is J_N's prefix reach truncated at n; each row must equal
# the index of the order-n graph built on its own, and, up to order 60, the
# pure-Python oracle on the rule's own arcs.
@pytest.mark.parametrize("m, c", [(1, 0), (2, 1), (3, 2), (1, 3)])
def test_gutman_table_equals_each_order_built_alone(m, c):
    f = LinearFunction(m, c)
    rows = sequence_table("gutman", f, 150).rows
    assert rows == tuple((n, gutman_index(build_jaco(f, n).underlying)) for n in range(1, 151))
    arcs = slow_jaco_arcs(m, c, 60)
    assert rows[:60] == tuple((n, brute_gutman(n, [(a, b) for a, b in arcs if b <= n])) for n in range(1, 61))


def _no_matrix(*args):
    raise AssertionError("a distance matrix was formed")


# No table runs the distance kernel: both of its paths are patched to raise.
@pytest.mark.parametrize("name", DISTANCE_TABLES)
def test_one_kernel_call_per_table(name, monkeypatch):
    monkeypatch.setattr(graph_core, "_jump_counts", _no_matrix)
    monkeypatch.setattr(graph_core, "_layered_bfs", _no_matrix)
    assert sequence_table(name, LinearFunction(2, 1), 30).rows[-1][0] == 30
    with pytest.raises(DisconnectedGraphError, match=f"^{DISTANCE_TABLES[name]} at order 4 "):
        sequence_table(name, LinearFunction(0, 2), 30)


def test_every_table_from_one_build_and_one_kernel_call(monkeypatch, capsys):
    builds = []
    real_build = jaco.build_jaco

    def counting_build(f, n):
        builds.append(n)
        return real_build(f, n)

    monkeypatch.setattr(jaco, "build_jaco", counting_build)
    monkeypatch.setattr(graph_core, "_jump_counts", _no_matrix)
    monkeypatch.setattr(graph_core, "_layered_bfs", _no_matrix)
    assert main(["sequences", "--n-max", "50"]) == 0
    out = capsys.readouterr().out
    # J_51 serves the counts of orders 1..50 and, as prefix reaches, their distance tables.
    assert builds == [51]
    expected = "\n".join(f"# {name}\n{sequence_to_csv(sequence_table(name, IDENTITY, 50))}" for name in SEQUENCE_NAMES)
    assert out == expected


def test_tables_come_in_the_order_named_and_the_first_failure_raises():
    f = LinearFunction(2, 1)
    tables = sequence_tables(["v1_vn_distance", "edges", "gutman", "edges"], f, 20)
    assert [t.name for t in tables] == ["v1_vn_distance", "edges", "gutman", "edges"]
    assert tables[0] == sequence_table("v1_vn_distance", f, 20) and tables[1] == tables[3]
    with pytest.raises(DisconnectedGraphError, match="^the distance sequence at order 4 "):
        sequence_tables(["edges", "v1_vn_distance", "gutman"], LinearFunction(0, 2), 7)
    with pytest.raises(ValueError, match="unknown sequence 'girth'"):
        sequence_tables(["edges", "girth"], f, 5)
