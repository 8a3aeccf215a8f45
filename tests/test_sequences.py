"""Per-order sequence tables."""
import pytest

from jaco_gutman import (
    DisconnectedGraphError,
    IDENTITY,
    LinearFunction,
    SEQUENCE_NAMES,
    all_pairs_distances,
    build_jaco,
    gutman_index,
    jaconian_info,
    sequence_table,
)

from bruteforce import adjacency_from_edges, bfs_distances, slow_jaco_arcs

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
        table = sequence_table("v1_vn_distance", IDENTITY, 60)
        for n, value in table.rows:
            d = all_pairs_distances(build_jaco(IDENTITY, n).underlying)
            assert value == d.get(1, n)

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
