"""Edge-joint composition and its Gutman index formulas."""
import random

import pytest

from jaco_gutman import (
    DisconnectedGraphError,
    IDENTITY,
    JointSpec,
    LinearFunction,
    all_pairs_distances,
    anchor_audit,
    build_jaco,
    closed_form_joint_gutman,
    edge_joint_graph,
    from_edges,
    gutman_index,
    joint_check,
    joint_delta_report,
    joint_paper_rhs,
    missing_anchor_block,
)

from bruteforce import brute_gutman, random_connected_graph

# (n, m, paper_rhs, closed_form == direct, missing_block)
FROZEN_ROWS = (
    (2, 2, 15, 19, 4),
    (3, 2, 30, 44, 14),
    (4, 3, 118, 146, 28),
    (5, 4, 364, 422, 58),
)


def k2():
    return from_edges(2, [(1, 2)])


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


class TestComposition:
    def test_trivial_k2_pair_is_p4(self):
        spec = JointSpec(k2(), k2(), 1, 1)
        assert spec.trivial
        composed = edge_joint_graph(spec)
        assert composed.order == 4
        assert composed.edge_list() == [(1, 2), (1, 3), (3, 4)]
        d = all_pairs_distances(composed)
        assert d.get(2, 4) == 3

    def test_identity_three_two_is_p5(self):
        g = build_jaco(IDENTITY, 3).underlying
        h = build_jaco(IDENTITY, 2).underlying
        composed = edge_joint_graph(JointSpec(g, h, 1, 1))
        assert composed.order == 5
        assert composed.edge_list() == [(1, 2), (1, 4), (2, 3), (4, 5)]
        assert gutman_index(composed) == gutman_index(path(5))

    def test_nontrivial_anchor_shape(self):
        spec = JointSpec(path(3), k2(), 2, 1)
        assert not spec.trivial
        composed = edge_joint_graph(spec)
        assert composed.order == 5
        assert composed.edge_list() == [(1, 2), (2, 3), (2, 4), (4, 5)]

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            JointSpec(k2(), k2(), 3, 1)
        with pytest.raises(ValueError):
            JointSpec(k2(), k2(), 1, 0)

    def test_cross_distance_law(self):
        g = build_jaco(IDENTITY, 6).underlying
        h = build_jaco(IDENTITY, 4).underlying
        spec = JointSpec(g, h, 4, 2)
        composed = edge_joint_graph(spec)
        dc = all_pairs_distances(composed)
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        for x in range(1, 7):
            for y in range(1, 5):
                assert dc.get(x, y + 6) == dg.get(x, 4) + 1 + dh.get(2, y)

    def test_intra_distance_stability(self):
        # the bridge never shortens a path inside either side
        g = build_jaco(IDENTITY, 7).underlying
        h = build_jaco(IDENTITY, 5).underlying
        dc = all_pairs_distances(edge_joint_graph(JointSpec(g, h, 3, 2)))
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        for a in range(1, 8):
            for b in range(1, 8):
                assert dc.get(a, b) == dg.get(a, b)
        for a in range(1, 6):
            for b in range(1, 6):
                assert dc.get(a + 7, b + 7) == dh.get(a, b)


class TestClosedForm:
    def test_frozen_trivial_rows(self):
        for n, m, paper, direct, block in FROZEN_ROWS:
            jn = build_jaco(IDENTITY, n)
            jm = build_jaco(IDENTITY, m)
            spec = JointSpec(jn.underlying, jm.underlying, 1, 1)
            assert closed_form_joint_gutman(spec) == direct
            assert gutman_index(edge_joint_graph(spec)) == direct
            assert joint_paper_rhs(jn, jm) == paper
            assert missing_anchor_block(jn, jm) == block
            assert paper + block == direct

    def test_grid_closed_matches_direct(self):
        rows = joint_delta_report(12, 12)
        for row in rows:
            assert row.closed_matches_direct
            assert row.residual == 0

    def test_nontrivial_anchor_example(self):
        spec = JointSpec(path(3), k2(), 2, 1)
        composed = edge_joint_graph(spec)
        assert closed_form_joint_gutman(spec) == gutman_index(composed)

    def test_composition_symmetry(self):
        # swapping the two sides (and their anchors) cannot change the index
        rng = random.Random(321)
        for _ in range(30):
            order_g, edges_g = random_connected_graph(rng, max_order=9)
            order_h, edges_h = random_connected_graph(rng, max_order=9)
            g = from_edges(order_g, edges_g)
            h = from_edges(order_h, edges_h)
            v = rng.randint(1, order_g)
            u = rng.randint(1, order_h)
            assert closed_form_joint_gutman(JointSpec(g, h, v, u)) == closed_form_joint_gutman(
                JointSpec(h, g, u, v)
            )

    def test_random_pairs_vs_bruteforce(self):
        rng = random.Random(4242)
        for _ in range(100):
            order_g, edges_g = random_connected_graph(rng, max_order=10)
            order_h, edges_h = random_connected_graph(rng, max_order=10)
            g = from_edges(order_g, edges_g)
            h = from_edges(order_h, edges_h)
            v = rng.randint(1, order_g)
            u = rng.randint(1, order_h)
            spec = JointSpec(g, h, v, u)
            composed = edge_joint_graph(spec)
            expected = brute_gutman(composed.order, composed.edge_list())
            assert closed_form_joint_gutman(spec) == expected

    def test_single_vertex_side_vs_bruteforce(self):
        rng = random.Random(99)
        k1 = from_edges(1, [])
        for _ in range(20):
            order, edges = random_connected_graph(rng, max_order=9)
            g = from_edges(order, edges)
            anchor = rng.randint(1, order)
            for spec in (JointSpec(g, k1, anchor, 1), JointSpec(k1, g, 1, anchor)):
                composed = edge_joint_graph(spec)
                expected = brute_gutman(composed.order, composed.edge_list())
                assert closed_form_joint_gutman(spec) == expected
        assert closed_form_joint_gutman(JointSpec(k1, k1, 1, 1)) == 1

    def test_disconnected_input_rejected(self):
        g = from_edges(3, [(1, 2)])
        with pytest.raises(DisconnectedGraphError):
            closed_form_joint_gutman(JointSpec(g, k2(), 1, 1))


class TestPaperFormula:
    def test_requires_identity_function(self):
        jn = build_jaco(IDENTITY, 4)
        other = build_jaco(IDENTITY, 3)
        steep = build_jaco(LinearFunction(2, 0), 3)
        with pytest.raises(ValueError):
            joint_paper_rhs(steep, other)
        with pytest.raises(ValueError):
            missing_anchor_block(jn, steep)

    def test_requires_order_at_least_two(self):
        with pytest.raises(ValueError):
            joint_paper_rhs(build_jaco(IDENTITY, 3), build_jaco(IDENTITY, 1))

    def test_requires_first_not_smaller(self):
        with pytest.raises(ValueError):
            joint_paper_rhs(build_jaco(IDENTITY, 2), build_jaco(IDENTITY, 3))

    def test_delta_negative_on_grid(self):
        # the omitted pair class has positive weight, so the printed value
        # always undershoots
        for row in joint_delta_report(10, 10):
            assert row.delta_paper < 0
            assert row.missing_block == -row.delta_paper


class TestJointCheck:
    def test_trivial_row_has_paper_columns(self):
        row = joint_check(3, 2)
        assert row["paper_rhs"] == 30
        assert row["delta_paper"] == -14
        assert row["missing_block"] == 14
        assert row["direct"] == row["closed_form"] == 44

    def test_nontrivial_row_omits_paper_columns(self):
        row = joint_check(4, 3, vi=2, uj=1)
        assert row["paper_rhs"] is None
        assert row["delta_paper"] is None
        assert row["missing_block"] is None
        assert row["closed_form"] == row["direct"]

    def test_anchor_audit_all_pass(self):
        checks = anchor_audit(8, 8, per_pair=3, seed=11)
        assert checks
        assert all(c.ok for c in checks)
        assert all((c.vi, c.uj) != (1, 1) for c in checks)

    def test_anchor_audit_deterministic(self):
        a = anchor_audit(6, 6, per_pair=2, seed=5)
        b = anchor_audit(6, 6, per_pair=2, seed=5)
        assert a == b
