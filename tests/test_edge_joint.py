"""Edge-joint composition and its Gutman index formulas."""
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jaco_gutman import edge_joint, graph_core

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
        assert all_pairs_distances(composed)[1, 3] == 3

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

    def test_merged_table_matches_from_edges(self):
        # every anchor pair, so v = 1 and v = |G| occur, on order-1 sides too
        sides = [
            from_edges(1, []),
            k2(),
            path(4),
            from_edges(5, [(1, 5), (2, 3), (2, 4)]),
            build_jaco(IDENTITY, 6).underlying,
        ]
        for g in sides:
            for h in sides:
                shift = g.order
                for v in range(1, g.order + 1):
                    for u in range(1, h.order + 1):
                        edges = g.edge_list() + [(a + shift, b + shift) for a, b in h.edge_list()]
                        expected = from_edges(shift + h.order, edges + [(v, u + shift)])
                        assert edge_joint_graph(JointSpec(g, h, v, u)) == expected

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
        for x in range(6):
            for y in range(4):
                assert dc[x, y + 6] == dg[x, 3] + 1 + dh[1, y]

    def test_intra_distance_stability(self):
        # the bridge never shortens a path inside either side
        g = build_jaco(IDENTITY, 7).underlying
        h = build_jaco(IDENTITY, 5).underlying
        dc = all_pairs_distances(edge_joint_graph(JointSpec(g, h, 3, 2)))
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        assert (dc[:7, :7] == dg).all()
        assert (dc[7:, 7:] == dh).all()


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

    # Paths of order 127 and 128 have diameters 126 and 127, the last int8
    # matrix and the first int16 one.  Each joint is table-backed, so its
    # direct value comes from the BFS of its adjacency.
    @pytest.mark.parametrize("order_g, order_h", [(128, 128), (127, 128), (127, 127)])
    @pytest.mark.parametrize("anchors", [(1, 1), (64, 1), (1, 128), (127, 127)])
    def test_closed_form_at_the_int8_edge(self, order_g, order_h, anchors):
        g, h = path(order_g), path(order_h)
        assert [int(all_pairs_distances(side).max()) for side in (g, h)] == [order_g - 1, order_h - 1]
        spec = JointSpec(g, h, *(min(a, side.order) for a, side in zip(anchors, (g, h))))
        composed = edge_joint_graph(spec)
        expected = brute_gutman(composed.order, composed.edge_list())
        assert closed_form_joint_gutman(spec) == gutman_index(composed) == expected

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

    def test_audits_compute_each_graph_distances_once(self, monkeypatch):
        # one kernel slice per composed graph (the independent direct value)
        # and one per identity graph J_2..J_n_max, however many grid points
        # share it: a stack of b graphs counts b, a single matrix counts 1
        slices = []
        real = graph_core.layered_distance_matrix

        def counting(adj):
            slices.append(adj.shape[0] if adj.ndim == 3 else 1)
            return real(adj)

        for module in (graph_core, edge_joint):
            monkeypatch.setattr(module, "layered_distance_matrix", counting)
        rows = joint_delta_report(7, 4)
        assert sum(slices) == len(rows) + 6
        slices.clear()
        checks = anchor_audit(7, 4, per_pair=3, seed=2)
        assert sum(slices) == len(checks) + 6
        assert all(c.ok for c in checks)

    # One pair per call puts every composed graph in a stack of its own; the
    # default and the bounds near it pack several graphs of one order per
    # call, and a huge bound packs each order in one call.
    @pytest.mark.parametrize("pairs", [1, None, 1 << 13, 1 << 15, 10**9])
    def test_stack_size_leaves_the_audits_unchanged(self, pairs, monkeypatch):
        rows, checks = joint_delta_report(11, 7), anchor_audit(11, 7, per_pair=3, seed=9)
        if pairs is not None:
            monkeypatch.setattr(edge_joint, "_STACK_PAIRS", pairs)
        assert joint_delta_report(11, 7) == rows
        assert anchor_audit(11, 7, per_pair=3, seed=9) == checks
        jacos = {k: build_jaco(IDENTITY, k).underlying for k in range(2, 12)}
        for row in rows:
            assert row.direct == gutman_index(edge_joint_graph(JointSpec(jacos[row.n], jacos[row.m], 1, 1)))
        for check in checks:
            spec = JointSpec(jacos[check.n], jacos[check.m], check.vi, check.uj)
            assert check.direct == gutman_index(edge_joint_graph(spec))


@st.composite
def connected_sides(draw, order):
    """An order-`order` connected side: a random tree (table-backed) or a Jaco graph (reach-backed)."""
    if draw(st.booleans()):
        f = draw(st.sampled_from([IDENTITY, LinearFunction(2, 1), LinearFunction(3, 0)]))
        return build_jaco(f, order).underlying
    return from_edges(order, [(draw(st.integers(1, v - 1)), v) for v in range(2, order + 1)])


@st.composite
def joint_specs(draw):
    """Joints of a few total orders, so that a stack mixes sides of every kind and size."""
    specs = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.sampled_from([2, 5, 9]))
        n = draw(st.integers(1, order - 1))
        g, h = draw(connected_sides(n)), draw(connected_sides(order - n))
        # anchors at either end of a side as often as anywhere between
        v, u = (draw(st.one_of(st.just(1), st.just(k), st.integers(1, k))) for k in (n, order - n))
        specs.append(JointSpec(g, h, v, u))
    return specs


@given(joint_specs())
@settings(max_examples=80, deadline=None)
def test_audit_stacks_are_the_composed_graphs(specs):
    # every slice the audit composes from the sides equals the joint built as
    # an edge table, adjacency and degrees alike, and so does its index
    stacks = []
    real = edge_joint._joint_stack

    def recording(batch, sides):
        adj, deg = real(batch, sides)
        stacks.append((batch, adj, deg))
        return adj, deg

    with mock.patch.object(edge_joint, "_joint_stack", recording):
        values = edge_joint._direct_gutman(specs)
    assert sorted(id(spec) for batch, _, _ in stacks for spec in batch) == sorted(map(id, specs))
    for batch, adj, deg in stacks:
        assert adj.dtype == bool and deg.dtype == np.int64
        for spec, a, d in zip(batch, adj, deg):
            composed = edge_joint_graph(spec)
            assert np.array_equal(a, graph_core.dense_adjacency(composed))
            assert np.array_equal(d, composed.degree_array())
    assert values == [gutman_index(edge_joint_graph(spec)) for spec in specs]


def test_disconnected_side_in_a_stack_raises(monkeypatch):
    specs = [
        JointSpec(path(3), k2(), 1, 1),
        JointSpec(from_edges(3, [(1, 2)]), k2(), 3, 2),
        JointSpec(k2(), path(3), 2, 3),
    ]
    shapes = []
    real = graph_core.layered_distance_matrix

    def recording(adj):
        shapes.append(adj.shape)
        return real(adj)

    monkeypatch.setattr(edge_joint, "layered_distance_matrix", recording)
    with pytest.raises(DisconnectedGraphError):
        edge_joint._direct_gutman(specs)
    assert shapes == [(3, 5, 5)]


# The stack's one `_pair_sum` call runs in int64, or, with its bound at 0,
# in Python integers; either way each slice is its own graph's sum.
@pytest.mark.parametrize("object_sums", [False, True], ids=["int64 slices", "object slices"])
def test_stack_past_the_int64_bound_sums_each_slice(object_sums, monkeypatch):
    jacos = {k: build_jaco(IDENTITY, k).underlying for k in range(2, 9)}
    specs = [JointSpec(jacos[n], jacos[m], v, 1) for n in range(2, 9) for m in range(2, n + 1) for v in (1, n)]
    expected = []
    for spec in specs:
        composed = edge_joint_graph(spec)
        expected.append(graph_core._pair_sum(composed.degree_array(), all_pairs_distances(composed)))
    if object_sums:
        monkeypatch.setattr(graph_core, "_INT64_SAFE", 0)
    assert edge_joint._direct_gutman(specs) == expected


def test_odd_stack_total_raises(monkeypatch):
    # P4 as 2-1-3-4: vertices 2 and 4 both have degree 1, so one extra unit
    # of distance between them makes the ordered total odd
    real = graph_core.layered_distance_matrix

    def doctored(adj):
        dist = real(adj)
        dist[0, 1, 3] += 1
        return dist

    monkeypatch.setattr(edge_joint, "layered_distance_matrix", doctored)
    with pytest.raises(ArithmeticError, match="is odd"):
        edge_joint._direct_gutman([JointSpec(k2(), k2(), 1, 1), JointSpec(k2(), k2(), 2, 2)])
