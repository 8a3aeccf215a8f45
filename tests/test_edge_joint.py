"""Edge-joint composition and its Gutman index formulas."""
import collections
import random
import re
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
    SimpleGraph,
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
from jaco_gutman import cli, edge_joint, graph_core, jaco, recursion
from jaco_gutman.graph_core import StructureAssumptionViolated

from bruteforce import adjacency_from_edges, bfs_distances, brute_gutman, random_connected_graph

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


def _direct_gutman(specs):
    """Each spec's Gutman index by the interval balls of `_direct_stream`, in spec order."""
    return [index for _, index in edge_joint._direct_stream((g for s in specs for g in (s.g, s.h)), specs)]


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
        for g, h in ((from_edges(0, []), k2()), (k2(), from_edges(0, []))):
            with pytest.raises(ValueError, match="^both graphs must have at least one vertex$"):
                JointSpec(g, h, 1, 1)

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
            assert row.ok
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

    @pytest.mark.parametrize("n, vi, uj", [(2, 1, 1), (7, 1, 1), (7, 5, 2), (40, 1, 1), (40, 1, 33), (40, 17, 3)])
    def test_joint_of_one_order_builds_one_graph(self, n, vi, uj, monkeypatch):
        g, h = build_jaco(IDENTITY, n), build_jaco(IDENTITY, n)
        spec = JointSpec(g.underlying, h.underlying, vi, uj)
        direct = gutman_index(edge_joint_graph(spec))
        builds = []
        real_build = edge_joint.build_jaco

        def counting_build(f, order):
            builds.append(order)
            return real_build(f, order)

        monkeypatch.setattr(edge_joint, "build_jaco", counting_build)
        row = joint_check(n, n, vi, uj)
        assert builds == [n]
        assert row["direct"] == row["closed_form"] == closed_form_joint_gutman(spec) == direct
        if spec.trivial:
            assert row["paper_rhs"] == joint_paper_rhs(g, h)
            assert row["missing_block"] == missing_anchor_block(g, h)
            assert row["delta_paper"] == row["paper_rhs"] - direct
        else:
            assert row["paper_rhs"] is row["missing_block"] is row["delta_paper"] is None

    @pytest.mark.parametrize("draw", range(16))
    def test_joint_is_one_point_of_the_audit_checks(self, draw, monkeypatch):
        # the row is the audit's check of its one joint, from one closed form
        # and one stream, and at trivial anchors with n >= m >= 2 its
        # published columns are the trivial audit's row for (n, m)
        rng = random.Random(f"joint point {draw}")
        n, m = rng.randint(1, 30), rng.randint(1, 30)
        vi, uj = (1, 1) if draw % 3 == 0 else (rng.randint(1, n), rng.randint(1, m))
        graphs = {k: build_jaco(IDENTITY, k).underlying for k in (n, m)}
        (expected,) = edge_joint._audit_checks(graphs, [(graphs[n], graphs[m], vi, uj)])
        calls = collections.Counter()

        def counting(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        def refuse(*args):
            raise AssertionError("joint_check took the published columns a second way")

        for name in ("closed_form_joint_gutman", "_direct_stream"):
            monkeypatch.setattr(edge_joint, name, counting(name, getattr(edge_joint, name)))
        monkeypatch.setattr(edge_joint, "joint_paper_rhs", refuse)
        monkeypatch.setattr(edge_joint, "missing_anchor_block", refuse)
        row = joint_check(n, m, vi, uj)
        assert calls == {"closed_form_joint_gutman": 1, "_direct_stream": 1}
        checked = ("n", "m", "vi", "uj", "closed_form", "direct")
        assert [row[key] for key in checked] == [getattr(expected, key) for key in checked]
        monkeypatch.undo()
        if vi == uj == 1 and n >= m >= 2:
            (delta,) = (d for d in joint_delta_report(n, m) if (d.n, d.m) == (n, m))
            columns = ("paper_rhs", "closed_form", "direct", "missing_block", "delta_paper")
            assert [row[c] for c in columns] == [getattr(delta, c) for c in columns]
        else:
            assert row["paper_rhs"] is row["missing_block"] is row["delta_paper"] is None

    @pytest.mark.parametrize("audit", [edge_joint.anchor_checks, anchor_audit])
    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_anchor_audits_reject_a_seed_that_is_not_an_integer(self, audit, seed, monkeypatch):
        # the seed is checked with the bounds, before any graph is built
        def refuse(*args):
            raise AssertionError("a graph was built before the seed was checked")

        monkeypatch.setattr(edge_joint, "build_jaco", refuse)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            audit(4, 3, per_pair=2, seed=seed)

    def test_anchor_grid_draws_n_then_m(self):
        # a seed names its anchors: per grid point and pair, randint(1, n)
        # then randint(1, m), drawn again while both are 1
        randint = random.Random(5).randint
        expected = []
        for n in range(2, 9):
            for m in range(2, min(n, 6) + 1):
                for _ in range(3):
                    vi = uj = 1
                    while vi == uj == 1:
                        vi = randint(1, n)
                        uj = randint(1, m)
                    expected.append((n, m, vi, uj))
        assert [(c.n, c.m, c.vi, c.uj) for c in edge_joint.anchor_checks(8, 6, per_pair=3, seed=5)] == expected

    @pytest.mark.parametrize(
        "audit", [lambda *a, **k: list(edge_joint.anchor_checks(*a, **k)), anchor_audit], ids=["anchor_checks", "anchor_audit"]
    )
    def test_anchor_audits_take_a_numpy_integer_seed(self, audit):
        # as every count here; a seed and its negative draw the same anchors
        checks = audit(6, 4, per_pair=2, seed=np.int64(-3))
        assert checks == audit(6, 4, per_pair=2, seed=3) == audit(6, 4, per_pair=2, seed=-3)
        assert all(check.ok for check in checks)

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
        # each identity graph J_2..J_n_max is summed over its jump forest three
        # times (its index, and T from either end) however many grid points
        # share it, and each composed graph grows every one of its vertices'
        # balls once (the independent direct value)
        forests, sources = [], []
        real_forest, real_balls = graph_core._forest_sums, edge_joint._ball_sums

        def counting_forest(hi, w):
            forests.append(len(hi))
            return real_forest(hi, w)

        def counting_balls(tables, ball, *rest):
            sources.append(len(ball[0]))
            return real_balls(tables, ball, *rest)

        monkeypatch.setattr(graph_core, "_forest_sums", counting_forest)
        monkeypatch.setattr(edge_joint, "_ball_sums", counting_balls)
        rows = joint_delta_report(7, 4)
        assert sorted(forests) == [k for k in range(2, 8) for _ in range(3)]
        assert sum(sources) == sum(row.n + row.m for row in rows)
        forests.clear()
        sources.clear()
        checks = anchor_audit(7, 4, per_pair=3, seed=2)
        assert sorted(forests) == [k for k in range(2, 8) for _ in range(3)]
        assert sum(sources) == sum(check.n + check.m for check in checks)
        assert all(c.ok for c in checks)

    # One source per batch grows every vertex's balls on its own and splits
    # each joint over many batches; the default and the bounds near it mix
    # joints of every order in a batch, and a huge bound grows every source of
    # an audit in one batch.
    @pytest.mark.parametrize("sources", [1, None, 1 << 13, 1 << 15, 10**9])
    def test_stack_size_leaves_the_audits_unchanged(self, sources, monkeypatch):
        rows, checks = joint_delta_report(11, 7), anchor_audit(11, 7, per_pair=3, seed=9)
        if sources is not None:
            monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
        assert joint_delta_report(11, 7) == rows
        assert anchor_audit(11, 7, per_pair=3, seed=9) == checks
        jacos = {k: build_jaco(IDENTITY, k).underlying for k in range(2, 12)}
        for row in rows:
            assert row.direct == gutman_index(edge_joint_graph(JointSpec(jacos[row.n], jacos[row.m], 1, 1)))
        for check in checks:
            spec = JointSpec(jacos[check.n], jacos[check.m], check.vi, check.uj)
            assert check.direct == gutman_index(edge_joint_graph(spec))

    def test_audits_form_no_matrix_and_no_adjacency(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a dense BFS, a distance matrix or an adjacency was formed")

        # No command runs the dense BFS, the one float matrix product, so the
        # entry points' one-thread BLAS default costs the command line nothing.
        monkeypatch.setattr(graph_core, "_layered_bfs", refuse)
        monkeypatch.setattr(graph_core, "dense_adjacency", refuse)
        # The recursion audit's direct value fills one jump matrix per order;
        # no other command fills an all-pairs matrix of a Jaco graph at all.
        for argv in ("recursion-check --n-max 12", "erratum --n-max 10 --m-max 6 --seed 3"):
            assert cli.main(argv.split()) == 0, argv
        monkeypatch.setattr(graph_core, "_jump_counts", refuse)
        for argv in (
            "build --m 2 --c 1 --n 30 --format json",
            "gutman --n 40",
            "wiener --m 2 --c 1 --n 12",
            "joint --n 12 --m 9 --vi 4 --uj 2",
            "joint --n 12 --m 9",
            "sequences --n-max 15",
        ):
            assert cli.main(argv.split()) == 0, argv
        assert capsys.readouterr().err == ""
        # every side of an audit is reach-backed: its index and T come from its
        # jump forest and each direct value from interval balls
        monkeypatch.setattr(graph_core, "layered_distance_matrix", refuse)
        rows = joint_delta_report(12, 8)
        assert rows and all(row.ok and row.residual == 0 for row in rows)
        checks = anchor_audit(12, 8, per_pair=2, seed=4)
        assert checks and all(check.ok for check in checks)
        row = joint_check(30, 20, 7, 3)
        assert row["direct"] == row["closed_form"]


REACH_FUNCTIONS = [IDENTITY, LinearFunction(2, 1), LinearFunction(3, 0), LinearFunction(1, 3), LinearFunction(5, 7)]


@st.composite
def joint_specs(draw):
    """Joints of reach-backed Jaco sides of orders 1-12, anchored at an end as often as anywhere.

    A side is drawn again from the specs before it now and then, so that
    some joints share a side and some join a graph to itself.
    """
    specs, sides = [], []

    def side():
        if sides and draw(st.booleans()):
            return draw(st.sampled_from(sides))
        g = build_jaco(draw(st.sampled_from(REACH_FUNCTIONS)), draw(st.integers(1, 12))).underlying
        sides.append(g)
        return g

    for _ in range(draw(st.integers(1, 8))):
        g, h = side(), side()
        v, u = (draw(st.one_of(st.just(1), st.just(k), st.integers(1, k))) for k in (g.order, h.order))
        specs.append(JointSpec(g, h, v, u))
    return specs


@given(joint_specs(), st.sampled_from([1, 2, 7, 1 << 12]))
@settings(max_examples=80, deadline=None)
def test_audit_stacks_are_the_composed_graphs(specs, sources):
    # the interval balls give every joint the Gutman index of the composed
    # graph's edge table, by its dense BFS and by the pure-Python oracle,
    # however the batches split the joints' sources; the mirrored joint, H
    # against G, is the same graph, so its two half-joints sum to the same
    # index even where a batch boundary splits them
    with mock.patch.object(edge_joint, "_BATCH_SOURCES", sources):
        values = _direct_gutman(specs)
        assert _direct_gutman([JointSpec(s.h, s.g, s.u, s.v) for s in specs]) == values
    composed = [edge_joint_graph(spec) for spec in specs]
    assert values == [gutman_index(graph) for graph in composed]
    assert values == [brute_gutman(graph.order, graph.edge_list()) for graph in composed]


def test_disconnected_side_in_a_stack_raises(monkeypatch):
    # J_3(0x + 1) is K2 plus K1, a reach-backed graph with two components;
    # the check runs before any ball grows, as a ball of it would never fill
    cliques = build_jaco(LinearFunction(0, 1), 3).underlying
    assert cliques.reach is not None
    jk2 = build_jaco(IDENTITY, 2).underlying
    specs = [
        JointSpec(build_jaco(IDENTITY, 3).underlying, jk2, 1, 1),
        JointSpec(cliques, jk2, 3, 2),
        JointSpec(jk2, cliques, 2, 3),
    ]
    message = "^the Gutman index is defined for connected graphs only and this graph is disconnected$"

    def no_balls(*args):
        raise AssertionError("a ball grew before the connectivity check")

    monkeypatch.setattr(edge_joint, "_ball_sums", no_balls)
    with pytest.raises(DisconnectedGraphError, match=message):
        _direct_gutman(specs)
    # the composed graph's own index says the same
    with pytest.raises(DisconnectedGraphError, match=message):
        gutman_index(edge_joint_graph(specs[1]))


def test_table_backed_side_in_a_stack_raises(monkeypatch):
    # the interval balls read a side's reach, so a table-backed side is
    # refused before any ball grows, even among reach-backed joints
    jk3, jk2 = build_jaco(IDENTITY, 3).underlying, build_jaco(IDENTITY, 2).underlying
    table = from_edges(3, [(1, 2), (2, 3)])
    specs = [JointSpec(jk3, jk2, 1, 1), JointSpec(jk2, table, 2, 3), JointSpec(jk3, jk3, 3, 1)]

    def no_balls(*args):
        raise AssertionError("a ball grew before the backing check")

    monkeypatch.setattr(edge_joint, "_ball_sums", no_balls)
    with pytest.raises(ValueError, match=r"reach-backed sides; use gutman_index\(edge_joint_graph\(spec\)\)$"):
        _direct_gutman(specs)


def _read_log(specs, log):
    """The specs one at a time, each added to `log` as it is read."""
    for spec in specs:
        log.append(spec)
        yield spec


def _stream_within_a_batch_ahead(sides, joints, sources):
    """The stream's (joint, index) pairs over `joints`, checking how far it has read as each comes back."""
    longest = max(g.order + h.order for g, h, _, _ in joints)
    read, pairs = [], []
    for joint, value in edge_joint._direct_stream(sides, _read_log(joints, read)):
        # each joint comes back as it was read, the next one in order
        assert joint is read[len(pairs)]
        pairs.append((joint, value))
        # the stream has read past the joints it yielded by at most the
        # batch being summed, one joint that ends in it and one read ahead
        unyielded = sum(g.order + h.order for g, h, _, _ in read[len(pairs) :])
        assert unyielded < sources + 2 * longest
    assert len(read) == len(joints)
    return pairs


# One source per batch splits every joint across batches, 7 splits most of
# them, and 64 holds several whole joints in one batch.
@pytest.mark.parametrize("sources", [1, 7, 64])
def test_direct_stream_reads_a_batch_ahead(sources, monkeypatch):
    monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
    sides = [build_jaco(f, k).underlying for f in (IDENTITY, LinearFunction(2, 1)) for k in range(1, 10)]
    rng = random.Random(sources)
    pairs = [(g, h) for g in sides for h in sides][::7]
    specs = [JointSpec(g, h, rng.randint(1, g.order), rng.randint(1, h.order)) for g, h in pairs]
    streamed = _stream_within_a_batch_ahead(sides, specs, sources)
    values = [value for _, value in streamed]
    assert len(specs) > 20
    assert list(edge_joint._direct_stream(sides, specs)) == streamed
    assert values == _direct_gutman(specs)
    assert values == [gutman_index(edge_joint_graph(spec)) for spec in specs]
    # the audits' plain (g, h, v, u) tuples, read from the end of the trivial
    # grid on into the anchor grid, keep the same bound
    graphs = edge_joint._identity_graphs(9, 6, 2, sources)
    joints = [*edge_joint._trivial_joints(graphs, 6), *edge_joint._anchor_joints(graphs, 6, 2, sources)]
    streamed = _stream_within_a_batch_ahead(graphs.values(), joints, sources)
    assert [value for _, value in streamed] == [gutman_index(edge_joint_graph(JointSpec(*j))) for j in joints]


# One source per batch and 7 split joints across batches, 64 holds several
# whole joints in a batch and 4 096 is the default, so a batch may hold the
# end of the trivial grid and the start of the anchor grid, or end between
# them.  A batch of one source runs one batch per vertex, so small batches
# take smaller grids.
@pytest.mark.parametrize("sources", [1, 7, 64, 4096])
@pytest.mark.parametrize("draw", range(3))
def test_one_stream_serves_both_audits(sources, draw, monkeypatch, capsys):
    rng = random.Random(f"one stream {sources} {draw}")
    bound = {1: 8, 7: 14}.get(sources, 30)
    n_max, m_max, seed = rng.randint(2, bound), rng.randint(2, bound), rng.randrange(2**32)
    real = edge_joint.closed_form_joint_gutman

    def skewed(joint):
        # wrong at some joints, whichever audit evaluates them, so that
        # both audits have failures to count and to name
        g, h, v, u = joint
        return real(joint) + ((3 * g.order + h.order + v * u) % 11 == 0)

    monkeypatch.setattr(edge_joint, "closed_form_joint_gutman", skewed)
    rows = joint_delta_report(n_max, m_max)
    checks = anchor_audit(n_max, m_max, per_pair=5, seed=seed)
    monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
    shared_rows, stream = edge_joint._joint_audits(n_max, m_max, per_pair=5, seed=seed)
    shared = list(stream)
    assert shared_rows == rows
    assert shared == checks
    # the command counts the passes and names the first failure from the shared stream
    code = cli.main(["erratum", "--n-max", str(n_max), "--m-max", str(m_max), "--seed", str(seed)])
    out, err = capsys.readouterr()
    passed = sum(c.ok for c in checks)
    assert out.endswith(f"# anchor audit: {passed}/{len(checks)} non-trivial anchor checks passed (seed={seed})\n")
    named = [
        f"edge-joint point (n, m) = ({r.n}, {r.m}): closed form {r.closed_form}, direct {r.direct}"
        for r in rows
        if not r.ok
    ]
    named += [
        f"anchor check (n, m, vi, uj) = ({c.n}, {c.m}, {c.vi}, {c.uj}): closed form {c.closed_form}, direct {c.direct}"
        for c in checks
        if not c.ok
    ]
    if named:
        assert (code, err) == (2, f"error: an audited value mismatched the direct oracle at {named[0]}\n")
    else:
        assert (code, err) == (0, "")
    # on a sample, the direct values are the composed graphs' own indices
    graphs = {k: build_jaco(IDENTITY, k).underlying for k in range(2, n_max + 1)}
    joints = [(c.n, c.m, c.vi, c.uj, c.direct) for c in rows + shared]
    for n, m, vi, uj, direct in rng.sample(joints, min(len(joints), 12)):
        assert direct == gutman_index(edge_joint_graph(JointSpec(graphs[n], graphs[m], vi, uj)))


def test_erratum_makes_one_closed_form_per_check_and_one_build_per_order(monkeypatch, capsys):
    # The benchmark's self-test pins `edge_joint.points == grid * 6` on this
    # command: one closed form per trivial grid point and per anchor check.
    n_max, m_max = 8, 6
    grid = sum(min(n, m_max) - 1 for n in range(2, n_max + 1))
    closed, builds = [], collections.Counter()
    real_closed, real_build = edge_joint.closed_form_joint_gutman, jaco.build_jaco

    def counting_closed(joint):
        closed.append(joint)
        return real_closed(joint)

    def counting_build(f, order):
        builds[order] += 1
        return real_build(f, order)

    monkeypatch.setattr(edge_joint, "closed_form_joint_gutman", counting_closed)
    for module in (cli, edge_joint, jaco, recursion):
        if getattr(module, "build_jaco", None) is real_build:
            monkeypatch.setattr(module, "build_jaco", counting_build)
    assert cli.main(["erratum", "--n-max", str(n_max), "--m-max", str(m_max)]) == 0
    assert "# anchor audit: 125/125 non-trivial" in capsys.readouterr().out
    assert len(closed) == grid * 6 == 150
    # J_2..J_8 for both edge-joint audits, and J_9 for the recursion audit
    assert builds == {order: 1 for order in range(2, n_max + 2)}


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (from_edges(3, [(1, 2), (2, 3)]), ValueError, "reach-backed sides"),
        (build_jaco(LinearFunction(0, 1), 3).underlying, DisconnectedGraphError, "connected graphs only"),
    ],
    ids=["table-backed", "disconnected"],
)
def test_direct_stream_checks_every_side_before_reading_a_spec(bad, error, message, monkeypatch):
    # the side that fails is used only by the last spec, yet the stream
    # refuses it before it reads a spec or grows a ball
    def no_balls(*args):
        raise AssertionError("a ball grew before the sides were checked")

    monkeypatch.setattr(edge_joint, "_ball_sums", no_balls)
    jk3, jk2 = build_jaco(IDENTITY, 3).underlying, build_jaco(IDENTITY, 2).underlying
    specs = [JointSpec(jk3, jk2, v, 1) for v in (1, 2, 3)] * 5 + [JointSpec(jk3, bad, 1, 2)]
    read = []
    with pytest.raises(error, match=message):
        next(edge_joint._direct_stream([jk3, jk2, bad], _read_log(specs, read)))
    assert read == []


# The acc and the per-joint sums run in int64, or, with both modules' bound
# at 0, in Python integers; either way each joint gets its own graph's sum.
@pytest.mark.parametrize("object_sums", [False, True], ids=["int64 slices", "object slices"])
def test_stack_past_the_int64_bound_sums_each_slice(object_sums, monkeypatch):
    jacos = {k: build_jaco(IDENTITY, k).underlying for k in range(1, 9)}
    specs = [JointSpec(jacos[n], jacos[m], v, 1) for n in range(1, 9) for m in range(1, n + 1) for v in (1, n)]
    expected = []
    for spec in specs:
        composed = edge_joint_graph(spec)
        expected.append(graph_core._pair_sum(composed.degree_array(), all_pairs_distances(composed)))
    if object_sums:
        monkeypatch.setattr(graph_core, "_INT64_SAFE", 0)
        monkeypatch.setattr(edge_joint, "_INT64_SAFE", 0)
    monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", 16)
    assert _direct_gutman(specs) == expected


def _reach_path(n):
    """The path 1 - 2 - ... - n as a reach-backed graph."""
    return SimpleGraph.from_reach(np.minimum(np.arange(2, n + 2), n))


# A path of 40 leads, so a batch of its first 16 sources has eccentricities
# from 24 to 39 and compacts long before it fills; the Jaco joints add
# batches of other totals W and shorter runs.
BOUND_SPECS = [
    JointSpec(_reach_path(20), _reach_path(20), 20, 1),
    JointSpec(build_jaco(IDENTITY, 30).underlying, build_jaco(LinearFunction(2, 1), 20).underlying, 7, 20),
    JointSpec(build_jaco(LinearFunction(1, 3), 12).underlying, _reach_path(9), 1, 5),
]


def _batch_bounds(specs, sources):
    """Per batch of `sources` sources: the rounds it adds to its sums, its largest W, and its first compaction round.

    A source's sum grows in the rounds 0..ecc - 1, and a joint's sources are
    its composed graph's vertices in order.  The compaction round is the
    first at which a floor of one source compacts the batch, or None.
    """
    eccs, totals = [], []
    for spec in specs:
        composed = edge_joint_graph(spec)
        adj = adjacency_from_edges(composed.order, composed.edge_list())
        eccs += [max(bfs_distances(adj, a).values()) for a in range(1, composed.order + 1)]
        totals += [2 * composed.size] * composed.order
    bounds = []
    for start in range(0, len(eccs), sources):
        ecc = eccs[start : start + sources]
        compacted = [r for r in range(max(ecc)) if 1 <= sum(e > r for e in ecc) <= len(ecc) // 2]
        bounds.append((max(ecc), max(totals[start : start + sources]), compacted[0] if compacted else None))
    return bounds


# The first round whose sums may pass the bound, in the first batch: round
# 0, a round before its first compaction, one after it, its last, or none;
# the bound then falls elsewhere in the other batches.
@pytest.mark.parametrize("switch", ["round 0", "before compaction", "after compaction", "last round", "never"])
@pytest.mark.parametrize("sources", [16, 4096])
def test_ball_sums_widen_at_the_first_round_past_the_int64_bound(switch, sources, monkeypatch):
    monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
    monkeypatch.setattr(edge_joint, "_COMPACT_FLOOR", 1)
    composed = [edge_joint_graph(spec) for spec in BOUND_SPECS]
    expected = [brute_gutman(graph.order, graph.edge_list()) for graph in composed]
    assert _direct_gutman(BOUND_SPECS) == expected
    bounds = _batch_bounds(BOUND_SPECS, sources)
    rounds, most, compacted = bounds[0]
    assert 2 < compacted < rounds - 2
    # widening at round s needs (s + 1) * W >= bound > s * W
    first = {"round 0": 0, "before compaction": compacted - 2, "after compaction": compacted + 2}
    first["last round"] = rounds - 1
    safe = first[switch] * most + 1 if switch in first else rounds * most + 1
    monkeypatch.setattr(edge_joint, "_INT64_SAFE", safe)
    real, dtypes = edge_joint._ball_sums, []

    def recording(*args):
        weight, sums = real(*args)
        dtypes.append(sums.dtype)
        return weight, sums

    monkeypatch.setattr(edge_joint, "_ball_sums", recording)
    assert _direct_gutman(BOUND_SPECS) == expected
    # a batch sums in Python integers exactly when its last round passed the bound
    assert dtypes == [np.dtype(object if r * w >= safe else np.int64) for r, w, _ in bounds]
    assert (dtypes[0] == object) == (switch != "never")


def test_odd_stack_total_raises(monkeypatch):
    # P4 as 2-1-3-4: vertex 2, the first joint's second source, has degree 1,
    # so one extra unit in its distance sum makes the ordered total odd
    real = edge_joint._ball_sums

    def doctored(*args):
        weight, sums = real(*args)
        assert weight[1] == 1
        sums[1] += 1
        return weight, sums

    monkeypatch.setattr(edge_joint, "_ball_sums", doctored)
    jk2 = build_jaco(IDENTITY, 2).underlying
    with pytest.raises(ArithmeticError, match="is odd"):
        _direct_gutman([JointSpec(jk2, jk2, 1, 1), JointSpec(jk2, jk2, 2, 2)])


def test_a_ball_that_stops_growing_raises(monkeypatch):
    # with lo and hi frozen at each vertex, a ball grows only across the
    # bridge and never fills; no eccentricity reaches the joint's order
    real = edge_joint._side_tables

    def frozen(sides):
        offset, lo, _, pre = real(sides)
        positions = np.arange(len(lo))
        return offset, positions, positions, pre

    monkeypatch.setattr(edge_joint, "_side_tables", frozen)
    spec = JointSpec(build_jaco(IDENTITY, 3).underlying, build_jaco(IDENTITY, 2).underlying, 2, 1)
    with pytest.raises(RuntimeError, match="has not filled its joint after 5 rounds"):
        _direct_gutman([spec])


def _mixed_order_specs():
    """Joints of orders 2 to 120 in no order, with anchors anywhere and at the ends."""
    rng = random.Random(120)
    specs = []
    for order in (2, 2, 3, 4, 6, 9, 13, 20, 31, 47, 64, 80, 97, 111, 120, 120):
        k = rng.randint(1, order - 1)
        g, h = (build_jaco(rng.choice(REACH_FUNCTIONS), size).underlying for size in (k, order - k))
        v, u = (rng.choice([1, side.order, rng.randint(1, side.order)]) for side in (g, h))
        specs.append(JointSpec(g, h, v, u))
    rng.shuffle(specs)
    return specs


MIXED_ORDER_SPECS = _mixed_order_specs()


@pytest.fixture(scope="module")
def mixed_order_indices():
    return [gutman_index(edge_joint_graph(spec)) for spec in MIXED_ORDER_SPECS]


# In one batch of 4 096 the small joints fill and retire long before the
# largest, and the sources open the other side's part at any round; a batch
# of one source is never compacted, and 5 and 64 split joints across
# batches, each of which retires its filled balls on its own.  With the
# default floor none of these batches is compacted; with a floor of one,
# each is, as often as half of its balls fill.
@pytest.mark.parametrize("floor", [None, 1], ids=["default floor", "floor 1"])
@pytest.mark.parametrize("sources", [1, 5, 64, 4096])
def test_retired_and_late_opening_balls_keep_their_sums(sources, floor, mixed_order_indices, monkeypatch):
    monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
    if floor is not None:
        monkeypatch.setattr(edge_joint, "_COMPACT_FLOOR", floor)
    assert _direct_gutman(MIXED_ORDER_SPECS) == mixed_order_indices


def test_a_ball_that_never_fills_among_retired_ones_raises(monkeypatch):
    # lo and hi are frozen at each position of one side only, so its joint's
    # balls grow only across the bridge and never fill, while the 48 joints
    # of order 5 beside it in the batch fill within four rounds and are
    # compacted away; the order-7 joint sets the batch's round limit
    real = edge_joint._side_tables
    jk3, jk2, bad = (build_jaco(IDENTITY, k).underlying for k in (3, 2, 5))

    def doctored(sides):
        offset, lo, hi, pre = real(sides)
        own = offset[[g is bad for g in sides].index(True)]
        span = np.arange(own, own + bad.order + 2)
        lo[span] = hi[span] = span
        return offset, lo, hi, pre

    monkeypatch.setattr(edge_joint, "_side_tables", doctored)
    monkeypatch.setattr(edge_joint, "_COMPACT_FLOOR", 1)
    specs = [JointSpec(jk3, jk2, v, u) for v in (1, 2, 3) for u in (1, 2)] * 8 + [JointSpec(bad, jk2, 3, 1)]
    message = "^a ball has not filled its joint after 7 rounds, more than the joint's order allows$"
    with pytest.raises(StructureAssumptionViolated, match=message):
        _direct_gutman(specs)


def _brute_degree_distance_sums(order, edges):
    adj = adjacency_from_edges(order, edges)
    deg = {x: len(adj[x]) for x in adj}
    return [sum(deg[x] * d for x, d in bfs_distances(adj, v).items()) for v in range(1, order + 1)]


@given(
    st.one_of(
        st.tuples(st.sampled_from(REACH_FUNCTIONS + [LinearFunction(0, 40)]), st.integers(1, 40)),
        st.randoms(use_true_random=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_degree_distance_sums_match_bruteforce(source):
    # T(v) = sum of deg(x) * dist(v, x): from both ends of the jump forest for
    # a reach-backed graph, from the matrix for a table-backed one
    if isinstance(source, tuple):
        g = build_jaco(*source).underlying
        assert g.reach is not None
    else:
        g = from_edges(*random_connected_graph(source, max_order=12))
    t = graph_core.degree_distance_sums(g)
    assert t.tolist() == _brute_degree_distance_sums(g.order, g.edge_list())
    assert not t.flags.writeable and graph_core.degree_distance_sums(g) is t


ROW_SUM_GRAPHS = {
    **{f"random {seed}": random_connected_graph(random.Random(seed), max_order=12) for seed in range(4)},
    "J_40(2x+1) as a table": (40, build_jaco(LinearFunction(2, 1), 40).underlying.edge_list()),
}


@pytest.mark.parametrize("order, edges", ROW_SUM_GRAPHS.values(), ids=ROW_SUM_GRAPHS)
def test_table_sums_agree_on_both_sides_of_the_row_sum_bound(order, edges, monkeypatch):
    # Every row of dist @ deg is at most max(dist) * sum(deg): a limit of
    # exactly that value sends the row sums to Python integers, and one more
    # keeps them in int64.  Each limit gets a fresh graph, so no memoized
    # sum carries over.
    g = from_edges(order, edges)
    bound = int(all_pairs_distances(g).max()) * int(g.degree_array().sum())
    expected = (_brute_degree_distance_sums(order, edges), brute_gutman(order, edges))
    for safe, dtype in ((bound, object), (bound + 1, np.int64)):
        monkeypatch.setattr(graph_core, "_INT64_SAFE", safe)
        fresh = from_edges(order, edges)
        t = graph_core.degree_distance_sums(fresh)
        assert t.dtype == dtype
        assert (t.tolist(), gutman_index(fresh)) == expected


@pytest.mark.parametrize(
    "graph",
    [build_jaco(LinearFunction(0, 2), 7).underlying, from_edges(4, [(1, 2), (3, 4)]), from_edges(0, [])],
    ids=["reach cliques", "table", "empty"],
)
def test_degree_distance_sums_need_a_connected_graph(graph):
    error = ValueError if graph.order == 0 else DisconnectedGraphError
    with pytest.raises(error, match="^the degree-distance sums"):
        graph_core.degree_distance_sums(graph)


def _trivial_joint_reach(g, h):
    """The trivial joint of reach-backed g and h as one reach: g read backwards, the bridge, then h.

    Position p holds g's vertex n + 1 - p, whose reach is n + 1 - lo(n + 1 - p).
    Position n holds g's first vertex, which reaches h's first over the
    bridge, and h's reach follows, shifted by n.  The forest sums of this
    reach rest on the greedy-jump lemma, not on the interval balls, so its
    index is a third witness beside the balls and the closed form.
    """
    n = g.order
    backwards = n + 1 - g.lo[::-1]
    backwards[-1] = n + 1
    return np.concatenate((backwards, n + h.reach))


@given(st.sampled_from(REACH_FUNCTIONS), st.integers(2, 40), st.sampled_from(REACH_FUNCTIONS), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_trivial_joint_reach_is_the_joint(f_g, n, f_h, m):
    g, h = build_jaco(f_g, n).underlying, build_jaco(f_h, m).underlying
    composed = edge_joint_graph(JointSpec(g, h, 1, 1))
    assert gutman_index(SimpleGraph.from_reach(_trivial_joint_reach(g, h))) == brute_gutman(n + m, composed.edge_list())


def test_trivial_joint_reach_is_the_joint_at_a_million():
    n = 10**6
    g = build_jaco(IDENTITY, n).underlying
    row = joint_check(n, n)
    assert gutman_index(SimpleGraph.from_reach(_trivial_joint_reach(g, g))) == row["direct"] == row["closed_form"]


# Complete sides of 50 000 vertices: every joint's index is past 2^63, and so
# is one batch's sum when a single batch holds every source.
@pytest.mark.parametrize("sources", [None, 10**9], ids=["default batches", "one batch"])
def test_joint_index_past_the_int64_bound_is_exact(sources, monkeypatch):
    n, m = 50_000, 40_000
    g = SimpleGraph.from_reach(np.full(n, n, dtype=np.int64))
    h = SimpleGraph.from_reach(np.full(m, m, dtype=np.int64))
    # every vertex of a complete graph is alike, so any anchors give the trivial joint
    expected = gutman_index(SimpleGraph.from_reach(_trivial_joint_reach(g, h)))
    assert expected > 2**63
    if sources is not None:
        monkeypatch.setattr(edge_joint, "_BATCH_SOURCES", sources)
    specs = [JointSpec(g, h, 1, 1), JointSpec(g, h, 777, 5), JointSpec(g, h, n, m)]
    assert _direct_gutman(specs) == [expected] * 3
    assert [closed_form_joint_gutman(spec) for spec in specs] == [expected] * 3
