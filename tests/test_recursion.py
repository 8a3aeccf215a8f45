"""Order-recursion audit: published terms, corrected terms, direct values."""
import pytest

from jaco_gutman import (
    IDENTITY,
    DisconnectedGraphError,
    LinearFunction,
    StructureAssumptionViolated,
    all_pairs_distances,
    build_jaco,
    gutman_index,
    jaco_from_arcs,
    recursion_delta_report,
    recursion_exact_rhs,
    recursion_exact_terms,
    recursion_paper_rhs,
    recursion_paper_terms,
)
from jaco_gutman import recursion
from jaco_gutman.recursion import TERM_NAMES

from bruteforce import brute_gutman, slow_jaco_arcs

# (n, i, paper_rhs, exact_rhs, direct)
FROZEN_ROWS = (
    (2, 1, 5, 6, 6),
    (3, 2, 17, 19, 19),
    (4, 2, 58, 58, 58),
    (5, 3, 117, 127, 127),
    (6, 3, 262, 263, 263),
)


class TestFrozenValues:
    def test_report_rows(self):
        rows = recursion_delta_report(6)
        got = [(r.n, r.i, r.paper_rhs, r.exact_rhs, r.direct) for r in rows]
        assert got == [row for row in FROZEN_ROWS]

    def test_delta_column(self):
        rows = recursion_delta_report(6)
        assert [r.delta_paper for r in rows] == [-1, -2, 0, -10, -1]

    def test_order_two_term_breakdown(self):
        jn = build_jaco(IDENTITY, 2)
        p = recursion_paper_terms(jn)
        e = recursion_exact_terms(jn)
        assert (p.base, p.cross, p.hope_pairs, p.new_low, p.new_hope, p.constants) == (
            1, 1, 0, 1, 1, 1,
        )
        assert (e.base, e.cross, e.hope_pairs, e.new_low, e.new_hope, e.constants) == (
            1, 1, 0, 1, 1, 2,
        )
        assert p.total == 5 and e.total == 6

    def test_order_four_term_breakdown(self):
        jn = build_jaco(IDENTITY, 4)
        p = recursion_paper_terms(jn)
        e = recursion_exact_terms(jn)
        assert (p.base, p.cross, p.hope_pairs, p.new_low, p.new_hope, p.constants) == (
            19, 11, 3, 14, 6, 5,
        )
        assert (e.base, e.cross, e.hope_pairs, e.new_low, e.new_hope, e.constants) == (
            19, 11, 3, 8, 6, 11,
        )
        # the printed formula's term errors cancel at this order
        assert p.total == e.total == 58

    def test_per_term_deltas_localized(self):
        # disagreement lives entirely in the new_low and constants terms
        for row in recursion_delta_report(30):
            deltas = row.term_deltas()
            assert set(deltas) == set(TERM_NAMES)
            for name in ("base", "cross", "hope_pairs", "new_hope"):
                assert deltas[name] == 0

    def test_specific_term_deltas(self):
        rows = {r.n: r.term_deltas() for r in recursion_delta_report(4)}
        assert rows[2]["constants"] == -1 and rows[2]["new_low"] == 0
        assert rows[3]["constants"] == -2 and rows[3]["new_low"] == 0
        assert rows[4]["new_low"] == 6 and rows[4]["constants"] == -6


class TestExactness:
    def test_rhs_functions_match_report(self):
        jn = build_jaco(IDENTITY, 3)
        assert recursion_paper_rhs(jn) == 17
        assert recursion_exact_rhs(jn) == 19

    def test_exact_equals_next_order_index(self):
        for n in range(2, 61):
            jn = build_jaco(IDENTITY, n)
            jnext = build_jaco(IDENTITY, n + 1)
            assert recursion_exact_rhs(jn) == gutman_index(jnext.underlying)

    def test_closure_on_every_row(self):
        # per-term deltas must sum to the total difference by construction
        for row in recursion_delta_report(60):
            assert row.closure_ok
            assert sum(row.term_deltas().values()) == row.paper_rhs - row.exact_rhs

    def test_exact_matches_direct_flag(self):
        assert all(r.exact_matches_direct for r in recursion_delta_report(60))

    def test_report_rows_match_per_order_terms_and_oracle(self):
        for row in recursion_delta_report(40):
            jn = build_jaco(IDENTITY, row.n)
            assert row.paper == recursion_paper_terms(jn)
            assert row.exact == recursion_exact_terms(jn)
            assert row.direct == brute_gutman(row.n + 1, slow_jaco_arcs(1, 0, row.n + 1))

    def test_report_builds_once_and_runs_the_kernel_once_per_order(self, monkeypatch):
        builds, kernel_orders = [], []
        real_build, real_kernel = recursion.build_jaco, recursion.layered_distance_matrix

        def counting_build(f, n):
            builds.append(n)
            return real_build(f, n)

        def counting_kernel(adj):
            kernel_orders.append(adj.shape[0])
            return real_kernel(adj)

        monkeypatch.setattr(recursion, "build_jaco", counting_build)
        monkeypatch.setattr(recursion, "layered_distance_matrix", counting_kernel)
        recursion_delta_report(12)
        assert builds == [13]
        assert kernel_orders == list(range(2, 14))

    def test_distance_stability_under_extension(self):
        # distances among v_1..v_n are unchanged by adding v_{n+1}; this is
        # what lets the decomposition reuse the order-n distance matrix
        prev = all_pairs_distances(build_jaco(IDENTITY, 2).underlying)
        for n in range(3, 201):
            cur = all_pairs_distances(build_jaco(IDENTITY, n).underlying)
            assert (cur[: n - 1, : n - 1] == prev).all()
            prev = cur


class TestPreconditions:
    def test_rejects_other_functions(self):
        jn = build_jaco(LinearFunction(2, 0), 5)
        with pytest.raises(ValueError, match="1x \\+ 0"):
            recursion_exact_rhs(jn)
        with pytest.raises(ValueError):
            recursion_paper_rhs(jn)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            recursion_exact_rhs(build_jaco(IDENTITY, 1))

    def test_report_bound_validated(self):
        with pytest.raises(ValueError):
            recursion_delta_report(1)

    def test_structure_guard_fires_on_doctored_graph(self):
        # complete graph labeled as identity-built: every vertex has max degree,
        # so the degree-based prime index disagrees with the extension-based one
        doctored = jaco_from_arcs(IDENTITY, 3, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(StructureAssumptionViolated):
            recursion_exact_terms(doctored)

    def test_report_structure_guard_fires_on_doctored_build(self, monkeypatch):
        # K3's neighbourhoods are intervals, but order 2 has two max-degree
        # vertices while v_3 attaches to both, so i = 0 disagrees with 1.
        # It is built, as the order-3 graph of 2x, because the report reads
        # the reach a build holds.
        doctored = build_jaco(LinearFunction(2, 0), 3)
        assert doctored.arcs == ((1, 2), (1, 3), (2, 3))
        monkeypatch.setattr(recursion, "build_jaco", lambda f, n: doctored)
        with pytest.raises(StructureAssumptionViolated, match="prime index disagreement at n=2"):
            recursion_delta_report(2)

    def test_report_gate_refuses_a_disconnected_build_before_any_kernel(self, monkeypatch):
        # f(x) = 1 joins only the pairs (2k - 1, 2k): the gate checks the one
        # build before the first order, so no prefix reaches the kernel
        real_build = recursion.build_jaco
        monkeypatch.setattr(recursion, "build_jaco", lambda f, n: real_build(LinearFunction(0, 1), n))

        def no_kernel(adj):
            raise AssertionError("the distance kernel ran before the connectivity gate")

        monkeypatch.setattr(recursion, "layered_distance_matrix", no_kernel)
        with pytest.raises(DisconnectedGraphError, match="^the recursion formulas is defined for connected graphs only"):
            recursion_delta_report(6)

    def test_per_order_functions_check_the_graph_before_its_matrix(self, monkeypatch):
        # a doctored identity graph without the arc (3, 4) is disconnected
        doctored = jaco_from_arcs(IDENTITY, 4, [(1, 2), (2, 3)])

        def no_matrix(g):
            raise AssertionError("the matrix was read before the connectivity gate")

        monkeypatch.setattr(recursion, "all_pairs_distances", no_matrix)
        for evaluator in (recursion_paper_terms, recursion_exact_terms, recursion_paper_rhs, recursion_exact_rhs):
            with pytest.raises(DisconnectedGraphError, match="^the recursion formulas "):
                evaluator(doctored)

    def test_paper_evaluator_skips_structure_guard(self):
        # the verbatim evaluator reproduces the printed value regardless
        doctored = jaco_from_arcs(IDENTITY, 3, [(1, 2), (1, 3), (2, 3)])
        assert isinstance(recursion_paper_rhs(doctored), int)
