"""Construction rule, structural validators, and the degree landscape."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import (
    IDENTITY,
    LinearFunction,
    all_pairs_distances,
    build_jaco,
    component_structure,
    hope_graph,
    jaco_from_arcs,
    jaconian_info,
    prefix_scan,
    recursion_delta_report,
    recursion_exact_terms,
    sequence_table,
    verify_definition_fixed_point,
    verify_fundamental_properties,
)
from jaco_gutman import jaco
from jaco_gutman.serialize import jaco_from_json, jaco_to_json

from bruteforce import slow_jaco_arcs

J5_ARCS = ((1, 2), (2, 3), (3, 4), (3, 5), (4, 5))
J7_ARCS = (
    (1, 2),
    (2, 3),
    (3, 4),
    (3, 5),
    (4, 5),
    (4, 6),
    (4, 7),
    (5, 6),
    (5, 7),
    (6, 7),
)


class TestLinearFunction:
    def test_call_and_str(self):
        f = LinearFunction(2, 1)
        assert f(3) == 7
        assert str(f) == "f(x) = 2x + 1"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LinearFunction(-1, 0)
        with pytest.raises(ValueError):
            LinearFunction(0, -2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            LinearFunction(1.5, 0)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            LinearFunction(True, False)
        with pytest.raises(ValueError):
            LinearFunction(1, True)


class TestBuilder:
    def test_order_five_identity(self):
        j = build_jaco(IDENTITY, 5)
        assert j.arcs == J5_ARCS

    def test_order_seven_identity(self):
        j = build_jaco(IDENTITY, 7)
        assert j.arcs == J7_ARCS
        assert j.arc_count == 10
        degrees = tuple(j.degree(v) for v in range(1, 8))
        assert degrees == (1, 2, 3, 4, 4, 3, 3)

    def test_order_seven_distance(self):
        j = build_jaco(IDENTITY, 7)
        assert all_pairs_distances(j.underlying)[0, 6] == 4

    def test_zero_function_is_null(self):
        j = build_jaco(LinearFunction(0, 0), 4)
        assert j.arc_count == 0
        assert component_structure(j) == [1, 1, 1, 1]

    def test_constant_function_components(self):
        j = build_jaco(LinearFunction(0, 2), 7)
        assert component_structure(j) == [3, 3, 1]

    def test_constant_function_clique_pattern(self):
        # m = 0: consecutive blocks of c+1 vertices, each a complete graph
        for c in range(1, 6):
            for n in (10, 37, 100):
                j = build_jaco(LinearFunction(0, c), n)
                block = c + 1
                expected = [block] * (n // block)
                if n % block:
                    expected.append(n % block)
                expected.sort(reverse=True)
                assert component_structure(j) == expected

    def test_matches_sequential_rule(self):
        for m in range(4):
            for c in range(4):
                f = LinearFunction(m, c)
                for n in (1, 2, 3, 7, 20, 60):
                    assert build_jaco(f, n).arcs == tuple(slow_jaco_arcs(m, c, n))

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            build_jaco(IDENTITY, 0)

    def test_in_out_degrees(self):
        j = build_jaco(IDENTITY, 5)
        assert j.in_degree_array.tolist() == [0, 1, 1, 1, 2]
        assert j.out_degree_array.tolist() == [1, 1, 2, 1, 0]
        assert j.degree(3) == 3
        with pytest.raises(ValueError):
            j.in_degree(6)

    def test_underlying_shares_arc_table(self):
        j = build_jaco(IDENTITY, 7)
        assert j.underlying.edge_list() == list(J7_ARCS)
        assert j.underlying.order == 7


class TestFromArcs:
    def test_round_trip(self):
        j = jaco_from_arcs(IDENTITY, 5, J5_ARCS)
        assert j == build_jaco(IDENTITY, 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            jaco_from_arcs(IDENTITY, 3, [(1, 2), (1, 2)])

    def test_rejects_backward_arc(self):
        with pytest.raises(ValueError):
            jaco_from_arcs(IDENTITY, 3, [(2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            jaco_from_arcs(IDENTITY, 3, [(1, 4)])

    def test_rejects_non_integer_endpoints(self):
        for arc in ((1, 2.9), (1, True), ("1", 2)):
            with pytest.raises(ValueError):
                jaco_from_arcs(IDENTITY, 3, [arc])


class TestFixedPoint:
    def test_built_graphs_pass(self):
        for m in range(4):
            for c in range(4):
                f = LinearFunction(m, c)
                for n in (1, 5, 40):
                    assert verify_definition_fixed_point(build_jaco(f, n))

    def test_missing_arc_fails(self):
        arcs = [a for a in J5_ARCS if a != (3, 5)]
        assert not verify_definition_fixed_point(jaco_from_arcs(IDENTITY, 5, arcs))

    def test_extra_arc_fails(self):
        arcs = list(J5_ARCS) + [(1, 3)]
        assert not verify_definition_fixed_point(jaco_from_arcs(IDENTITY, 5, arcs))

    def test_hand_built_overreach_fails(self):
        # v_1 reaches only v_2 under f(x) = x, so (1, 3) is illegal
        j = jaco_from_arcs(IDENTITY, 3, [(1, 2), (1, 3)])
        assert not verify_definition_fixed_point(j)


@pytest.mark.parametrize("m, c", [(2**61, 0), (2**62, 0), (1, 2**63 - 2), (2**70, 5), (10**400, 10**400)])
@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_validators_take_huge_coefficients(m, c, n):
    # f(i) and the reach overflow int64 unless the validators cap m and c
    j = build_jaco(LinearFunction(m, c), n)
    assert verify_definition_fixed_point(j)
    assert verify_fundamental_properties(j).all_ok
    assert jaco_from_json(jaco_to_json(j)) == j


class TestFundamentalProperties:
    def test_identity_order_seven(self):
        report = verify_fundamental_properties(build_jaco(IDENTITY, 7))
        assert report.all_ok
        # v_3's reach lies inside the order, so its degree equals f(3)
        assert build_jaco(IDENTITY, 7).degree(3) == 3

    def test_steeper_function(self):
        report = verify_fundamental_properties(build_jaco(LinearFunction(2, 1), 20))
        assert report.all_ok

    def test_doctored_graph_reported(self):
        j = jaco_from_arcs(IDENTITY, 3, [(1, 2), (1, 3)])
        report = verify_fundamental_properties(j)
        assert not report.all_ok
        assert not report.in_neighbors_contiguous.ok or not report.realized_degrees_match_f.ok
        failing = [c for c in report.checks() if not c.ok]
        assert all(c.counterexample for c in failing)

    def test_check_names_stable(self):
        report = verify_fundamental_properties(build_jaco(IDENTITY, 4))
        assert [c.name for c in report.checks()] == [
            "tails_precede_heads",
            "in_neighbors_contiguous",
            "realized_degrees_match_f",
        ]


class TestJaconian:
    def test_order_two(self):
        info = jaconian_info(build_jaco(IDENTITY, 2))
        assert info.max_degree == 1
        assert info.jaconian_set == (1, 2)
        assert info.prime_index == 1
        assert info.hope_range == range(2, 3)

    def test_order_five(self):
        info = jaconian_info(build_jaco(IDENTITY, 5))
        assert info.max_degree == 3
        assert info.jaconian_set == (3,)
        assert info.prime_index == 3

    def test_order_six(self):
        info = jaconian_info(build_jaco(IDENTITY, 6))
        assert info.jaconian_set == (3, 4, 5)

    def test_order_seven(self):
        info = jaconian_info(build_jaco(IDENTITY, 7))
        assert info.jaconian_set == (4, 5)
        assert info.prime_index == 4
        assert info.hope_range == range(5, 8)


class TestHopeGraph:
    def test_order_two_single_vertex(self):
        h = hope_graph(build_jaco(IDENTITY, 2))
        assert h.order == 1 and h.size == 0

    def test_order_five_k2(self):
        h = hope_graph(build_jaco(IDENTITY, 5))
        assert h.order == 2 and h.edge_list() == [(1, 2)]

    def test_order_seven_k3(self):
        h = hope_graph(build_jaco(IDENTITY, 7))
        assert h.order == 3
        assert h.edge_list() == [(1, 2), (1, 3), (2, 3)]

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            hope_graph(build_jaco(IDENTITY, 1))

    def test_complete_for_identity(self):
        for n in range(2, 120):
            h = hope_graph(build_jaco(IDENTITY, n))
            assert h.size == h.order * (h.order - 1) // 2


class TestConnectivity:
    def test_identity_chain(self):
        assert component_structure(build_jaco(IDENTITY, 9)) == [9]

    def test_positive_slope_always_connected(self):
        for m in (1, 2, 3):
            for c in (0, 1, 3):
                for n in (2, 17, 80):
                    j = build_jaco(LinearFunction(m, c), n)
                    assert component_structure(j) == [n]


class TestPrefixes:
    def test_prefix_consistency(self):
        full = build_jaco(IDENTITY, 300)
        arcs = full.arc_array
        for n in range(1, 301):
            truncated = arcs[arcs[:, 1] <= n]
            assert build_jaco(IDENTITY, n).arcs == tuple(
                (int(a), int(b)) for a, b in truncated
            )

    def test_prefix_scan_matches_per_order_analysis(self):
        for f in (IDENTITY, LinearFunction(2, 0), LinearFunction(1, 2)):
            facts = prefix_scan(f, 90)
            for fact in facts:
                j = build_jaco(f, fact.n)
                info = jaconian_info(j)
                assert fact.edge_count == j.arc_count
                assert fact.max_degree == info.max_degree
                assert fact.jaconian_count == len(info.jaconian_set)
                assert fact.prime_index == info.prime_index
                hope = hope_graph(j) if fact.n >= 2 else None
                if hope is not None:
                    complete = hope.size == hope.order * (hope.order - 1) // 2
                    assert fact.hope_complete == complete

    def test_prefix_scan_extension_column(self):
        facts = prefix_scan(IDENTITY, 150)
        for fact in facts:
            jnext = build_jaco(IDENTITY, fact.n + 1)
            attach = sorted(int(a) for a, b in jnext.arc_array if b == fact.n + 1)
            expected = list(range(fact.prime_index + 1, fact.n + 1))
            assert (attach == expected) == fact.extension_matches_hope

    def test_prefix_scan_rejects_low_bound(self):
        with pytest.raises(ValueError):
            prefix_scan(IDENTITY, 0)


# Each order sweep builds the graph of order 5 and reads lower orders as its
# prefixes; recursion_exact_terms of J_4 audits J_5 for the prime index.
SWEEPS = {
    "prefix_scan": lambda: prefix_scan(IDENTITY, 4),
    "gutman table": lambda: sequence_table("gutman", IDENTITY, 5),
    "v1_vn_distance table": lambda: sequence_table("v1_vn_distance", IDENTITY, 5),
    "recursion_delta_report": lambda: recursion_delta_report(4),
    "recursion_exact_terms": lambda j4=build_jaco(IDENTITY, 4): recursion_exact_terms(j4),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_failed_contiguity_audit_stops_every_sweep(sweep, monkeypatch):
    # v_5's only in-neighbour is v_1, so its in-set is not [4, 4]
    monkeypatch.setattr(jaco, "build_jaco", lambda f, n: jaco_from_arcs(f, n, [(1, n)]))
    with pytest.raises(ValueError, match="contiguity audit .*in-neighbors of v_5"):
        SWEEPS[sweep]()


@pytest.mark.parametrize("sweep", SWEEPS)
def test_out_set_gap_fails_the_contiguity_audit(sweep, monkeypatch):
    # every in-set is an interval, but v_1 sends arcs to v_2 and v_4 and not
    # to v_3, so v + d+(v) would not be v_1's reach
    arcs = [(1, 2), (2, 3), (1, 4), (2, 4), (3, 4)]
    monkeypatch.setattr(jaco, "build_jaco", lambda f, n: jaco_from_arcs(f, n, arcs + [(k, k + 1) for k in range(4, n)]))
    with pytest.raises(ValueError, match=re.escape("contiguity audit (out-neighbors of v_1 reach v_4 but not v_3)")):
        SWEEPS[sweep]()


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_builder_is_fixed_point(m, c, n):
    j = build_jaco(LinearFunction(m, c), n)
    assert verify_definition_fixed_point(j)
    assert verify_fundamental_properties(j).all_ok


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_builder_matches_slow_rule(m, c, n):
    assert build_jaco(LinearFunction(m, c), n).arcs == tuple(slow_jaco_arcs(m, c, n))


@st.composite
def forward_arc_sets(draw):
    """(m, c, n, arcs): random forward arcs, half the time toggled against J_n's."""
    m, c, n = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if not pairs:
        return m, c, n, []
    toggled = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    if draw(st.booleans()):
        toggled ^= set(slow_jaco_arcs(m, c, n))
    return m, c, n, draw(st.permutations(sorted(toggled)))


def naive_validation(m, c, n, arcs):
    """Per-tail and per-head sets: (rule holds, first gap head, first wrong degree)."""
    def f(x):
        return m * x + c

    ins = {q: {a for a, b in arcs if b == q} for q in range(1, n + 1)}
    outs = {i: {b for a, b in arcs if a == i} for i in range(1, n + 1)}
    reach = {i: f(i) + i - len(ins[i]) for i in range(1, n + 1)}
    rule = all(outs[i] == set(range(i + 1, min(reach[i], n) + 1)) for i in ins)
    gaps = [q for q in ins if ins[q] != set(range(q - len(ins[q]), q))]
    wrong = [i for i in ins if reach[i] <= n and len(ins[i]) + len(outs[i]) != f(i)]
    return rule, gaps[:1], wrong[:1]


# Toggling no arc against J_n gives J_n itself and a few toggles a near miss,
# so every check both passes and fails over the run.
@given(forward_arc_sets())
@settings(max_examples=300, deadline=None)
def test_validators_match_naive_sets(case):
    m, c, n, arcs = case
    j = jaco_from_arcs(LinearFunction(m, c), n, arcs)
    rule, gaps, wrong = naive_validation(m, c, n, arcs)
    assert verify_definition_fixed_point(j) == rule
    report = verify_fundamental_properties(j)
    assert report.tails_precede_heads.ok
    contiguous, realized = report.in_neighbors_contiguous, report.realized_degrees_match_f
    assert contiguous.ok == (not gaps)
    if gaps:
        assert contiguous.counterexample.startswith(f"in-neighbors of v_{gaps[0]} ")
    assert realized.ok == (not wrong)
    if wrong:
        assert realized.counterexample.startswith(f"v_{wrong[0]} has degree")
