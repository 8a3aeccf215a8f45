"""Acceptance gate: one test per criterion, each printing a pass line.

Budgets are wall-clock upper bounds; every numeric target was reproduced by
the pure-Python oracle in bruteforce.py before being frozen here.
"""
import random
import subprocess
import sys
import time

from jaco_gutman import (
    IDENTITY,
    JointSpec,
    LinearFunction,
    build_jaco,
    closed_form_joint_gutman,
    component_structure,
    edge_joint_graph,
    from_edges,
    gutman_index,
    prefix_scan,
    verify_definition_fixed_point,
    wiener_index,
)
from jaco_gutman.cli import main
from jaco_gutman.edge_joint import anchor_audit, joint_delta_report
from jaco_gutman.recursion import recursion_delta_report

from bruteforce import brute_gutman, random_connected_graph


def announce(capsys, number, label, elapsed=None, budget=None):
    with capsys.disabled():
        timing = f" ({elapsed:.1f}s < {budget:.0f}s)" if budget is not None else ""
        print(f"[criterion {number}] PASS {label}{timing}")


def test_criterion_1_construction_fidelity(capsys):
    start = time.monotonic()
    j5 = build_jaco(IDENTITY, 5)
    assert j5.arcs == ((1, 2), (2, 3), (3, 4), (3, 5), (4, 5))
    assert component_structure(build_jaco(LinearFunction(0, 2), 7)) == [3, 3, 1]
    for m in range(4):
        for c in range(4):
            f = LinearFunction(m, c)
            for n in range(1, 301):
                assert verify_definition_fixed_point(build_jaco(f, n))
    elapsed = time.monotonic() - start
    assert elapsed < 10
    announce(capsys, 1, "construction fidelity", elapsed, 10)


def test_criterion_2_gutman_baselines(capsys):
    start = time.monotonic()
    for n, expected in ((2, 1), (3, 6), (4, 19), (5, 58)):
        assert gutman_index(build_jaco(IDENTITY, n).underlying) == expected
    c4 = from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert gutman_index(c4) == 32
    for n in range(3, 51):
        cn = from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
        assert gutman_index(cn) == 4 * wiener_index(cn)
    for n in range(2, 11):
        kn = from_edges(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])
        assert gutman_index(kn) == (n - 1) ** 2 * wiener_index(kn)
    elapsed = time.monotonic() - start
    assert elapsed < 5
    announce(capsys, 2, "Gutman baselines", elapsed, 5)


def test_criterion_3_recursion_audit(capsys):
    start = time.monotonic()
    rows = recursion_delta_report(500)
    assert len(rows) == 499
    for row in rows:
        assert row.exact_matches_direct
        assert row.closure_ok
        assert sum(row.term_deltas().values()) == row.paper_rhs - row.exact_rhs
    by_n = {row.n: row for row in rows}
    assert by_n[2].delta_paper == -1
    assert by_n[3].delta_paper == -2
    assert by_n[4].delta_paper == 0
    elapsed = time.monotonic() - start
    assert elapsed < 120
    announce(capsys, 3, "recursion audit, exact == direct for n <= 500", elapsed, 120)


def test_criterion_4_joint_audit(capsys):
    start = time.monotonic()
    rows = joint_delta_report(40, 40)
    for row in rows:
        assert row.ok
        assert row.paper_rhs + row.missing_block == row.direct
    by_nm = {(row.n, row.m): row for row in rows}
    assert (by_nm[2, 2].paper_rhs, by_nm[2, 2].direct, by_nm[2, 2].missing_block) == (15, 19, 4)
    assert (by_nm[3, 2].paper_rhs, by_nm[3, 2].direct, by_nm[3, 2].missing_block) == (30, 44, 14)
    checks = anchor_audit(40, 40, per_pair=5, seed=0)
    assert all(check.ok for check in checks)
    rng = random.Random(2024)
    for _ in range(100):
        order_g, edges_g = random_connected_graph(rng, max_order=10)
        order_h, edges_h = random_connected_graph(rng, max_order=10)
        spec = JointSpec(
            from_edges(order_g, edges_g),
            from_edges(order_h, edges_h),
            rng.randint(1, order_g),
            rng.randint(1, order_h),
        )
        composed = edge_joint_graph(spec)
        assert closed_form_joint_gutman(spec) == brute_gutman(
            composed.order, composed.edge_list()
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120
    announce(capsys, 4, "edge-joint audit, closed form == direct", elapsed, 120)


def test_criterion_5_structural_invariants(capsys):
    start = time.monotonic()
    facts = prefix_scan(IDENTITY, 2000)
    for fact in facts:
        if fact.n >= 2:
            assert fact.hope_complete
            assert fact.extension_matches_hope
    full = build_jaco(IDENTITY, 300).arc_array
    for n in range(1, 301):
        prefix = tuple((int(a), int(b)) for a, b in full[full[:, 1] <= n])
        assert build_jaco(IDENTITY, n).arcs == prefix
    elapsed = time.monotonic() - start
    assert elapsed < 60
    announce(capsys, 5, "Hope completeness and extension adjacency to n = 2000", elapsed, 60)


def test_criterion_6_sequences(capsys):
    code = main(["sequences", "--which", "edges", "--n-max", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "n,value\n1,0\n2,1\n3,2\n4,3\n5,5\n6,7\n7,10\n"
    code = main(["sequences", "--which", "jaconian_cardinality", "--n-max", "7"])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(tuple(map(int, line.split(","))) for line in out.splitlines()[1:])
    assert (rows[5], rows[6], rows[7]) == (1, 3, 2)
    code = main(["sequences", "--which", "v1_vn_distance", "--n-max", "7"])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(tuple(map(int, line.split(","))) for line in out.splitlines()[1:])
    assert (rows[5], rows[7]) == (3, 4)
    announce(capsys, 6, "sequence tables byte-exact")


def test_criterion_7_error_contract(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "jaco_gutman", "gutman", "--m", "0", "--c", "2", "--n", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "disconnected" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "jaco_gutman", "build", "--n", "zero"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "jaco_gutman", "gutman", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "58\n"
    announce(capsys, 7, "error contract, exit codes 2 and 1")
