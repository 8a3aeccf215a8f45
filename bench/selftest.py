"""Self-test of the benchmark at tiny sizes; runs in a few seconds.

    python3 bench/run.py --self-test

It runs every workload end to end and traced at tiny size, with outputs
checked against the pure-Python oracle, and checks that

  * every metric declared in BENCHMARK.json is reported, with its unit;
  * the tracer wraps every listed function, rebinds names that other
    modules imported, fails loudly on a missing one, and its self times add
    up to cli.main (checked on every traced run by the harness);
  * a deliberately wrong reference, a nonzero exit, a kill by a signal and
    a timeout are each counted as failures, never dropped;
  * the runner's own peak RSS stays below every child's, so the max RSS
    that `os.wait4` reports for a child is the child's own.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import harness
from workloads import ROOT, WORKLOADS, OracleReferences, SeedReferences


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: object = "") -> None:
        self.results.append((name, bool(ok), str(detail)))
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + str(detail) if detail and not ok else ''}")


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _check_tracer_installation(checks: Checks) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from jaco_gutman import graph_core, recursion

    original = graph_core.layered_distance_matrix
    t = tracer.Tracer()
    t.install()
    try:
        rebound = recursion.layered_distance_matrix is graph_core.layered_distance_matrix
        checks.expect("names imported by other modules are rebound", rebound and recursion.layered_distance_matrix is not original)
        checks.expect("every listed function is wrapped", len(t.functions) == len(tracer.WRAPPED), t.functions)
    finally:
        t.uninstall()
    checks.expect("uninstall restores the originals", recursion.layered_distance_matrix is original)

    listed = tracer.WRAPPED
    tracer.WRAPPED = listed + (("graph_core", "graph_core", "no_such_function"),)
    try:
        tracer.Tracer().install()
        checks.expect("a missing function is an error", False, "install() succeeded")
    except LookupError as exc:
        checks.expect("a missing function is an error naming it", "graph_core.no_such_function" in str(exc), exc)
    finally:
        tracer.WRAPPED = listed
    checks.expect("a failed install leaves nothing wrapped", graph_core.layered_distance_matrix is original)


def run(seed: int) -> int:
    checks = Checks()
    oracle = OracleReferences(tiny=True)
    names = list(WORKLOADS)
    runner = harness.Runner(deadline=time.monotonic() + 150)
    try:
        e2e = harness.measure_end_to_end(names, seed, 0, oracle, runner, tiny=True, setup_probes=1, min_rounds=1)
        traced = harness.measure_trace(names, seed, 0, oracle, runner, tiny=True, spans_prefix="selftest")
        wrong = harness.measure_end_to_end(
            ["export"], seed, 0, lambda name, s, out: None if out.read_bytes() == oracle.arcs_json(2, 1, 61) else "differs",
            runner, tiny=True, setup_probes=0, min_rounds=1,
        )
        exit_code = runner.jaco("probe", "main", ["gutman", "--n", "0"], lambda out: None, 0)
        killed = runner.spawn([sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGTERM)"])
        slow = harness.Runner(deadline=time.monotonic() + 60, invocation_timeout=1.0)
        try:
            timeout = slow.spawn([sys.executable, "-c", "import time; time.sleep(30)"])
        finally:
            slow.close()
    finally:
        runner.close()

    problems = [f"{i.workload} {i.kind}: {i.problem}" for i in e2e + traced if i.problem]
    checks.expect("tiny workloads agree with the oracle", not problems, problems)

    e2e_units = _declared("end_to_end")
    layer_units = _declared("per_layer")
    for name in names:
        stats = harness.end_to_end_metrics(e2e, name)
        got = {metric: stat["unit"] for metric, stat in stats.items() if metric in e2e_units and stat}
        checks.expect(f"{name}: end-to-end metrics and units", got == e2e_units, got)
        checks.expect(f"{name}: fail_ratio is 0", stats["fail_ratio"]["value"] == 0, stats["fail_ratio"])
        layers = harness.per_layer_metrics(traced, name)
        got = {metric: stat["unit"] for metric, stat in layers.items() if metric in layer_units}
        checks.expect(f"{name}: per-layer metrics and units", got == layer_units, set(layer_units) ^ set(got))

    bf = oracle.bf
    counts = {name: {k: v["value"] for k, v in harness.per_layer_metrics(traced, name).items()} for name in names}
    n_max = WORKLOADS["recursion-sweep"].flags(tiny=True)["--n-max"]
    checks.expect(
        "recursion-sweep: one distance call per order, seen through recursion's own import",
        counts["recursion-sweep"]["graph_core.distance_calls"] == n_max
        and counts["recursion-sweep"]["recursion.orders"] == n_max - 1,
        counts["recursion-sweep"],
    )
    n = WORKLOADS["gutman-large"].flags(tiny=True)["--n"]
    checks.expect(
        "gutman-large: one build and one distance call with the oracle's arc count",
        counts["gutman-large"]["graph_core.distance_calls"] == 1
        and counts["gutman-large"]["jaco.arcs"] == len(bf.slow_jaco_arcs(1, 0, n)),
        counts["gutman-large"],
    )
    flag = WORKLOADS["export"].flags(tiny=True)
    checks.expect(
        "export: no distance work, serialize.bytes is the output size",
        counts["export"]["graph_core.distance_calls"] == 0
        and counts["export"]["serialize.bytes"] == len(oracle.arcs_json(flag["--m"], flag["--c"], flag["--n"])),
        counts["export"],
    )
    flag = WORKLOADS["joint-audit"].flags(tiny=True)
    grid = sum(min(k, flag["--m-max"]) - 1 for k in range(2, flag["--n-max"] + 1))
    checks.expect(
        "joint-audit: one closed form per grid point and per anchor check",
        counts["joint-audit"]["edge_joint.points"] == grid * 6,
        counts["joint-audit"],
    )

    ratio = harness.end_to_end_metrics(wrong, "export")
    checks.expect(
        "a deliberately wrong reference counts in fail_ratio",
        ratio["fail_ratio"]["value"] == 1.0 and ratio["wall_s"] is None,
        ratio["fail_ratio"],
    )
    checks.expect("a nonzero exit is a failure", (exit_code.problem or "").startswith("exit code 1"), exit_code.problem)
    checks.expect("a kill by a signal is a failure", (killed[3] or "").startswith("killed by signal"), killed[3])
    checks.expect("a timeout is a failure", (timeout[3] or "").startswith("timed out"), timeout[3])
    wrong_output = harness.RESULTS_DIR / f"selftest-wrong-output-{seed}"
    wrong_output.write_bytes(b"0\n")
    try:
        rejected = [SeedReferences()(name, seed, wrong_output) for name in names]
    finally:
        wrong_output.unlink()
    checks.expect("the seed references reject a wrong output", all(rejected), rejected)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    smallest = min(i.peak_rss_mb for i in e2e)
    checks.expect(
        "the runner's peak RSS stays below every child's, so each child's max RSS is its own",
        own < smallest,
        f"runner {own:.1f} MB, smallest child {smallest:.1f} MB",
    )

    _check_tracer_installation(checks)

    failed = [name for name, ok, _ in checks.results if not ok]
    path = harness.write_results(
        f"selftest-seed{seed}",
        {"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results]},
        e2e + traced + wrong,
    )
    print(f"results: {path.relative_to(ROOT)}")
    print(f"self-test: {len(checks.results) - len(failed)}/{len(checks.results)} checks passed")
    return 1 if failed else 0
