"""Benchmark of the `jaco` command line: end-to-end metrics and a per-layer trace.

Run from the repository root; nothing needs to be installed, the children
run the working tree with PYTHONPATH=src.

    python3 bench/run.py --workload gutman-large --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60      # every workload, round-robin
    python3 bench/run.py --workload joint-audit --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --self-test                               # tiny sizes, a few seconds

With --trace 0 each measured invocation is a fresh `python -m jaco_gutman`
process; the run reports wall_s, cpu_s and peak_rss_mb of the workload and
setup_s, the wall time of the trivial `gutman --n 2`, as medians over the
measured rounds, plus fail_ratio.  With --trace 1 each repetition calls
`jaco_gutman.cli.main` in a child process with timing wrappers installed by
`tracer.py` and reports per-layer self times and counts, next to an
untraced in-process run that gives the tracing overhead.

Every output is checked against the seed code's reference (`references.json`).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results file with machine facts, the drift probe and every
invocation goes to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import ROOT, WORKLOADS, SeedReferences

HARD_LIMIT_S = 165.0


def _print_end_to_end(name: str, stats: dict) -> None:
    for metric, stat in stats.items():
        if metric == "fail_ratio":
            print(f"{name:16} {metric:12} {stat['value']:.4f}  ({stat['failed']} failed of {stat['attempted']} attempted)")
        elif stat is None:
            print(f"{name:16} {metric:12} no successful sample")
        else:
            print(
                f"{name:16} {metric:12} median {stat['median']:.4f} {stat['unit']}"
                f"  q1 {stat['q1']:.4f}  q3 {stat['q3']:.4f}  n={stat['n']}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny sizes; checks the harness itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jaco_gutman" / "cli.py").is_file():
        print(f"error: no jaco_gutman sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    import harness

    if args.self_test:
        import selftest

        return selftest.run(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    check = SeedReferences()
    started = time.monotonic()
    runner = harness.Runner(deadline=started + max(HARD_LIMIT_S, 3 * args.seconds))
    drift = {"loadavg_start": os.getloadavg(), "calibration_start_s": harness.calibration_s()}
    ticks = harness.cpu_ticks()
    label = f"{'trace' if args.trace else 'e2e'}-{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            invocations = harness.measure_trace(names, args.seed, args.seconds, check, runner, spans_prefix=label)
            per_workload = {name: harness.per_layer_metrics(invocations, name) for name in names}
        else:
            invocations = harness.measure_end_to_end(names, args.seed, args.seconds, check, runner)
            per_workload = {name: harness.end_to_end_metrics(invocations, name) for name in names}
    finally:
        runner.close()
    # The children are spawned with vfork semantics, so each child's max RSS
    # starts from this process's peak; keep it below the smallest child's
    # (numpy is imported here only after the last child).
    drift["runner_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    facts = harness.machine_facts()
    drift.update(loadavg_end=os.getloadavg(), calibration_end_s=harness.calibration_s())
    end_ticks = harness.cpu_ticks()
    if ticks and end_ticks and end_ticks[1] > ticks[1]:
        drift["steal_share"] = (end_ticks[0] - ticks[0]) / (end_ticks[1] - ticks[1])

    failed = [inv for inv in invocations if inv.problem is not None]
    path = harness.write_results(
        label,
        {"workloads": names, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "machine": facts, "drift": drift, "metrics": per_workload},
        invocations,
    )
    print(f"machine: {facts['nproc']} cpus, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, blas {facts['blas']['name']} {facts['blas']['version']}, "
          f"threads {facts['thread_env']}")
    print(f"drift: loadavg {drift['loadavg_start'][0]:.2f} -> {drift['loadavg_end'][0]:.2f}, "
          f"calibration {drift['calibration_start_s']:.4f} s -> {drift['calibration_end_s']:.4f} s, "
          f"steal {drift.get('steal_share', float('nan')):.3f}, runner peak RSS {drift['runner_peak_rss_mb']:.1f} MB")
    for inv in failed:
        print(f"FAILED {inv.workload} {inv.kind} round {inv.round}: {inv.problem}")

    reports = [inv.report for inv in invocations if inv.kind == "traced" and inv.report]
    if reports:
        print(f"tracer wrapped {len(reports[0]['functions'])} functions: {', '.join(reports[0]['functions'])}")
    metrics = {}
    for name, stats in per_workload.items():
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            if stats:
                print(f"{name:16} layer self times add up to the traced cli.main time on every traced run;"
                      f" traced {stats['trace.main_s']['value']:.4f} s - overhead {stats['trace.overhead_s']['value']:.4f} s"
                      f" = untraced {stats['trace.untraced_main_s']['value']:.4f} s")
            for metric, stat in stats.items():
                print(f"{name:16} {metric:36} {stat['value']:.6g} {stat['unit']}  n={stat['n']}")
                if metric in harness.PER_LAYER_UNITS:
                    metrics[prefix + metric] = {"value": stat["value"], "unit": stat["unit"]}
        else:
            _print_end_to_end(name, stats)
            for metric, stat in stats.items():
                if metric in harness.END_TO_END_UNITS and stat is not None:
                    metrics[prefix + metric] = {"value": stat["median"], "unit": stat["unit"]}
                elif metric == "fail_ratio" and len(names) > 1:
                    metrics[prefix + metric] = {"value": stat["value"], "unit": stat["unit"]}
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(invocations), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
