"""Layer tracer for `jaco_gutman`, installed from outside the package.

The tracer wraps the public functions of each layer (a package module) in a
timing wrapper.  It rebinds every `jaco_gutman.*` module attribute that holds
the original function object, because modules such as `recursion` and
`sequences` import graph_core functions by name: patching `graph_core` alone
would miss their calls.  A function in the list that cannot be found is an
error naming it, never a silently missing layer.

Spans are kept in memory and written out when the run ends.  A span records
its function, start, end, parent span and n where there is one.  A span's
self time is its duration minus the durations of its child spans, so the
self times of all spans add up exactly to the root span, `cli.main`.
Private helpers (`_pair_sum`, `_index_parts`, `_evaluate`, ...) are not
wrapped and count in the self time of their public caller.  Counters are
updated after a span ends, so their cost lands in the parent's self time
and in the tracing overhead.

Run as a script, this file is the child process of a traced run:

    PYTHONPATH=src python bench/tracer.py --traced 1 --stdout-file OUT \
        --spans-file SPANS -- gutman --n 3000

It calls `jaco_gutman.cli.main(argv)` in-process with stdout captured,
writes the captured output to OUT, and prints one JSON report.  With
`--traced 0` it times the same call without wrappers, which gives the
tracing overhead.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import sys
from time import perf_counter_ns

# (layer group, module, function or Class.method).  The group names the
# per-layer metric family the function's self time is added to.
WRAPPED = (
    ("cli", "cli", "main"),
    ("cli", "cli", "build_parser"),
    ("jaco.build", "jaco", "build_jaco"),
    ("jaco.build", "jaco", "jaco_from_arcs"),
    ("jaco.validate", "jaco", "verify_definition_fixed_point"),
    ("jaco.validate", "jaco", "verify_fundamental_properties"),
    ("jaco.validate", "jaco", "jaconian_info"),
    ("jaco.validate", "jaco", "hope_graph"),
    ("jaco.validate", "jaco", "component_structure"),
    ("jaco.validate", "jaco", "prefix_scan"),
    ("graph_core.adjacency", "graph_core", "dense_adjacency"),
    ("graph_core.distance", "graph_core", "layered_distance_matrix"),
    ("graph_core.index", "graph_core", "gutman_index"),
    ("graph_core.index", "graph_core", "wiener_index"),
    ("graph_core.edges", "graph_core", "from_edges"),
    ("graph_core.edges", "graph_core", "SimpleGraph.edge_list"),
    ("graph_core.edges", "graph_core", "induced_subgraph"),
    ("recursion", "recursion", "recursion_delta_report"),
    ("recursion", "recursion", "recursion_paper_terms"),
    ("recursion", "recursion", "recursion_exact_terms"),
    ("recursion", "recursion", "recursion_paper_rhs"),
    ("recursion", "recursion", "recursion_exact_rhs"),
    ("edge_joint", "edge_joint", "edge_joint_graph"),
    ("edge_joint", "edge_joint", "closed_form_joint_gutman"),
    ("edge_joint", "edge_joint", "joint_paper_rhs"),
    ("edge_joint", "edge_joint", "missing_anchor_block"),
    ("edge_joint", "edge_joint", "joint_check"),
    ("edge_joint", "edge_joint", "joint_delta_report"),
    ("edge_joint", "edge_joint", "anchor_audit"),
    ("sequences", "sequences", "sequence_table"),
    *(
        ("serialize", "serialize", name)
        for name in (
            "jaco_to_json",
            "jaco_from_json",
            "jaco_to_csv",
            "jaco_to_dot",
            "sequence_to_csv",
            "sequence_to_json",
            "recursion_report_csv",
            "recursion_report_json",
            "joint_report_csv",
            "joint_report_json",
            "joint_single_csv",
            "joint_single_json",
        )
    ),
)

# Metric name of each group's summed self time.
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "jaco.build": "jaco.build_s",
    "jaco.validate": "jaco.validate_s",
    "graph_core.adjacency": "graph_core.adjacency_s",
    "graph_core.distance": "graph_core.distance_s",
    "graph_core.index": "graph_core.index_s",
    "graph_core.edges": "graph_core.edges_s",
    "recursion": "recursion.self_s",
    "edge_joint": "edge_joint.self_s",
    "sequences": "sequences.self_s",
    "serialize": "serialize.s",
}

COUNTER_UNITS = {
    "graph_core.distance_calls": "count",
    "graph_core.distance_products": "count",
    "graph_core.distance_flops_computed": "flop",
    "graph_core.distance_bytes_computed": "B",
    "jaco.build_calls": "count",
    "jaco.arcs": "count",
    "recursion.orders": "count",
    "edge_joint.points": "count",
    "serialize.bytes": "B",
}

# Peak working set of one dense distance call: float32 adjacency, int32
# distances, and the bool/float32 temporaries of each level, ~20 bytes a pair.
DISTANCE_BYTES_PER_PAIR = 20


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [function, start_ns, end_ns, parent, n]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_UNITS, 0)
        self.functions: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package: str = "jaco_gutman") -> None:
        """Wrap every function in WRAPPED; raise naming any that is missing."""
        modules = {name: importlib.import_module(f"{package}.{name}") for _, name, _ in WRAPPED}
        loaded = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        missing = []
        for _, module_name, qualname in WRAPPED:
            owner = modules[module_name]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                missing.append(f"{package}.{module_name}.{qualname}")
                continue
            key = f"{module_name}.{qualname}"
            wrapper = self._wrap(original, key)
            for target in [owner] if outer else loaded:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, original))
                        setattr(target, name, wrapper)
            self.functions.append(key)
        if missing:
            self.uninstall()
            raise LookupError("tracer cannot find: " + ", ".join(missing))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def _wrap(self, fn, key: str):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = _COUNT.get(key)
        position, keyword, measure = _SIZE.get(key, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            n = None
            if measure is not None:
                n = measure(args[position] if len(args) > position else kwargs[keyword])
            span = [key, 0, 0, stack[-1] if stack else -1, n]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_s(self) -> dict[str, float]:
        group_of = {f"{module}.{qualname}": group for group, module, qualname in WRAPPED}
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0)
        for span, own in zip(self.spans, self.self_times_ns()):
            totals[SELF_TIME_METRIC[group_of[span[0]]]] += own
        return {name: ns / 1e9 for name, ns in totals.items()}

    def root_ns(self) -> int:
        roots = [end - start for _, start, end, parent, _ in self.spans if parent < 0]
        return sum(roots)


def _distance_count(counters, args, kwargs, dist) -> None:
    order = dist.shape[0]
    # One matrix product per BFS level: diameter-many, or one when no edge exists.
    products = max(int(dist.max()), 1) if order else 0
    counters["graph_core.distance_calls"] += 1
    counters["graph_core.distance_products"] += products
    counters["graph_core.distance_flops_computed"] += products * 2 * order**3
    counters["graph_core.distance_bytes_computed"] = max(
        counters["graph_core.distance_bytes_computed"], DISTANCE_BYTES_PER_PAIR * order * order
    )


def _build_count(counters, args, kwargs, graph) -> None:
    counters["jaco.build_calls"] += 1
    counters["jaco.arcs"] += graph.arc_count


def _increment(metric: str, amount=lambda result: 1):
    def count(counters, args, kwargs, result):
        counters[metric] += amount(result)

    return count


def _text_bytes(counters, args, kwargs, text) -> None:
    counters["serialize.bytes"] += len(text.encode())


_COUNT = {
    "graph_core.layered_distance_matrix": _distance_count,
    "jaco.build_jaco": _build_count,
    "jaco.jaco_from_arcs": _build_count,
    "recursion.recursion_delta_report": _increment("recursion.orders", len),
    "recursion.recursion_paper_terms": _increment("recursion.orders"),
    "recursion.recursion_exact_terms": _increment("recursion.orders"),
    "edge_joint.closed_form_joint_gutman": _increment("edge_joint.points"),
    **{
        f"serialize.{name}": _text_bytes
        for _, module, name in WRAPPED
        if module == "serialize" and name != "jaco_from_json"
    },
}


def _order(graph) -> int:
    return graph.order


# Where a span's n comes from: (positional index, keyword, transform).
_SIZE = {
    "graph_core.layered_distance_matrix": (0, "adj", lambda adj: adj.shape[0]),
    "graph_core.dense_adjacency": (0, "g", _order),
    "graph_core.gutman_index": (0, "g", _order),
    "graph_core.wiener_index": (0, "g", _order),
    "graph_core.from_edges": (0, "order", int),
    "jaco.build_jaco": (1, "n", int),
    "recursion.recursion_delta_report": (0, "n_max", int),
}


def run_child(argv: list[str], traced: bool, stdout_file: str, spans_file: str | None) -> dict:
    from jaco_gutman import cli

    tracer = Tracer()
    if traced:
        tracer.install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        start = perf_counter_ns()
        code = cli.main(argv)
        wall_ns = perf_counter_ns() - start
    finally:
        sys.stdout = real_stdout
        tracer.uninstall()
    with open(stdout_file, "w") as handle:
        handle.write(captured.getvalue())
    report = {"exit_code": code, "main_s": wall_ns / 1e9}
    if traced:
        report.update(
            main_s=tracer.root_ns() / 1e9,
            layers=tracer.layer_self_s(),
            counters=tracer.counters,
            functions=tracer.functions,
            spans=len(tracer.spans),
        )
        if spans_file:
            with open(spans_file, "w") as handle:
                json.dump({"fields": ["function", "start_ns", "end_ns", "parent", "n"],
                           "spans": tracer.spans}, handle, separators=(",", ":"))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stdout-file", required=True)
    parser.add_argument("--spans-file")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    report = run_child(argv, bool(args.traced), args.stdout_file, args.spans_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
