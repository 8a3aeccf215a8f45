"""Per-order value tables for linear Jaco graph families.

Four sequences are supported, each tabulated for every order 1..n_max:

  edges                 arc count of the order-n graph
  gutman                Gutman index of the underlying graph (connected only)
  jaconian_cardinality  number of maximum-degree vertices
  v1_vn_distance        distance between the first and last vertex

The order-n graph is the order-n_max graph with the tail vertices deleted, so
one build serves all orders; distance work runs on prefix views of a single
dense adjacency matrix.  Memory for that matrix puts the practical ceiling at
a few thousand vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    _pair_sum,
    _require_connected,
    dense_adjacency,
    layered_distance_matrix,
)
from .jaco import LinearFunction, build_jaco, prefix_scan

SEQUENCE_NAMES = ("edges", "gutman", "jaconian_cardinality", "v1_vn_distance")


@dataclass(frozen=True)
class SequenceTable:
    """Rows (n, value) for n = 1..n_max, strictly increasing in n."""

    name: str
    f: LinearFunction
    rows: tuple[tuple[int, int], ...]


def sequence_table(name: str, f: LinearFunction, n_max: int) -> SequenceTable:
    """Tabulate one named sequence for orders 1..n_max."""
    if name not in SEQUENCE_NAMES:
        raise ValueError(f"unknown sequence {name!r}; choose from {SEQUENCE_NAMES}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    if name in ("edges", "jaconian_cardinality"):
        facts = prefix_scan(f, n_max)
        if name == "edges":
            rows = tuple((fact.n, fact.edge_count) for fact in facts)
        else:
            rows = tuple((fact.n, fact.jaconian_count) for fact in facts)
        return SequenceTable(name, f, rows)

    adj = dense_adjacency(build_jaco(f, n_max).underlying)
    values = []
    for n in range(1, n_max + 1):
        view = adj[:n, :n]
        if name == "v1_vn_distance":
            dist = layered_distance_matrix(view, sources=[0])
            dist = _require_connected(dist, f"the distance sequence at order {n}")
            values.append(int(dist[0, -1]))
        else:
            dist = layered_distance_matrix(view)
            dist = _require_connected(dist, f"the Gutman index sequence at order {n}")
            values.append(_pair_sum(view.sum(axis=1), dist))
    return SequenceTable(name, f, tuple(zip(range(1, n_max + 1), values)))
