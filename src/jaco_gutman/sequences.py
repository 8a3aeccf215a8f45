"""Per-order value tables for linear Jaco graph families.

Four sequences are supported, each tabulated for every order 1..n_max:

  edges                 arc count of the order-n graph
  gutman                Gutman index of the underlying graph (connected only)
  jaconian_cardinality  number of maximum-degree vertices
  v1_vn_distance        distance between the first and last vertex

The order-n graph is the order-n_max graph with the tail vertices deleted, so
one build serves all orders, and one all-pairs distance matrix of the
order-n_max graph serves every distance sequence: order n reads its leading
n x n block.  That block is exact because every closed neighbourhood of the
graph is an index interval.  A walk between a <= b clamped into [a, b] is then
still a walk, and no longer, so a shortest path between two of the first n
vertices never needs a later one: deleting the vertices above n changes no
distance among the rest, and disconnects no pair.  Out-sets are intervals by
construction; in-sets are audited before the matrix is used.  Memory for the
matrix puts the practical ceiling at a few thousand vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import _pair_sum, _require_at_least, _require_connected, all_pairs_distances
from .jaco import LinearFunction, _audited_jaco, prefix_scan

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
    _require_at_least(n_max, 1, "n_max")

    if name in ("edges", "jaconian_cardinality"):
        facts = prefix_scan(f, n_max)
        if name == "edges":
            rows = tuple((fact.n, fact.edge_count) for fact in facts)
        else:
            rows = tuple((fact.n, fact.jaconian_count) for fact in facts)
        return SequenceTable(name, f, rows)

    dist = all_pairs_distances(_audited_jaco(f, n_max).underlying)
    values = []
    for n in range(1, n_max + 1):
        if name == "v1_vn_distance":
            _require_connected(dist[0, :n], f"the distance sequence at order {n}")
            values.append(int(dist[0, n - 1]))
        else:
            block = _require_connected(dist[:n, :n], f"the Gutman index sequence at order {n}")
            values.append(_pair_sum((block == 1).sum(axis=1), block))
    return SequenceTable(name, f, tuple(zip(range(1, n_max + 1), values)))
