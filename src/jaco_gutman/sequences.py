"""Per-order value tables for linear Jaco graph families.

Four sequences are supported, each tabulated for every order 1..n_max:

  edges                 arc count of the order-n graph
  gutman                Gutman index of the underlying graph (connected only)
  jaconian_cardinality  number of maximum-degree vertices
  v1_vn_distance        distance between the first and last vertex

The order-n graph is the order-n_max graph with the tail vertices deleted, so
one build serves all orders, and one all-pairs distance matrix of that graph
serves every distance sequence: order n reads its leading n x n block.  That
block is exact because every closed neighbourhood of the graph is an index
interval.  A walk between a <= b clamped into [a, b] is then still a walk, and
no longer, so a shortest path between two of the first n vertices never needs
a later one: deleting the vertices above n changes no distance among the rest,
and disconnects no pair.  Out-sets are intervals by construction; in-sets are
audited before the matrix is used.  `sequence_tables` serves any set of tables
from one such build and at most one matrix.  Memory for the matrix puts the
practical ceiling at a few thousand vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import SimpleGraph, _pair_sum, _require_at_least, _require_connected, all_pairs_distances
from .jaco import LinearFunction, _audited_jaco, _prefix_facts

SEQUENCE_NAMES = ("edges", "gutman", "jaconian_cardinality", "v1_vn_distance")


@dataclass(frozen=True)
class SequenceTable:
    """Rows (n, value) for n = 1..n_max, strictly increasing in n."""

    name: str
    f: LinearFunction
    rows: tuple[tuple[int, int], ...]


def sequence_table(name: str, f: LinearFunction, n_max: int) -> SequenceTable:
    """Tabulate one named sequence for orders 1..n_max."""
    return sequence_tables([name], f, n_max)[0]


def sequence_tables(names: Sequence[str], f: LinearFunction, n_max: int) -> list[SequenceTable]:
    """Tabulate the named sequences for orders 1..n_max, in the order named.

    One audited build serves them all.  The count tables read the prefix
    facts of J_{n_max+1}; the distance tables read leading blocks of one
    all-pairs matrix of the same graph, which is J_{n_max} when no count
    table is asked for.  The first table that cannot be tabulated raises.
    """
    unknown = [name for name in names if name not in SEQUENCE_NAMES]
    if unknown:
        raise ValueError(f"unknown sequence {unknown[0]!r}; choose from {SEQUENCE_NAMES}")
    _require_at_least(n_max, 1, "n_max")
    scanned = any(name in ("edges", "jaconian_cardinality") for name in names)
    j = _audited_jaco(f, n_max + 1 if scanned else n_max)
    facts = _prefix_facts(j) if scanned else []
    tables = []
    for name in names:
        if name == "edges":
            values = [fact.edge_count for fact in facts]
        elif name == "jaconian_cardinality":
            values = [fact.jaconian_count for fact in facts]
        else:
            values = [_distance_value(name, j.underlying, n) for n in range(1, n_max + 1)]
        tables.append(SequenceTable(name, f, tuple(zip(range(1, n_max + 1), values))))
    return tables


def _distance_value(name: str, g: SimpleGraph, n: int) -> int:
    """Order n's value of a distance sequence, read from the leading block of g's distances.

    Vertex v's neighbours above it are v + 1..hi(v), so order n keeps
    min(above(v), n - v) of them and all of those below: its degrees take
    O(n), not a pass over the block.
    """
    dist = all_pairs_distances(g)
    if name == "v1_vn_distance":
        _require_connected(dist[0, :n], f"the distance sequence at order {n}")
        return int(dist[0, n - 1])
    block = _require_connected(dist[:n, :n], f"the Gutman index sequence at order {n}")
    below, above = g.split_degree_arrays()
    return _pair_sum(below[:n] + np.minimum(above[:n], np.arange(n - 1, -1, -1)), block)
