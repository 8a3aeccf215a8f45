"""Per-order value tables for linear Jaco graph families.

Four sequences are supported, each tabulated for every order 1..n_max:

  edges                 arc count of the order-n graph
  gutman                Gutman index of the underlying graph (connected only)
  jaconian_cardinality  number of maximum-degree vertices
  v1_vn_distance        distance between the first and last vertex

The order-n graph is the order-n_max graph with the tail vertices deleted, so
one build serves all orders.  Every closed neighbourhood of that graph is an
index interval, so order n is reach-backed by the prefix reach min(hi(v), n)
for v <= n and keeps every distance among its vertices.  Its Gutman index is
the jump-forest sum of that prefix, and dist(v_1, v_n) counts the members of
vertex 1's greedy hi chain below n, so no table forms a distance matrix.
Out-sets are intervals by construction; in-sets are audited first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import SimpleGraph, _connectivity_error, _index, _require_at_least
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

    One audited build serves them all: J_{n_max+1} when a count table is
    asked for, whose prefix facts the count tables read, else J_{n_max}.
    The first table that cannot be tabulated raises.
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
        elif name == "gutman":
            values = []
            for n in range(1, n_max + 1):
                prefix = SimpleGraph.from_reach(np.minimum(j.underlying.reach[:n], n))
                values.append(_index(prefix, prefix.degree_array(), f"the Gutman index sequence at order {n}"))
        else:
            values = _first_vertex_distances(j.underlying.reach, n_max)
        tables.append(SequenceTable(name, f, tuple(zip(range(1, n_max + 1), values))))
    return tables


def _first_vertex_distances(hi: np.ndarray, n_max: int) -> list[int]:
    """dist(v_1, v_n) for n = 1..n_max, from the chain 1, hi(1), hi(hi(1)), ...

    The chain stops at e, the last vertex of vertex 1's component, so an e
    below n_max disconnects order e + 1.
    """
    chain = [1]
    while hi[chain[-1] - 1] > chain[-1]:
        chain.append(int(hi[chain[-1] - 1]))
    if chain[-1] < n_max:
        raise _connectivity_error(f"the distance sequence at order {chain[-1] + 1}", chain[-1] + 1)
    return np.searchsorted(chain, np.arange(1, n_max + 1)).tolist()
