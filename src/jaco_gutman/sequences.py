"""Per-order value tables for linear Jaco graph families.

Four sequences are supported, each tabulated for every order 1..n_max:

  edges                 arc count of the order-n graph
  gutman                Gutman index of the underlying graph (connected only)
  jaconian_cardinality  number of maximum-degree vertices
  v1_vn_distance        distance between the first and last vertex

The order-n graph is the order-n_max graph with the tail vertices deleted, so
one build serves all orders, and no table builds a graph per order.  Every
closed neighbourhood of that graph is an index interval [lo(v), hi(v)], so
order n is reach-backed by the prefix reach p(v) = min(hi(v), n) for v <= n,
has degrees p(v) - lo(v) and keeps every distance among its vertices.  Its
Gutman index is the jump-forest sum of that prefix, and dist(v_1, v_n) counts
the members of vertex 1's greedy hi chain below n, so no table forms a
distance matrix.  Both are defined up to the end e of vertex 1's component,
the first fixed point of hi: order e + 1 is the first disconnected one.  The
count tables read every order's degree facts from `jaco._prefix_facts`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import _connectivity_error, _exact_dot, _forest_sums, _require_at_least
from .jaco import SEQUENCE_NAMES, LinearFunction, _prefix_facts, build_jaco

# What each table that needs connectivity names when it has none.
_CONNECTED_TABLES = {"gutman": "the Gutman index sequence", "v1_vn_distance": "the distance sequence"}


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

    One build of J_{n_max} serves them all; the count tables read its prefix
    facts.  The first table that cannot be tabulated raises, a distance
    table before it sums anything.
    """
    unknown = [name for name in names if name not in SEQUENCE_NAMES]
    if unknown:
        raise ValueError(f"unknown sequence {unknown[0]!r}; choose from {SEQUENCE_NAMES}")
    _require_at_least(n_max, 1, "n_max")
    j = build_jaco(f, n_max)
    hi = j.underlying.reach
    end = int(np.argmax(hi == np.arange(1, j.n + 1))) + 1
    tables = []
    for name in names:
        if name in _CONNECTED_TABLES and end < n_max:
            raise _connectivity_error(f"{_CONNECTED_TABLES[name]} at order {end + 1}", end + 1)
        if name in ("edges", "jaconian_cardinality"):
            edges, _, count, _ = _prefix_facts(j)
            values = (edges if name == "edges" else count).tolist()
        elif name == "gutman":
            lo = np.arange(1, j.n + 1) - j.in_degree_array
            values = []
            for n in range(1, n_max + 1):
                p = np.minimum(hi[:n], n)
                w = p - lo[:n]
                values.append(_exact_dot(w, _forest_sums(p, w)))
        else:
            values = _first_vertex_distances(hi, n_max)
        tables.append(SequenceTable(name, f, tuple(zip(range(1, n_max + 1), values))))
    return tables


def _first_vertex_distances(hi: np.ndarray, n_max: int) -> list[int]:
    """dist(v_1, v_n) for n = 1..n_max, from the chain 1, hi(1), hi(hi(1)), ...

    Vertex 1's component reaches n_max, so the chain climbs until it does.
    """
    chain = [1]
    while chain[-1] < n_max:
        chain.append(int(hi[chain[-1] - 1]))
    return np.searchsorted(chain, np.arange(1, n_max + 1)).tolist()
