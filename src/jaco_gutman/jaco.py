"""Linear Jaco graph construction and structural analysis.

A Jaco graph for a nondecreasing function f is the infinite directed graph on
vertices v_1, v_2, ... with arcs determined vertex by vertex: when vertex i is
processed (in ascending order, its in-degree d-(v_i) already fixed by earlier
vertices), it sends arcs to every j in [i + 1, f(i) + i - d-(v_i)].  The
finite graph of order n keeps vertices v_1..v_n and the arcs between them.
This module implements the linear case f(x) = mx + c with integer m, c >= 0.

Construction runs in O(n) time (a difference array carries the in-degree
increments) and yields hi(v), the top of v's closed neighbourhood, for every
vertex.  Out-neighborhoods are contiguous index intervals by construction, and
for these f the in-neighborhoods are contiguous as well, which is the same as
a nondecreasing hi.  So a built graph holds only hi: its underlying graph is
reach-backed (`SimpleGraph.from_reach`), sizes, degrees and components come
from hi in O(n), and so do its exports and its Hope graph.  The arc table,
O(arc count), is materialized only when something reads it (the validators,
`arc_array`, `arcs`).
The same structure gives every prefix order's degree facts at once:
`prefix_scan` and the count tables of `sequences` read them from one build
by whole-array formulas over hi and lo, with no pass per order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .base import SEQUENCE_NAMES, arc_rule_reach
from .graph_core import (
    SimpleGraph,
    _arc_table,
    _canonical_edge_array,
    _component_sizes,
    _is_int,
    _require_at_least,
    _require_vertex,
    induced_subgraph,
)


@dataclass(frozen=True)
class LinearFunction:
    """f(x) = m*x + c with nonnegative integer coefficients."""

    m: int
    c: int

    def __post_init__(self) -> None:
        if not (_is_int(self.m) and _is_int(self.c)):
            raise ValueError("coefficients must be integers")
        if self.m < 0 or self.c < 0:
            raise ValueError("coefficients must be nonnegative")
        # held as Python integers, so that f(x) cannot wrap as a numpy integer would
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "c", int(self.c))

    def __call__(self, x: int) -> int:
        return self.m * x + self.c

    def __str__(self) -> str:
        return f"f(x) = {self.m}x + {self.c}"


IDENTITY = LinearFunction(1, 0)


class JacoGraph:
    """Finite directed Jaco graph of order n >= 1 for a linear function.

    Arcs are an int64 array of shape (count, 2) whose (tail, head) rows
    satisfy 1 <= tail < head <= n and strictly increase in lexicographic
    order.  That is the edge-table invariant of `SimpleGraph`: the undirected
    shadow `underlying` holds the same table, which it checks, so a
    JacoGraph cannot hold a backward, repeated or out-of-range arc.

    `JacoGraph(f, n, arc_array)` takes a table, which is frozen in place and
    owned by the graph.  `build_jaco` instead gives the graph a reach-backed
    underlying graph, whose table is built from hi on first access to
    `arc_array`; every arc of a Jaco graph runs from the lower index, so each
    tail v sends arcs to v + 1..hi(v).  For the same reason the in- and
    out-degrees of v are the underlying graph's counts of neighbours below
    and above v (`SimpleGraph.half_degree_array` and `half_degree`).
    """

    __slots__ = ("f", "n", "_underlying", "_tuples")

    def __init__(self, f: LinearFunction, n: int, arc_array: np.ndarray):
        # SimpleGraph first: it rejects an n that is not an integer.
        self._attach(f, SimpleGraph(n, arc_array))

    @classmethod
    def _from_reach(cls, f: LinearFunction, hi: np.ndarray) -> JacoGraph:
        """The graph in which each tail v sends arcs to v + 1..hi[v - 1]."""
        j = cls.__new__(cls)
        j._attach(f, SimpleGraph.from_reach(hi))
        return j

    def _attach(self, f: LinearFunction, underlying: SimpleGraph) -> None:
        if underlying.order < 1:
            raise ValueError("order n must be at least 1")
        self._underlying = underlying
        self.f = f
        self.n = underlying.order
        self._tuples: tuple[tuple[int, int], ...] | None = None

    @property
    def arc_array(self) -> np.ndarray:
        return self._underlying.edge_array

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        if self._tuples is None:
            self._tuples = tuple(zip(*self.arc_array.T.tolist()))
        return self._tuples

    @property
    def arc_count(self) -> int:
        return self._underlying.size

    def in_degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return self._underlying.half_degree(v, above=False)

    def out_degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return self._underlying.half_degree(v, above=True)

    def degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return int(self._underlying.degree_array()[v - 1])

    @property
    def in_degree_array(self) -> np.ndarray:
        return self._underlying.half_degree_array(above=False)

    @property
    def out_degree_array(self) -> np.ndarray:
        return self._underlying.half_degree_array(above=True)

    @property
    def underlying(self) -> SimpleGraph:
        return self._underlying

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JacoGraph):
            return NotImplemented
        return self.f == other.f and self._underlying == other._underlying

    def __hash__(self) -> int:
        return hash((self.f, self._underlying))

    def __repr__(self) -> str:
        return f"JacoGraph({self.f}, n={self.n}, arcs={self.arc_count})"


def build_jaco(f: LinearFunction, n: int) -> JacoGraph:
    """Construct the order-n Jaco graph for f by the sequential arc rule.

    Vertex i reaches up to index f(i) + i - d-(v_i), truncated at n; a reach
    below i + 1 simply contributes no arcs.  The graph holds hi(i), that
    reach raised to at least i, from the O(n) scan `arc_rule_reach` that the
    numpy-free indices share, and builds its arc table only when it is read.
    """
    _require_at_least(n, 1, "order n")
    # `scan` holds its difference list of n + 2 entries until this returns,
    # after the reach check.  Freed before the check, that block raised
    # glibc's mmap threshold above the check's and the index's arrays of n
    # entries, which then came from the heap: `gutman --n 1000000` peaked
    # about 2 MB higher.
    scan = arc_rule_reach(f.m, f.c, n)
    return JacoGraph._from_reach(f, np.fromiter(scan, dtype=np.int64, count=n))


def jaco_from_arcs(f: LinearFunction, n: int, arcs: Iterable[Sequence[int]]) -> JacoGraph:
    """Assemble a JacoGraph from an explicit arc list (for audits and tests).

    The arcs are sorted into an arc table, which `JacoGraph` checks (integer
    endpoints in 1..n, tail below head, no duplicates); they are not checked
    against the arc rule, which is what `verify_definition_fixed_point` does.
    """
    return JacoGraph(f, n, _canonical_edge_array(arcs, oriented=True))


def verify_definition_fixed_point(j: JacoGraph) -> bool:
    """Check the arc set against the defining rule, using its own in-degrees.

    Recomputes d-(v_i) from the stored arcs and tests that the out-set of
    every i is exactly [i + 1, min(f(i) + i - d-(v_i), n)].  Because the rule
    admits j exactly when j <= f(i) + i - d-(v_i), equality of these interval
    out-sets is equivalent to the pairwise biconditional over all i < j.
    """
    _, reach = _f_and_reach(j)
    return bool(np.array_equal(j.arc_array, _arc_table(np.minimum(reach, j.n))))


def _f_and_reach(j: JacoGraph) -> tuple[np.ndarray, np.ndarray]:
    """f(i) and the reach f(i) + i - d-(v_i) of every vertex, in int64.

    m and c are capped at n + 1 first.  A capped coefficient still puts f(i)
    above n and the reach above n + 1, so no reach at or below n changes and
    every f(i) that fits the order is exact, while nothing overflows.
    """
    n = j.n
    i_vec = np.arange(1, n + 1, dtype=np.int64)
    f_values = min(j.f.m, n + 1) * i_vec + min(j.f.c, n + 1)
    return f_values, f_values + i_vec - j.in_degree_array


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    ok: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class PropertyReport:
    """Pass/fail per structural property, with a first counterexample each."""

    tails_precede_heads: PropertyCheck
    in_neighbors_contiguous: PropertyCheck
    realized_degrees_match_f: PropertyCheck

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self.checks())

    def checks(self) -> tuple[PropertyCheck, ...]:
        return (
            self.tails_precede_heads,
            self.in_neighbors_contiguous,
            self.realized_degrees_match_f,
        )


def verify_fundamental_properties(j: JacoGraph) -> PropertyReport:
    """Audit three structural properties of a (purported) Jaco graph.

    1. Every arc runs from a lower to a higher index.  The arc table
       invariant that `JacoGraph` checks on construction guarantees this,
       so the check always passes.
    2. In-neighborhoods are contiguous intervals ending at the head's
       predecessor: N-(v_j) = [j - d-(v_j), j - 1].
    3. Vertices whose out-reach f(i) + i - d-(v_i) lies within the order have
       total degree exactly f(i); vertices cut off by the boundary are
       exempt.
    """
    n = j.n
    ordered = PropertyCheck("tails_precede_heads", True)
    contiguous = _in_neighbors_contiguous(j)
    f_values, reach = _f_and_reach(j)
    realized = reach <= n
    total_deg = j.underlying.degree_array()
    bad_mask = realized & (total_deg != f_values)
    if bad_mask.any():
        k = int(np.argmax(bad_mask)) + 1
        realized_check = PropertyCheck(
            "realized_degrees_match_f",
            False,
            f"v_{k} has degree {int(total_deg[k - 1])}, expected f({k}) = {int(f_values[k - 1])}",
        )
    else:
        realized_check = PropertyCheck("realized_degrees_match_f", True)

    return PropertyReport(ordered, contiguous, realized_check)


def _in_neighbors_contiguous(j: JacoGraph) -> PropertyCheck:
    """Whether N-(v_q) = [q - d-(v_q), q - 1] for every head q.

    Out-sets are intervals, so this holds exactly when hi is nondecreasing:
    the tails reaching q are then the u < q with hi(u) >= q, an interval
    ending at q - 1.  A reach-backed graph checked that on construction.
    """
    if j.underlying.reach is not None:
        return PropertyCheck("in_neighbors_contiguous", True)
    tails = j.arc_array[:, 0]
    heads = j.arc_array[:, 1]
    indeg = j.in_degree_array
    # The d-(q) distinct tails below head q fill [q - d-(q), q - 1] exactly
    # when none of them lies below that interval.
    below = tails < heads - indeg[heads - 1]
    if not below.any():
        return PropertyCheck("in_neighbors_contiguous", True)
    q = int(heads[below].min())
    return PropertyCheck(
        "in_neighbors_contiguous",
        False,
        f"in-neighbors of v_{q} do not form the interval [{q - int(indeg[q - 1])}, {q - 1}]",
    )


@dataclass(frozen=True)
class JaconianInfo:
    """Maximum-degree structure of the underlying graph.

    The Jaconian set collects all vertices of maximum degree; the prime
    Jaconian vertex is the lowest-indexed one.  The Hope range is everything
    above the prime index.
    """

    max_degree: int
    jaconian_set: tuple[int, ...]
    prime_index: int
    hope_range: range


def jaconian_info(j: JacoGraph) -> JaconianInfo:
    deg = j.underlying.degree_array()
    max_degree = int(deg.max())
    members = tuple(int(v) for v in np.flatnonzero(deg == max_degree) + 1)
    prime = members[0]
    return JaconianInfo(max_degree, members, prime, range(prime + 1, j.n + 1))


def hope_graph(j: JacoGraph) -> SimpleGraph:
    """Subgraph induced on the indices above the prime Jaconian vertex.

    Relabeled 1..k preserving index order.  An empty Hope range yields the
    order-0 graph rather than an error.
    """
    if j.n < 2:
        raise ValueError("hope graph requires order at least 2")
    info = jaconian_info(j)
    sub, _ = induced_subgraph(j.underlying, info.hope_range)
    return sub


def component_structure(j: JacoGraph) -> list[int]:
    """Orders of the connected components of the underlying graph, descending.

    For m = 0 and c > 0 the construction splits into floor(n / (c+1)) copies
    of the complete graph on c + 1 vertices plus one smaller remainder clique;
    for m = 0 = c there are no arcs at all.  A built graph reads them from
    hi in O(n), without its arc table.
    """
    return sorted(_component_sizes(j.underlying).tolist(), reverse=True)


@dataclass(frozen=True)
class PrefixFacts:
    """Per-order facts collected by `prefix_scan`.

    `extension_matches_hope` records whether the in-neighbors of v_{n+1} (in
    the order-(n+1) graph) are exactly the Hope range of the order-n graph;
    `hope_complete` records whether the Hope vertices are pairwise adjacent.
    """

    n: int
    edge_count: int
    max_degree: int
    jaconian_count: int
    prime_index: int
    hope_complete: bool
    extension_matches_hope: bool


def prefix_scan(f: LinearFunction, n_max: int) -> list[PrefixFacts]:
    """Analyze every prefix order 1..n_max from one build of J_{n_max+1}.

    The order-n graph is the order-(n+1) graph with v_{n+1} and its arcs
    deleted (the rule for vertex i only ever consults in-degree contributed
    by heads <= i), so `_prefix_facts` gives every order's degree facts.
    The bottom lo(v) of each closed neighbourhood never decreases, and
    lo(n) <= n, so the Hope vertices (prime, n] are pairwise adjacent exactly
    when lo(n) <= prime + 1, and the in-neighbours of v_{n+1} are exactly
    (prime, n] when lo(n + 1) = prime + 1.
    """
    _require_at_least(n_max, 1, "n_max")
    full = build_jaco(f, n_max + 1)
    lo = full.underlying.lo
    edges, max_degree, count, prime = (column[:n_max] for column in _prefix_facts(full))
    columns = (edges, max_degree, count, prime, lo[:-1] <= prime + 1, lo[1:] == prime + 1)
    return [PrefixFacts(n, *row) for n, row in enumerate(zip(*(column.tolist() for column in columns)), 1)]


def _prefix_facts(j: JacoGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge count, maximum degree, Jaconian count and prime index of each order 1..j.n.

    Order n keeps the vertices v <= n of j with their in-degrees, so its edge
    count sums them, and its closed neighbourhoods are [lo(v), min(hi(v), n)]
    with lo and hi nondecreasing.  The vertices with hi(v) <= n are settled:
    they form a prefix 1..c(n) and keep their degree D(v) = hi(v) - lo(v) in
    j.  The others, c(n) + 1..n, are open, with degree n - lo(v), which never
    increases with v: their maximum n - lo(c + 1) is first taken at c + 1 and
    tied exactly by the open v with lo(v) = lo(c + 1).  A vertex whose reach
    j cuts at j.n is settled at order j.n, where both degrees agree.  So one
    running maximum of D gives every order's settled maximum, the vertex
    where it is first taken and its ties, and since settled vertices come
    first, the prime index is the settled one whenever its maximum is at
    least the open one.  An empty side counts as maximum -1.
    """
    order = np.arange(1, j.n + 1)
    lo = j.underlying.lo
    degree = j.underlying.degree_array()
    peak = np.maximum.accumulate(degree)
    ties = np.cumsum(degree == peak)
    settled = np.searchsorted(j.underlying.reach, order, side="right")
    last, first_open = np.maximum(settled - 1, 0), np.minimum(settled, j.n - 1)
    start = np.searchsorted(peak, peak[last])
    settled_max = np.where(settled > 0, peak[last], -1)
    open_max = np.where(settled < order, order - lo[first_open], -1)
    max_degree = np.maximum(settled_max, open_max)
    prime = np.where(settled_max >= open_max, start + 1, settled + 1)
    open_ties = np.minimum(np.searchsorted(lo, lo[first_open], side="right"), order) - settled
    count = np.where(settled_max == max_degree, ties[last] - ties[start] + 1, 0)
    count += np.where(open_max == max_degree, open_ties, 0)
    return np.cumsum(j.in_degree_array), max_degree, count, prime
