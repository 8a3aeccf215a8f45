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
`prefix_scan` relies on the same structure to analyze every prefix order in
one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    and above v (`SimpleGraph.split_degree_arrays`).
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
        return int(self.in_degree_array[v - 1])

    def out_degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return int(self.out_degree_array[v - 1])

    def degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return int(self._underlying.degree_array()[v - 1])

    @property
    def in_degree_array(self) -> np.ndarray:
        return self._underlying.split_degree_arrays()[0]

    @property
    def out_degree_array(self) -> np.ndarray:
        return self._underlying.split_degree_arrays()[1]

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
    below i + 1 simply contributes no arcs.  In-degree updates are tracked
    with a difference array so the scan itself is O(n).  The graph holds
    hi(i), that reach raised to at least i, and builds its arc table only
    when it is read.
    """
    _require_at_least(n, 1, "order n")
    delta = [0] * (n + 2)
    running = 0
    hi_per_tail = np.zeros(n, dtype=np.int64)
    for i in range(1, n + 1):
        running += delta[i]
        hi = f.m * i + f.c + i - running
        if hi > n:
            hi = n
        hi_per_tail[i - 1] = hi if hi > i else i
        if hi >= i + 1:
            delta[i + 1] += 1
            delta[hi + 1] -= 1
    return JacoGraph._from_reach(f, hi_per_tail)


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


def _audited_jaco(f: LinearFunction, n: int) -> JacoGraph:
    """The order-n Jaco graph, audited so that every lower order is a prefix.

    The order-k graph is the order-n graph with v_{k+1}..v_n deleted.  The
    audit checks that every in-set is the interval [q - d-(q), q - 1] (for a
    built graph, by the nondecreasing hi its construction checked) and that
    its lowest member q - d-(q) never decreases in q, so that every out-set
    is the interval v + 1..v + d+(v) as well.  Every closed neighbourhood is
    then an index interval, with v + d+(v) as the reach of v, and deleting
    the later vertices changes no distance among the earlier ones.  A failed
    check raises ValueError naming the first bad head.  Every order sweep
    gets its graph from this one place.
    """
    j = build_jaco(f, n)
    problem = _in_neighbors_contiguous(j).counterexample
    lowest = np.arange(1, n + 1) - j.in_degree_array
    drops = np.flatnonzero(lowest[1:] < lowest[:-1])
    if problem is None and drops.size:
        q = int(drops[0]) + 2
        problem = f"out-neighbors of v_{int(lowest[q - 1])} reach v_{q} but not v_{q - 1}"
    if problem is not None:
        raise ValueError(
            f"arc table failed the contiguity audit ({problem}); lower orders cannot be read as its prefixes"
        )
    return j


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
    """Analyze every prefix order 1..n_max in a single pass.

    Relies on two facts about the construction: the order-n graph is the
    order-(n+1) graph with v_{n+1} and its arcs deleted (the rule for vertex
    i only ever consults in-degree contributed by heads <= i), and
    in-neighborhoods are contiguous intervals (audited by `_audited_jaco`).
    """
    _require_at_least(n_max, 1, "n_max")
    return _prefix_facts(_audited_jaco(f, n_max + 1))


def _prefix_facts(full: JacoGraph) -> list[PrefixFacts]:
    """`prefix_scan`'s facts for orders 1..full.n - 1 of an audited graph."""
    n_max = full.n - 1
    indeg = full.in_degree_array
    # lowest in-neighbor of each head q, with s_q = q when q has no in-arcs
    s = np.arange(1, n_max + 2, dtype=np.int64) - indeg
    deg = np.zeros(n_max, dtype=np.int64)
    facts = []
    edge_count = 0
    for n in range(1, n_max + 1):
        if n >= 2:
            lo = int(s[n - 1])
            deg[lo - 1 : n - 1] += 1
            deg[n - 1] = indeg[n - 1]
            edge_count += int(indeg[n - 1])
        view = deg[:n]
        max_degree = int(view.max())
        prime = int(view.argmax()) + 1
        jaconian_count = int((view == max_degree).sum())
        if n - prime <= 1:
            hope_complete = True
        else:
            hope_complete = bool((s[prime + 1 : n] <= prime + 1).all())
        extension_matches = int(s[n]) == prime + 1
        facts.append(
            PrefixFacts(
                n=n,
                edge_count=edge_count,
                max_degree=max_degree,
                jaconian_count=jaconian_count,
                prime_index=prime,
                hope_complete=hope_complete,
                extension_matches_hope=extension_matches,
            )
        )
    return facts
