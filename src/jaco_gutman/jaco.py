"""Linear Jaco graph construction and structural analysis.

A Jaco graph for a nondecreasing function f is the infinite directed graph on
vertices v_1, v_2, ... with arcs determined vertex by vertex: when vertex i is
processed (in ascending order, its in-degree d-(v_i) already fixed by earlier
vertices), it sends arcs to every j in [i + 1, f(i) + i - d-(v_i)].  The
finite graph of order n keeps vertices v_1..v_n and the arcs between them.
This module implements the linear case f(x) = mx + c with integer m, c >= 0.

Construction runs in O(n) time for the degree bookkeeping (a difference array
carries the in-degree increments) plus O(arc count) to materialize the arc
table.  Out-neighborhoods are contiguous index intervals by construction, and
for these f the in-neighborhoods are contiguous as well; `prefix_scan`
exploits both to analyze every prefix order in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph_core import SimpleGraph, _canonical_edge_array, induced_subgraph


@dataclass(frozen=True)
class LinearFunction:
    """f(x) = m*x + c with nonnegative integer coefficients."""

    m: int
    c: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.m, self.c)):
            raise ValueError("coefficients must be integers")
        if self.m < 0 or self.c < 0:
            raise ValueError("coefficients must be nonnegative")

    def __call__(self, x: int) -> int:
        return self.m * x + self.c

    def __str__(self) -> str:
        return f"f(x) = {self.m}x + {self.c}"


IDENTITY = LinearFunction(1, 0)


class JacoGraph:
    """Finite directed Jaco graph of order n for a linear function.

    Arcs are stored as a read-only (count, 2) int64 array of (tail, head)
    rows in lexicographic order; tail < head always holds.  The undirected
    shadow obtained by forgetting orientation is available as `underlying`
    and shares the arc table (every arc is a distinct undirected edge).
    """

    __slots__ = ("f", "n", "_arcs", "_in_deg", "_out_deg", "_underlying", "_tuples")

    def __init__(self, f: LinearFunction, n: int, arc_array: np.ndarray):
        self.f = f
        self.n = n
        arc_array.setflags(write=False)
        self._arcs = arc_array
        in_deg = np.bincount(arc_array[:, 1], minlength=n + 1)[1:] if len(arc_array) else np.zeros(n, np.int64)
        out_deg = np.bincount(arc_array[:, 0], minlength=n + 1)[1:] if len(arc_array) else np.zeros(n, np.int64)
        in_deg.setflags(write=False)
        out_deg.setflags(write=False)
        self._in_deg = in_deg
        self._out_deg = out_deg
        self._underlying: SimpleGraph | None = None
        self._tuples: tuple[tuple[int, int], ...] | None = None

    @property
    def arc_array(self) -> np.ndarray:
        return self._arcs

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        if self._tuples is None:
            self._tuples = tuple((int(a), int(b)) for a, b in self._arcs)
        return self._tuples

    @property
    def arc_count(self) -> int:
        return int(self._arcs.shape[0])

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._in_deg[v - 1])

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._out_deg[v - 1])

    def degree(self, v: int) -> int:
        return self.in_degree(v) + self.out_degree(v)

    @property
    def in_degree_array(self) -> np.ndarray:
        return self._in_deg

    @property
    def out_degree_array(self) -> np.ndarray:
        return self._out_deg

    @property
    def underlying(self) -> SimpleGraph:
        if self._underlying is None:
            self._underlying = SimpleGraph(self.n, self._arcs)
        return self._underlying

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JacoGraph):
            return NotImplemented
        return self.f == other.f and self.n == other.n and np.array_equal(self._arcs, other._arcs)

    def __hash__(self) -> int:
        return hash((self.f, self.n, self._arcs.tobytes()))

    def __repr__(self) -> str:
        return f"JacoGraph({self.f}, n={self.n}, arcs={self.arc_count})"


def build_jaco(f: LinearFunction, n: int) -> JacoGraph:
    """Construct the order-n Jaco graph for f by the sequential arc rule.

    Vertex i reaches up to index f(i) + i - d-(v_i), truncated at n; a reach
    below i + 1 simply contributes no arcs.  In-degree updates are tracked
    with a difference array so the scan itself is O(n).
    """
    if n < 1:
        raise ValueError("order n must be at least 1")
    delta = [0] * (n + 2)
    running = 0
    hi_per_tail = np.zeros(n, dtype=np.int64)
    for i in range(1, n + 1):
        running += delta[i]
        hi = f.m * i + f.c + i - running
        if hi > n:
            hi = n
        hi_per_tail[i - 1] = hi
        if hi >= i + 1:
            delta[i + 1] += 1
            delta[hi + 1] -= 1
    tails_base = np.arange(1, n + 1, dtype=np.int64)
    counts = np.maximum(hi_per_tail - tails_base, 0)
    total = int(counts.sum())
    if total == 0:
        return JacoGraph(f, n, np.empty((0, 2), np.int64))
    tails = np.repeat(tails_base, counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    heads = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + tails + 1
    return JacoGraph(f, n, np.column_stack((tails, heads)))


def jaco_from_arcs(f: LinearFunction, n: int, arcs: Iterable[Sequence[int]]) -> JacoGraph:
    """Assemble a JacoGraph from an explicit arc list (for audits and tests).

    The arcs are canonicalized but not checked against the arc rule; run
    `verify_definition_fixed_point` for that.  Every arc must run from lower
    to higher index, and duplicates are an error.
    """
    if n < 1:
        raise ValueError("order n must be at least 1")
    rows = _canonical_edge_array(n, arcs, oriented=True)
    backward = rows[:, 0] >= rows[:, 1]
    if backward.any():
        a, b = rows[backward.argmax()]
        raise ValueError(f"arc ({a}, {b}) must run from lower to higher index")
    repeated = (rows[1:] == rows[:-1]).all(axis=1)
    if repeated.any():
        a, b = rows[repeated.argmax()]
        raise ValueError(f"duplicate arc ({a}, {b})")
    return JacoGraph(f, n, rows)


def verify_definition_fixed_point(j: JacoGraph) -> bool:
    """Check the arc set against the defining rule, using its own in-degrees.

    Recomputes d-(v_i) from the stored arcs and tests that the out-set of
    every i is exactly [i + 1, min(f(i) + i - d-(v_i), n)].  Because the rule
    admits j exactly when j <= f(i) + i - d-(v_i), equality of these interval
    out-sets is equivalent to the pairwise biconditional over all i < j.
    """
    n = j.n
    arcs = j.arc_array
    tails = arcs[:, 0]
    heads = arcs[:, 1]
    if len(arcs) and not (tails < heads).all():
        return False
    indeg = np.bincount(heads, minlength=n + 1)[1:]
    i_vec = np.arange(1, n + 1, dtype=np.int64)
    reach = j.f.m * i_vec + j.f.c + i_vec - indeg
    expected_counts = np.clip(np.minimum(reach, n) - i_vec, 0, None)
    counts = np.bincount(tails, minlength=n + 1)[1:]
    if not np.array_equal(counts, expected_counts):
        return False
    if len(arcs) == 0:
        return True
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(len(arcs), dtype=np.int64) - starts[tails - 1]
    return bool(np.array_equal(heads, tails + 1 + positions))


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

    1. Every arc runs from a lower to a higher index.
    2. In-neighborhoods are contiguous intervals ending at the head's
       predecessor: N-(v_j) = [j - d-(v_j), j - 1].
    3. Vertices whose out-reach f(i) + i - d-(v_i) lies within the order have
       total degree exactly f(i); vertices cut off by the boundary are
       exempt.
    """
    n = j.n
    arcs = j.arc_array
    tails = arcs[:, 0]
    heads = arcs[:, 1]

    if len(arcs) and not (tails < heads).all():
        bad = arcs[int(np.argmin(tails < heads))]
        ordered = PropertyCheck(
            "tails_precede_heads", False, f"arc ({int(bad[0])}, {int(bad[1])})"
        )
    else:
        ordered = PropertyCheck("tails_precede_heads", True)

    indeg = np.bincount(heads, minlength=n + 1)[1:] if len(arcs) else np.zeros(n, np.int64)
    contiguous = PropertyCheck("in_neighbors_contiguous", True)
    if len(arcs):
        order = np.argsort(heads, kind="stable")
        sorted_tails = tails[order]
        present = np.flatnonzero(indeg > 0) + 1
        counts = indeg[present - 1]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        firsts = sorted_tails[starts]
        lasts = sorted_tails[starts + counts - 1]
        bad_mask = (lasts != present - 1) | (lasts - firsts + 1 != counts)
        if bad_mask.any():
            q = int(present[int(np.argmax(bad_mask))])
            contiguous = PropertyCheck(
                "in_neighbors_contiguous",
                False,
                f"in-neighbors of v_{q} do not form the interval "
                f"[{q - int(indeg[q - 1])}, {q - 1}]",
            )

    i_vec = np.arange(1, n + 1, dtype=np.int64)
    reach = j.f.m * i_vec + j.f.c + i_vec - indeg
    realized = reach <= n
    total_deg = indeg + (np.bincount(tails, minlength=n + 1)[1:] if len(arcs) else 0)
    f_values = j.f.m * i_vec + j.f.c
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
    deg = j.in_degree_array + j.out_degree_array
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
    for m = 0 = c there are no arcs at all.
    """
    n = j.n
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in j.arc_array.tolist():
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * (n + 1)
    sizes = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        sizes.append(size)
    sizes.sort(reverse=True)
    return sizes


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
    in-neighborhoods are contiguous intervals (re-verified here before use).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    full = build_jaco(f, n_max + 1)
    report = verify_fundamental_properties(full)
    if not (report.tails_precede_heads.ok and report.in_neighbors_contiguous.ok):
        raise ValueError("arc table failed the contiguity audit; prefix scan unsupported")
    indeg = np.bincount(full.arc_array[:, 1], minlength=n_max + 2)[1:]
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
