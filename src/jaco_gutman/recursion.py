"""Order-to-order recursion audit for the Gutman index of identity Jaco graphs.

Growing the order-n graph (f(x) = x) to order n+1 attaches the new vertex to
exactly the Hope range [i+1, n], where i is the prime Jaconian index.  When
those attachment vertices are pairwise adjacent, no existing distance can
shrink, and the new Gutman index decomposes over pair classes:

  base       pairs among v_1..v_n at their old degrees: Gut of the order-n graph
  cross      pairs (k <= i, t in Hope): degree bumps add d(v_k) * d(v_k, v_t)
  hope_pairs pairs inside Hope: distance 1, both degrees bump, adding
             d(v_t) + d(v_q) (+1 per pair, carried in `constants`)
  new_low    pairs (k <= i, v_{n+1}): d(v_k) * (n-i) * (1 + min over Hope of
             d(v_k, v_t)); the 1 * d(v_k) * (n-i) part sits in `constants`
  new_hope   pairs (t in Hope, v_{n+1}): (d(v_t) + 1) * (n-i) * 1; split as
             (n-i) * sum d(v_t) here plus (n-i)^2 in `constants`

Two evaluators share this grouping, and one pass (`_evaluate`) yields both.
The verbatim one reproduces a published right-hand side exactly as printed:
it measures the new vertex's distance to low vertices through v_n alone, and
its standalone constants are (n-i-1) and i*(n-i).  The exact one carries the
corrected terms.  They differ only in new_low and constants.  With the shared
grouping, per-term deltas between the two always sum to the total difference,
and the exact total is checked against a direct recomputation.

Every order of the report comes from one build of J_{N+1}, whose closed
neighbourhoods are [lo(v), hi(v)] with lo(v) = v - d-(v) and
hi(v) = v + d+(v): order k is its prefix reach min(hi(v), k) for v <= k,
with degrees min(hi(v), k) - lo(v), and each prefix gets its own run of the
distance kernel, so the direct value is recomputed independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import (
    StructureAssumptionViolated,
    _pair_sum,
    _require_at_least,
    _require_connected,
    all_pairs_distances,
    layered_distance_matrix,
)
from .jaco import IDENTITY, JacoGraph, build_jaco


@dataclass(frozen=True)
class RecursionTerms:
    """One evaluator's term-by-term breakdown at order n (with prime index i)."""

    n: int
    i: int
    base: int
    cross: int
    hope_pairs: int
    new_low: int
    new_hope: int
    constants: int

    @property
    def total(self) -> int:
        return (
            self.base
            + self.cross
            + self.hope_pairs
            + self.new_low
            + self.new_hope
            + self.constants
        )


TERM_NAMES = ("base", "cross", "hope_pairs", "new_low", "new_hope", "constants")

_WHAT = "the recursion formulas"


@dataclass(frozen=True)
class RecursionDelta:
    """Row of the recursion audit: verbatim vs exact vs direct recomputation."""

    paper: RecursionTerms
    exact: RecursionTerms
    direct: int

    @property
    def n(self) -> int:
        return self.paper.n

    @property
    def i(self) -> int:
        return self.paper.i

    @property
    def paper_rhs(self) -> int:
        return self.paper.total

    @property
    def exact_rhs(self) -> int:
        return self.exact.total

    @property
    def delta_paper(self) -> int:
        return self.paper_rhs - self.direct

    @property
    def exact_matches_direct(self) -> bool:
        return self.exact_rhs == self.direct

    def term_deltas(self) -> dict[str, int]:
        return {
            name: getattr(self.paper, name) - getattr(self.exact, name)
            for name in TERM_NAMES
        }

    @property
    def closure_ok(self) -> bool:
        """Per-term deltas must account exactly for the total difference."""
        return sum(self.term_deltas().values()) == self.paper_rhs - self.exact_rhs


def _require_identity(jn: JacoGraph) -> None:
    if jn.f != IDENTITY:
        raise ValueError(f"recursion formulas apply to f(x) = 1x + 0, got {jn.f}")
    if jn.n < 2:
        raise ValueError("recursion formulas require order n >= 2")


def _order_facts(deg: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Degrees, distances and Gutman index of the graph with degrees `deg` and distances `dist`."""
    dist = _require_connected(dist, _WHAT)
    return deg, dist, _pair_sum(deg, dist)


def _prefix_order_facts(hi: np.ndarray, lo: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """`_order_facts` of the order-k prefix of the graph with closed neighbourhoods [lo(v), hi(v)].

    The prefix reach min(hi(v), k) gives the distances, by one kernel run,
    and min(hi(v), k) - lo(v) the degrees.
    """
    prefix = np.minimum(hi[:k], k)
    return _order_facts(prefix - lo[:k], layered_distance_matrix(prefix))


def _check_structure(deg: np.ndarray, dist: np.ndarray, i: int) -> None:
    n = len(deg)
    prime = int(deg.argmax()) + 1
    if prime != i:
        raise StructureAssumptionViolated(
            f"prime index disagreement at n={n}: degree-based {prime}, "
            f"extension-based {i}"
        )
    # dist is connected with a zero diagonal: every other entry is at least 1.
    if dist[i:, i:].max(initial=0) > 1:
        raise StructureAssumptionViolated(
            f"Hope vertices of the order-{n} graph are not pairwise adjacent"
        )


def _evaluate(deg: np.ndarray, dist: np.ndarray, base: int, i: int) -> tuple[RecursionTerms, RecursionTerms]:
    """The verbatim and the exact terms at order len(deg) with prime index i, in that order."""
    n = len(deg)
    h = n - i
    low = deg[:i]
    cross = int(low @ dist[:i, i:].sum(axis=1, dtype=np.int64))
    hope_deg_sum = int(deg[i:].sum())
    shared = (n, i, base, cross, (h - 1) * hope_deg_sum)
    new_hope = h * hope_deg_sum
    # Distance to the new vertex measured through v_n, as printed.
    paper_new_low = h * int(low @ dist[:i, n - 1])
    exact_new_low = h * int(low @ dist[:i, i:].min(axis=1))
    return (
        RecursionTerms(*shared, paper_new_low, new_hope, (n - i - 1) + i * h),
        RecursionTerms(*shared, exact_new_low, new_hope, h * (h - 1) // 2 + h * int(low.sum()) + h * h),
    )


def _identity_facts(jn: JacoGraph) -> tuple[np.ndarray, np.ndarray, int, int]:
    """`_order_facts` of jn's underlying graph and the prime index i read from J_{n+1}."""
    _require_identity(jn)
    n = jn.n
    i = n - int(build_jaco(IDENTITY, n + 1).in_degree_array[n])
    return (*_order_facts(jn.underlying.degree_array(), all_pairs_distances(jn.underlying)), i)


def recursion_paper_terms(jn: JacoGraph) -> RecursionTerms:
    """Term breakdown of the published right-hand side, exactly as printed."""
    return _evaluate(*_identity_facts(jn))[0]


def recursion_exact_terms(jn: JacoGraph) -> RecursionTerms:
    """Term breakdown of the corrected decomposition, preconditions enforced."""
    deg, dist, base, i = _identity_facts(jn)
    _check_structure(deg, dist, i)
    return _evaluate(deg, dist, base, i)[1]


def recursion_paper_rhs(jn: JacoGraph) -> int:
    """Published right-hand side for the order-(n+1) Gutman index."""
    return recursion_paper_terms(jn).total


def recursion_exact_rhs(jn: JacoGraph) -> int:
    """Corrected right-hand side; equals the order-(n+1) Gutman index."""
    return recursion_exact_terms(jn).total


def recursion_delta_report(n_max: int) -> list[RecursionDelta]:
    """Audit rows for every order 2..n_max.

    Each row carries both term breakdowns plus a direct recomputation of the
    order-(n+1) index from its own distance matrix.  One build of order
    n_max + 1 serves every order, and no order builds a graph of its own:
    order k is the prefix reach min(hi(v), k) for v <= k, with degrees
    min(hi(v), k) - lo(v), and the prime index i of order n is read from
    the in-degree of v_{n+1}.  Each order runs the distance kernel once, on
    its own prefix reach, with no adjacency, and its direct index is the
    next row's base.
    """
    _require_at_least(n_max, 2, "n_max")
    full = build_jaco(IDENTITY, n_max + 1)
    indeg = full.in_degree_array
    hi, lo = full.underlying.reach, np.arange(1, n_max + 2) - indeg
    rows = []
    deg, dist, gut = _prefix_order_facts(hi, lo, 2)
    for n in range(2, n_max + 1):
        i = n - int(indeg[n])
        _check_structure(deg, dist, i)
        paper, exact = _evaluate(deg, dist, gut, i)
        deg, dist, gut = _prefix_order_facts(hi, lo, n + 1)
        rows.append(RecursionDelta(paper=paper, exact=exact, direct=gut))
    return rows
