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

Two evaluators share this grouping.  The verbatim one reproduces a published
right-hand side exactly as printed: it measures the new vertex's distance to
low vertices through v_n alone, and its standalone constants are (n-i-1) and
i*(n-i).  The exact one carries the corrected terms.  With the shared
grouping, per-term deltas between the two always sum to the total difference,
and the exact total is checked against a direct recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import (
    _pair_sum,
    _require_connected,
    dense_adjacency,
    layered_distance_matrix,
)
from .jaco import IDENTITY, JacoGraph, build_jaco, jaconian_info


class StructureAssumptionViolated(RuntimeError):
    """The structural hypotheses behind the exact decomposition do not hold."""


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


def _extension_prime_index(jn: JacoGraph, jnext: JacoGraph) -> int:
    # Characterization via the next vertex's attachment count.
    return jn.n - jnext.in_degree(jn.n + 1)


def _check_structure(jn: JacoGraph, jnext: JacoGraph, dist: np.ndarray, i: int) -> None:
    n = jn.n
    info = jaconian_info(jn)
    if info.prime_index != i:
        raise StructureAssumptionViolated(
            f"prime index disagreement at n={n}: degree-based {info.prime_index}, "
            f"extension-based {i}"
        )
    heads = jnext.arc_array[:, 1]
    attach = np.sort(jnext.arc_array[heads == n + 1, 0])
    if not np.array_equal(attach, np.arange(i + 1, n + 1)):
        raise StructureAssumptionViolated(
            f"v_{n + 1} does not attach to exactly the Hope range [{i + 1}, {n}]"
        )
    hope = dist[i:, i:]
    if hope.shape[0] > 1:
        off_diagonal = ~np.eye(hope.shape[0], dtype=bool)
        if not (hope[off_diagonal] == 1).all():
            raise StructureAssumptionViolated(
                f"Hope vertices of the order-{n} graph are not pairwise adjacent"
            )


def _evaluate(jn: JacoGraph, dist: np.ndarray, i: int, *, verbatim: bool) -> RecursionTerms:
    n = jn.n
    deg = (jn.in_degree_array + jn.out_degree_array).astype(np.int64)
    h = n - i
    low = deg[:i]
    hope = deg[i:]
    base = _pair_sum(deg, dist)
    cross = int((low[:, None] * dist[:i, i:].astype(np.int64)).sum())
    hope_pairs = (h - 1) * int(hope.sum()) if h >= 2 else 0
    hope_deg_sum = int(hope.sum())
    low_deg_sum = int(low.sum())
    if verbatim:
        # Distance to the new vertex measured through v_n, as printed.
        new_low = h * int((low * dist[:i, n - 1].astype(np.int64)).sum())
        new_hope = h * hope_deg_sum
        constants = (n - i - 1) + i * h
    else:
        nearest_hope = dist[:i, i:].min(axis=1).astype(np.int64) if i else np.zeros(0, np.int64)
        new_low = h * int((low * nearest_hope).sum())
        new_hope = h * hope_deg_sum
        constants = h * (h - 1) // 2 + h * low_deg_sum + h * h
    return RecursionTerms(n, i, base, cross, hope_pairs, new_low, new_hope, constants)


def _terms(jn: JacoGraph, *, verbatim: bool) -> RecursionTerms:
    _require_identity(jn)
    jnext = build_jaco(IDENTITY, jn.n + 1)
    dist = _require_connected(layered_distance_matrix(dense_adjacency(jn.underlying)), _WHAT)
    i = _extension_prime_index(jn, jnext)
    if not verbatim:
        _check_structure(jn, jnext, dist, i)
    return _evaluate(jn, dist, i, verbatim=verbatim)


def recursion_paper_terms(jn: JacoGraph) -> RecursionTerms:
    """Term breakdown of the published right-hand side, exactly as printed."""
    return _terms(jn, verbatim=True)


def recursion_exact_terms(jn: JacoGraph) -> RecursionTerms:
    """Term breakdown of the corrected decomposition, preconditions enforced."""
    return _terms(jn, verbatim=False)


def recursion_paper_rhs(jn: JacoGraph) -> int:
    """Published right-hand side for the order-(n+1) Gutman index."""
    return recursion_paper_terms(jn).total


def recursion_exact_rhs(jn: JacoGraph) -> int:
    """Corrected right-hand side; equals the order-(n+1) Gutman index."""
    return recursion_exact_terms(jn).total


def recursion_delta_report(n_max: int) -> list[RecursionDelta]:
    """Audit rows for every order 2..n_max.

    Each row carries both term breakdowns plus a direct recomputation of the
    order-(n+1) index from its own distance matrix.  Consecutive orders share
    graph and distance work, so the sweep costs one all-pairs BFS per order.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rows = []
    jn = build_jaco(IDENTITY, 2)
    dist = _require_connected(layered_distance_matrix(dense_adjacency(jn.underlying)), _WHAT)
    for n in range(2, n_max + 1):
        jnext = build_jaco(IDENTITY, n + 1)
        dist_next = _require_connected(layered_distance_matrix(dense_adjacency(jnext.underlying)), _WHAT)
        i = _extension_prime_index(jn, jnext)
        _check_structure(jn, jnext, dist, i)
        paper = _evaluate(jn, dist, i, verbatim=True)
        exact = _evaluate(jn, dist, i, verbatim=False)
        deg_next = jnext.in_degree_array + jnext.out_degree_array
        direct = _pair_sum(deg_next, dist_next)
        rows.append(RecursionDelta(paper=paper, exact=exact, direct=direct))
        jn, dist = jnext, dist_next
    return rows
