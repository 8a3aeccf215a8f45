"""Edge-joint composition and the Gutman index of the composed graph.

The edge joint of G and H at anchors v (in G) and u (in H) is their disjoint
union plus the single bridge vu; H's vertices are shifted up by the order of
G.  The joint is called trivial when both anchors are the first vertex.

Every distance between a G-vertex x and an H-vertex y crosses the bridge
exactly once, so dist(x, y) = d_G(x, v) + 1 + d_H(u, y), and distances inside
G and inside H are unchanged.  The bridge raises the degrees of v and u by
one.  Summing deg * deg * dist over pairs inside G, inside H and across the
bridge gives an exact closed form for arbitrary anchors, in per-graph
aggregates only:

    Gut(G) + Gut(H) + A_G * A_H + T_G * (A_H + 1) + T_H * (A_G + 1),

where A = sum of degrees + 1 and T = sum over x of deg(x) * dist(anchor, x).

The published right-hand side for the trivial joint of two identity Jaco
graphs omits one pair class: low G-vertices paired with H's anchor.  Its
predicted value, the missing block

    B = (d_H(u_1) + 1) * sum over k >= 2 of d_G(v_k) * (d_G(v_1, v_k) + 1),

restores the direct value exactly; the audit report records both.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    SimpleGraph,
    _pair_sum,
    _require_connected,
    dense_adjacency,
    from_edges,
    gutman_index,
    layered_distance_matrix,
)
from .jaco import IDENTITY, JacoGraph, build_jaco


@dataclass(frozen=True)
class JointSpec:
    """Composition request: graphs g and h joined by the bridge (v, u)."""

    g: SimpleGraph
    h: SimpleGraph
    v: int
    u: int

    def __post_init__(self) -> None:
        if self.g.order < 1 or self.h.order < 1:
            raise ValueError("both graphs must have at least one vertex")
        if not 1 <= self.v <= self.g.order:
            raise ValueError(f"anchor v={self.v} out of range 1..{self.g.order}")
        if not 1 <= self.u <= self.h.order:
            raise ValueError(f"anchor u={self.u} out of range 1..{self.h.order}")

    @property
    def trivial(self) -> bool:
        return self.v == 1 and self.u == 1


def edge_joint_graph(spec: JointSpec) -> SimpleGraph:
    """Disjoint union plus bridge; H's indices are shifted by G's order."""
    shift = spec.g.order
    bridge = np.array([[spec.v, spec.u + shift]], dtype=np.int64)
    edges = np.concatenate((spec.g.edge_array, spec.h.edge_array + shift, bridge))
    return from_edges(spec.g.order + spec.h.order, edges)


def _index_parts(g: SimpleGraph, what: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Degrees, distance matrix, and Gutman index of a connected graph."""
    dist = _require_connected(layered_distance_matrix(dense_adjacency(g)), what)
    deg = g.degree_array()
    return deg, dist, _pair_sum(deg, dist)


def closed_form_joint_gutman(spec: JointSpec) -> int:
    """Gutman index of the edge joint, by the exact pair-class decomposition.

    Works for arbitrary anchors; both inputs must be connected.  O(n + m)
    once each side's distances and index are known.
    """
    what = "the edge-joint Gutman closed form"
    dg, DG, gut_g = _index_parts(spec.g, what)
    dh, DH, gut_h = _index_parts(spec.h, what)
    a_g, a_h = int(dg.sum()) + 1, int(dh.sum()) + 1
    t_g = int(dg @ DG[spec.v - 1])
    t_h = int(dh @ DH[spec.u - 1])
    return gut_g + gut_h + a_g * a_h + t_g * (a_h + 1) + t_h * (a_g + 1)


def _require_jaco_pair(jn: JacoGraph, jm: JacoGraph) -> None:
    if jn.f != IDENTITY or jm.f != IDENTITY:
        raise ValueError(
            f"the published joint formula applies to f(x) = 1x + 0 only, "
            f"got {jn.f} and {jm.f}"
        )
    if not jn.n >= jm.n >= 2:
        raise ValueError(f"orders must satisfy n >= m >= 2, got n={jn.n}, m={jm.n}")


def joint_paper_rhs(jn: JacoGraph, jm: JacoGraph) -> int:
    """Published right-hand side for the trivial joint, exactly as printed."""
    _require_jaco_pair(jn, jm)
    what = "the published joint formula"
    dg, DG, gut_g = _index_parts(jn.underlying, what)
    dh, DH, gut_h = _index_parts(jm.underlying, what)
    dg, dh, DG, DH = dg.tolist(), dh.tolist(), DG.tolist(), DH.tolist()
    n, m = jn.n, jm.n
    total = gut_g + gut_h
    total += sum(dg[k] * DG[0][k] for k in range(1, n))
    total += sum(dh[s] * DH[0][s] for s in range(1, m))
    total += sum((dg[0] + 1) * dh[t] * (DH[0][t] + 1) for t in range(1, m))
    total += sum(
        dg[k] * dh[t] * (DG[0][k] + DH[0][t] + 1)
        for k in range(1, n)
        for t in range(1, m)
    )
    return total + 4


def missing_anchor_block(jn: JacoGraph, jm: JacoGraph) -> int:
    """Predicted value of the pair class absent from the published formula."""
    _require_jaco_pair(jn, jm)
    dg, DG, _ = _index_parts(jn.underlying, "the missing-block prediction")
    return (int(jm.underlying.degree_array()[0]) + 1) * int(dg[1:] @ (DG[0, 1:] + 1))


@dataclass(frozen=True)
class JointDelta:
    """Audit row for one (n, m) grid point with trivial anchors."""

    n: int
    m: int
    paper_rhs: int
    closed_form: int
    direct: int
    missing_block: int

    @property
    def delta_paper(self) -> int:
        return self.paper_rhs - self.direct

    @property
    def closed_matches_direct(self) -> bool:
        return self.closed_form == self.direct

    @property
    def residual(self) -> int:
        """paper_rhs + missing_block - direct; zero when the block explains all."""
        return self.paper_rhs + self.missing_block - self.direct


def joint_check(n: int, m: int, vi: int = 1, uj: int = 1) -> dict[str, int | None]:
    """Single composed pair of identity Jaco graphs, all values in one row.

    The published columns only apply to the trivial anchor choice with
    n >= m >= 2; they are None otherwise.
    """
    jn = build_jaco(IDENTITY, n)
    jm = build_jaco(IDENTITY, m)
    spec = JointSpec(jn.underlying, jm.underlying, vi, uj)
    direct = gutman_index(edge_joint_graph(spec))
    closed = closed_form_joint_gutman(spec)
    row: dict[str, int | None] = {
        "n": n,
        "m": m,
        "vi": vi,
        "uj": uj,
        "direct": direct,
        "closed_form": closed,
        "paper_rhs": None,
        "delta_paper": None,
        "missing_block": None,
    }
    if spec.trivial and n >= m >= 2:
        paper = joint_paper_rhs(jn, jm)
        row["paper_rhs"] = paper
        row["delta_paper"] = paper - direct
        row["missing_block"] = missing_anchor_block(jn, jm)
    return row


def joint_delta_report(n_max: int, m_max: int) -> list[JointDelta]:
    """Trivial-anchor audit over the grid 2 <= m <= min(n, m_max), m <= n <= n_max."""
    if n_max < 2 or m_max < 2:
        raise ValueError("n_max and m_max must be at least 2")
    rows = []
    for n in range(2, n_max + 1):
        jn = build_jaco(IDENTITY, n)
        for m in range(2, min(n, m_max) + 1):
            jm = build_jaco(IDENTITY, m)
            spec = JointSpec(jn.underlying, jm.underlying, 1, 1)
            direct = gutman_index(edge_joint_graph(spec))
            rows.append(
                JointDelta(
                    n=n,
                    m=m,
                    paper_rhs=joint_paper_rhs(jn, jm),
                    closed_form=closed_form_joint_gutman(spec),
                    direct=direct,
                    missing_block=missing_anchor_block(jn, jm),
                )
            )
    return rows


@dataclass(frozen=True)
class AnchorCheck:
    """Closed form vs direct value at one pseudo-random non-trivial anchor pair."""

    n: int
    m: int
    vi: int
    uj: int
    closed_form: int
    direct: int

    @property
    def ok(self) -> bool:
        return self.closed_form == self.direct


def anchor_audit(
    n_max: int, m_max: int, per_pair: int = 5, seed: int = 0
) -> list[AnchorCheck]:
    """Seeded non-trivial anchor checks across the same (n, m) grid."""
    if n_max < 2 or m_max < 2:
        raise ValueError("n_max and m_max must be at least 2")
    rng = random.Random(seed)
    checks = []
    for n in range(2, n_max + 1):
        gn = build_jaco(IDENTITY, n).underlying
        for m in range(2, min(n, m_max) + 1):
            gm = build_jaco(IDENTITY, m).underlying
            for _ in range(per_pair):
                vi, uj = 1, 1
                while vi == 1 and uj == 1:
                    vi = rng.randint(1, n)
                    uj = rng.randint(1, m)
                spec = JointSpec(gn, gm, vi, uj)
                checks.append(
                    AnchorCheck(
                        n=n,
                        m=m,
                        vi=vi,
                        uj=uj,
                        closed_form=closed_form_joint_gutman(spec),
                        direct=gutman_index(edge_joint_graph(spec)),
                    )
                )
    return checks
