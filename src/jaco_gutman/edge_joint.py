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

The direct value the audits check against is the Gutman index of the
composed graph itself: its adjacency is the definition above, and the BFS
kernel finds its distances with no use of the decomposition, so the closed
form is never checked against itself.  The audits ask for thousands of
composed graphs of at most a few dozen vertices each, so graphs of one
order share stacked kernel calls (`_direct_gutman`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    SimpleGraph,
    _pair_sum,
    _require_at_least,
    _require_connected,
    _require_vertex,
    all_pairs_distances,
    dense_adjacency,
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
        _require_vertex(self.v, self.g.order, "anchor v")
        _require_vertex(self.u, self.h.order, "anchor u")

    @property
    def trivial(self) -> bool:
        return self.v == 1 and self.u == 1


def edge_joint_graph(spec: JointSpec) -> SimpleGraph:
    """Disjoint union plus bridge; H's indices are shifted by G's order."""
    shift = spec.g.order
    g_edges = spec.g.edge_array
    # Both tables are canonical and every H row follows every G row, so the
    # bridge (v, u + shift) goes right after G's rows with tail <= v.
    cut = np.searchsorted(g_edges[:, 0], spec.v, side="right")
    bridge = np.array([[spec.v, spec.u + shift]], dtype=np.int64)
    edges = np.concatenate((g_edges[:cut], bridge, g_edges[cut:], spec.h.edge_array + shift))
    return SimpleGraph(shift + spec.h.order, edges)


# Vertex pairs per stacked kernel call in `_direct_gutman`.  It bounds the
# BFS buffers of a batch, about 17 B a pair (2^15 pairs, about 0.56 MB), and
# a batch always holds at least one graph.
_STACK_PAIRS = 1 << 15


def _joint_stack(batch: list[JointSpec], sides: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(b, k, k) adjacencies and (b, k) degrees of the joints in `batch`, all of order k.

    Slice s is the joint by its definition: G's adjacency on [:n, :n], H's on
    [n:, n:] and the bridge, with G's and H's degrees plus one at each
    anchor.  `sides` maps id(g) to `dense_adjacency(g)` for every side g.
    """
    order = batch[0].g.order + batch[0].h.order
    adj = np.zeros((len(batch), order, order), dtype=bool)
    deg = np.empty((len(batch), order), dtype=np.int64)
    for s, spec in enumerate(batch):
        n = spec.g.order
        adj[s, :n, :n] = sides[id(spec.g)]
        adj[s, n:, n:] = sides[id(spec.h)]
        deg[s, :n] = spec.g.degree_array()
        deg[s, n:] = spec.h.degree_array()
    rows = np.arange(len(batch))
    v = [spec.v - 1 for spec in batch]
    u = [spec.g.order + spec.u - 1 for spec in batch]
    adj[rows, v, u] = adj[rows, u, v] = True
    deg[rows, v] += 1
    deg[rows, u] += 1
    return adj, deg


def _direct_gutman(specs: list[JointSpec]) -> list[int]:
    """Gutman index of each spec's composed graph, by BFS of that graph, in spec order.

    Graphs of one order share stacked kernel calls of at most _STACK_PAIRS
    vertex pairs, composed by `_joint_stack`; no side distance enters.  Each
    stack is summed in one `_pair_sum` call.
    """
    values = [0] * len(specs)
    by_order: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        by_order.setdefault(spec.g.order + spec.h.order, []).append(i)
    graphs = {id(g): g for spec in specs for g in (spec.g, spec.h)}
    sides = {key: dense_adjacency(g) for key, g in graphs.items()}
    for order, members in by_order.items():
        per_call = max(1, _STACK_PAIRS // (order * order))
        for start in range(0, len(members), per_call):
            batch = members[start : start + per_call]
            adj, deg = _joint_stack([specs[i] for i in batch], sides)
            dist = _require_connected(layered_distance_matrix(adj), "the Gutman index")
            for i, total in zip(batch, _pair_sum(deg, dist)):
                values[i] = total
    return values


def _index_parts(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Degrees, distance matrix, and Gutman index of a connected graph.

    All three are kept on `g`, so a graph that many grid points share is
    summed once.  `gutman_index` raises on a disconnected graph and keeps
    only a connected one's index, so each graph is checked once.  It sums a
    reach-backed side over its jump forest without the side's matrix;
    `all_pairs_distances` fills that matrix, which the anchors' rows read.
    """
    gut = gutman_index(g)
    return g.degree_array(), all_pairs_distances(g), gut


def closed_form_joint_gutman(spec: JointSpec) -> int:
    """Gutman index of the edge joint, by the exact pair-class decomposition.

    Works for arbitrary anchors; both inputs must be connected.  O(n + m)
    once each side's distances and index are known.
    """
    dg, DG, gut_g = _index_parts(spec.g)
    dh, DH, gut_h = _index_parts(spec.h)
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
    """Published right-hand side for the trivial joint: the printed sums, grouped by factor.

    With S = sum over k >= 2 of d(v_k) and T = sum over k >= 2 of
    d(v_k) * d(v_1, v_k), for G = J_n and H = J_m, the printed value is

        Gut(G) + Gut(H) + T_G + T_H + (d_G(v_1) + 1) * (T_H + S_H)
        + T_G * S_H + S_G * T_H + S_G * S_H + 4.
    """
    _require_jaco_pair(jn, jm)
    dg, DG, gut_g = _index_parts(jn.underlying)
    dh, DH, gut_h = _index_parts(jm.underlying)
    s_g, t_g = int(dg[1:].sum()), int(dg[1:] @ DG[0, 1:])
    s_h, t_h = int(dh[1:].sum()), int(dh[1:] @ DH[0, 1:])
    return gut_g + gut_h + t_g + t_h + (int(dg[0]) + 1) * (t_h + s_h) + t_g * s_h + s_g * t_h + s_g * s_h + 4


def missing_anchor_block(jn: JacoGraph, jm: JacoGraph) -> int:
    """Predicted value of the pair class absent from the published formula."""
    _require_jaco_pair(jn, jm)
    dg, DG, _ = _index_parts(jn.underlying)
    # The matrix type holds the largest distance + 1, so DG + 1 cannot wrap.
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
    (direct,) = _direct_gutman([spec])
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


def _identity_jacos(n_max: int) -> dict[int, JacoGraph]:
    """Identity Jaco graphs of orders 2..n_max, keyed by order.

    Built once per audit, so each graph's distances are computed once (they
    are memoized on its underlying graph) however many grid points use it.
    """
    return {k: build_jaco(IDENTITY, k) for k in range(2, n_max + 1)}


def joint_delta_report(n_max: int, m_max: int) -> list[JointDelta]:
    """Trivial-anchor audit over the grid 2 <= m <= min(n, m_max), m <= n <= n_max."""
    _require_at_least(n_max, 2, "n_max")
    _require_at_least(m_max, 2, "m_max")
    jacos = _identity_jacos(n_max)
    grid = [(n, m) for n in range(2, n_max + 1) for m in range(2, min(n, m_max) + 1)]
    specs = [JointSpec(jacos[n].underlying, jacos[m].underlying, 1, 1) for n, m in grid]
    return [
        JointDelta(
            n=n,
            m=m,
            paper_rhs=joint_paper_rhs(jacos[n], jacos[m]),
            closed_form=closed_form_joint_gutman(spec),
            direct=direct,
            missing_block=missing_anchor_block(jacos[n], jacos[m]),
        )
        for (n, m), spec, direct in zip(grid, specs, _direct_gutman(specs))
    ]


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
    _require_at_least(n_max, 2, "n_max")
    _require_at_least(m_max, 2, "m_max")
    _require_at_least(per_pair, 0, "per_pair")
    rng = random.Random(seed)
    graphs = {k: j.underlying for k, j in _identity_jacos(n_max).items()}
    specs = []
    for n in range(2, n_max + 1):
        for m in range(2, min(n, m_max) + 1):
            for _ in range(per_pair):
                vi, uj = 1, 1
                while vi == 1 and uj == 1:
                    vi = rng.randint(1, n)
                    uj = rng.randint(1, m)
                specs.append(JointSpec(graphs[n], graphs[m], vi, uj))
    return [
        AnchorCheck(
            n=spec.g.order,
            m=spec.h.order,
            vi=spec.v,
            uj=spec.u,
            closed_form=closed_form_joint_gutman(spec),
            direct=direct,
        )
        for spec, direct in zip(specs, _direct_gutman(specs))
    ]
