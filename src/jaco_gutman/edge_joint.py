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
Each side's degree total, T vector and index are computed once and kept on
the graph; a reach-backed side takes T and the index from its jump forest.

The published right-hand side for the trivial joint of two identity Jaco
graphs omits one pair class: low G-vertices paired with H's anchor.  Its
predicted value, the missing block

    B = (d_H(u_1) + 1) * sum over k >= 2 of d_G(v_k) * (d_G(v_1, v_k) + 1),

restores the direct value exactly; the audit report records both.

The direct value the audits check against is the Gutman index of the
composed graph itself, found by breadth-first search of that graph.  It
uses neither the cross-distance law nor either side's index or T, so the
closed form is never checked against itself.  Each side of a Jaco joint is
a proper interval graph in index order (Looges and Olariu 1993) and the
bridge is the only edge between the sides.  A joint is searched as two
half-joints, each one side's vertices against the other side.  A source's
BFS ball is then its ball in its own side, one index interval, plus one
index interval of the other side, which stays empty until the ball holds
the source's own anchor and from then on holds the other anchor.  The
search grows those intervals with no adjacency and no distance matrix, in
O(k * diameter) per joint of order k.  It is a stream (`_direct_stream`):
it checks the sides and lays out their tables once, then reads the joints
only as far as it needs to fill a batch of sources, grows the batch's
balls together whatever joints they belong to, and yields each joint's
spec with its index once its last source is summed.  So it holds O(batch)
joints, and `joint_delta_report` and `anchor_checks` make their rows and
checks one at a time from it, reading their grids lazily.
Every side the audits build is reach-backed, and the search takes no
other; the index of any joint is `gutman_index(edge_joint_graph(spec))`.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    _INT64_SAFE,
    SimpleGraph,
    StructureAssumptionViolated,
    _exact_dot,
    _halve,
    _require_at_least,
    _require_connected,
    _require_vertex,
    degree_distance_sums,
    gutman_index,
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


# Sources per batch of the interval-ball BFS in `_direct_stream`.  A source
# holds about twenty int64 entries at a time, so a batch stays near 0.6 MB;
# a joint whose sources span two batches is summed across them.
_BATCH_SOURCES = 1 << 12


def _side_tables(sides: list[SimpleGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each side's offset, and the sides' lo, hi and degree prefix sums laid end to end.

    Side k of order n takes the n + 2 positions o_k..o_k + n + 1, vertex x at
    o_k + x, and every lo and hi entry is itself a position:
    lo[o + x] = o + lo(x) and hi[o + x] = o + hi(x).
    The two padding positions hold the empty interval [o + n + 1, o]:
    lo[o + n + 1] = o + n + 1 and hi[o] = o, so it grows to itself.  pre[p]
    is the degree total of the positions up to p, the padding weighing 0.
    """
    sizes = np.array([g.order + 2 for g in sides])
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, sizes)
    lo = np.concatenate([x for g in sides for x in ([0], g.lo, [g.order + 1])]) + shift
    hi = np.concatenate([x for g in sides for x in ([0], g.reach, [g.order + 1])]) + shift
    pre = np.cumsum(np.concatenate([x for g in sides for x in ([0], g.degree_array(), [0])]))
    return offsets, lo, hi, pre


def _ball_sums(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    ball: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    v: np.ndarray,
    u: np.ndarray,
    total: np.ndarray,
    longest: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight w(a) and sum of w(x) * dist(a, x) over x, for every source a, by growing its balls.

    Every source a lies in its own side G of its half-joint, and H is the
    other side.  `tables` is (lo, hi, pre) from `_side_tables`.  Source a's
    ball of radius r, B_r(a), is stored as its index interval [gl, gr] in G
    and [hl, hr] in H, as positions of those tables, and `ball` holds
    (gl, gr, hl, hr) at r = 0: [a, a] and H's empty interval.  v is a's own
    anchor, in G, and u the other anchor, in H, both as positions; total is
    the joint's degree total W, and `longest` the largest order of the
    batch's joints.  A vertex weighs its degree in the joint: its side's
    degree, plus one at an anchor.  Both sides must be connected, or the
    balls never fill.

    A side is a proper interval graph in index order: the closed
    neighbourhood of x is [lo(x), hi(x)], and lo and hi never decrease.  So
    the neighbourhood of an interval [l, r] is [lo(l), hi(r)]: every
    [lo(x), hi(x)] with l <= x <= r lies in it and holds x, so their union
    has no gap and runs from lo(l) to hi(r).  The bridge vu is the only edge
    between the sides, so a shortest path from a to a G-vertex never
    crosses it: it would have to cross back.  The G part is therefore a's
    ball in G, which grows to [lo(gl), hi(gr)] and is never empty.

    Every path from a to an H-vertex y runs through v and then u, so
    dist(a, u) <= dist(a, y).  The H part thus stays empty until the ball
    holds v, takes u in the next round, and once not empty always holds u.
    It grows to [lo(hl), hi(hr)], extended by min and max with u when B_r
    holds v: that turns the empty part, [m + 1, 0] in the coordinates of H
    of order m, into [u, u], and leaves a part that already holds u as it
    is.  The anchors in the ball are v when the G part holds it, and u when
    the H part is not empty.

    A vertex x is missed by the balls of radius 0..dist(a, x) - 1 and by no
    larger one, so sum_x w(x) * dist(a, x) = sum over r >= 0 of
    W - w(B_r(a)), and w(B_r(a)) is two prefix-sum differences plus the
    anchors it holds.  The rounds run until every ball of the batch is the
    whole joint.  An eccentricity is below its joint's order, so a ball that
    has not filled after `longest` rounds raises StructureAssumptionViolated:
    a side is not the proper interval graph its reach describes.  Each term
    is below W, which bounds the sums by longest * W: they run in int64 when
    that is below _INT64_SAFE, else in Python integers.
    """
    lo, hi, pre = tables
    gl, gr, hl, hr = ball
    sums = np.zeros(len(gl), dtype=np.int64 if longest * int(total.max()) < _INT64_SAFE else object)
    weight = None
    for _ in range(longest):
        has_v = (gl <= v) & (v <= gr)
        # An empty H part reads pre[o] - pre[o + m] <= 0, which the clip makes 0.
        inside = pre[gr] - pre[gl - 1] + np.maximum(pre[hr] - pre[hl - 1], 0)
        inside += has_v
        inside += hl <= hr
        if weight is None:
            weight = inside
        missed = total - inside
        if not missed.any():
            return weight, sums
        sums += missed
        gl, gr, hl, hr = lo[gl], hi[gr], lo[hl], hi[hr]
        np.minimum(hl, u, out=hl, where=has_v)
        np.maximum(hr, u, out=hr, where=has_v)
    raise StructureAssumptionViolated(
        f"a ball has not filled its joint after {longest} rounds, more than the joint's order allows"
    )


def _direct_stream(sides: Iterable[SimpleGraph], specs: Iterable[JointSpec]) -> Iterator[tuple[JointSpec, int]]:
    """Each spec with its joint's Gutman index, by BFS of the composed graph, as the specs are read.

    `sides` lists every graph that a spec joins (a spec joining any other
    raises KeyError).  When the first pair is asked for, each distinct
    side is checked, and the tables of all of them built once
    (`_side_tables`), before a spec is read or any ball grows.  A
    table-backed side raises ValueError, as the balls read its reach; such
    a joint's index is `gutman_index(edge_joint_graph(spec))`.  A
    disconnected one fails the connectivity gate (`_require_connected`)
    with DisconnectedGraphError, as the composed graph's own index would.

    Joint i is taken as two half-joints, each one side's vertices against
    the other side: its G against its H, then its H against its G.  So
    every source lies in its own side, and joint i's sources run G's
    vertices, then H's.  The specs are read only until their sources, past
    those already summed, fill a batch of _BATCH_SOURCES, and the sources
    of one batch grow their balls together (`_ball_sums`), whatever joints
    they belong to: a batch may end inside a joint and the next one go on
    with it.  2 * Gut is the sum of w(a) times a's distance sum over a
    joint's sources, one exact dot product per joint's run of sources in
    the batch (`_exact_dot` over segments).  A joint's spec and index are
    yielded, in spec order, once the batch holding its last source is
    summed, so the stream holds O(batch) joints at a time.  An odd total
    raises ArithmeticError.
    """
    sides = list({id(g): g for g in sides}.values())
    for g in sides:
        if g.reach is None:
            raise ValueError("the interval balls need reach-backed sides; use gutman_index(edge_joint_graph(spec))")
        _require_connected(g, "the Gutman index")
    offset, lo, hi, pre = _side_tables(sides)
    where = {id(g): int(o) for g, o in zip(sides, offset)}
    specs = iter(specs)
    # Per pending joint, its spec, the (position, order, anchor position) of
    # its two halves and its ordered-pair total so far; `done` of their
    # `ahead` sources are summed.
    pending: list[JointSpec] = []
    halves: list[tuple[int, int, int]] = []
    twice: list[int] = []
    done = ahead = 0
    while True:
        while ahead - done < _BATCH_SOURCES and (spec := next(specs, None)) is not None:
            for g, a in ((spec.g, spec.v), (spec.h, spec.u)):
                halves.append((where[id(g)], g.order, where[id(g)] + a))
            pending.append(spec)
            twice.append(0)
            ahead += spec.g.order + spec.h.order
        if done == ahead:
            return
        own, order, anchor = np.array(halves, dtype=np.int64).T
        total = (pre[own + order] - pre[own]).reshape(-1, 2).sum(axis=1) + 2
        joint_order = order.reshape(-1, 2).sum(axis=1)
        first = np.cumsum(order) - order
        end = min(done + _BATCH_SOURCES, ahead)
        source = np.arange(done, end)
        k = np.searchsorted(first, source, side="right") - 1
        other, joint = k ^ 1, k // 2
        a = own[k] + 1 + source - first[k]
        ball = (a, a, own[other] + order[other] + 1, own[other])
        longest = int(joint_order[joint[0] : joint[-1] + 1].max())
        weight, sums = _ball_sums((lo, hi, pre), ball, anchor[k], anchor[other], total[joint], longest)
        cuts = np.flatnonzero(np.diff(joint, prepend=-1))
        for i, part in zip(joint[cuts].tolist(), _exact_dot(weight, sums, cuts)):
            twice[i] += part
        # the joints that end in this batch are whole
        ends = np.cumsum(joint_order)
        finished = int(np.searchsorted(ends, end, side="right"))
        for spec, t in zip(pending[:finished], twice[:finished]):
            yield spec, _halve(t)
        summed = int(ends[finished - 1]) if finished else 0
        del pending[:finished], twice[:finished], halves[: 2 * finished]
        done, ahead = end - summed, ahead - summed


def _direct_gutman(specs: list[JointSpec]) -> list[int]:
    """Gutman index of each joint of reach-backed sides, in spec order: the indices of `_direct_stream`."""
    return [index for _, index in _direct_stream((g for spec in specs for g in (spec.g, spec.h)), specs)]


def _index_parts(g: SimpleGraph) -> tuple[int, np.ndarray, int]:
    """Degree total, degree-distance sums T and Gutman index of a connected graph.

    All three are kept on `g`, so a graph that many grid points share is
    summed once and each point reads them in O(1).  `gutman_index` raises on
    a disconnected graph and keeps only a connected one's index, so each
    graph is checked once.  A reach-backed side takes both sums over its
    jump forest and never fills its distance matrix.
    """
    gut = gutman_index(g)
    return 2 * g.size, degree_distance_sums(g), gut


def closed_form_joint_gutman(spec: JointSpec) -> int:
    """Gutman index of the edge joint, by the exact pair-class decomposition.

    Works for arbitrary anchors; both inputs must be connected.  O(1) once
    each side's degree total, T and index are known.
    """
    total_g, t_g, gut_g = _index_parts(spec.g)
    total_h, t_h, gut_h = _index_parts(spec.h)
    a_g, a_h = total_g + 1, total_h + 1
    return gut_g + gut_h + a_g * a_h + int(t_g[spec.v - 1]) * (a_h + 1) + int(t_h[spec.u - 1]) * (a_g + 1)


def _require_jaco_pair(jn: JacoGraph, jm: JacoGraph) -> None:
    if jn.f != IDENTITY or jm.f != IDENTITY:
        raise ValueError(
            f"the published joint formula applies to f(x) = 1x + 0 only, "
            f"got {jn.f} and {jm.f}"
        )
    if not jn.n >= jm.n >= 2:
        raise ValueError(f"orders must satisfy n >= m >= 2, got n={jn.n}, m={jm.n}")


def _first_vertex_parts(j: JacoGraph) -> tuple[int, int, int, int]:
    """Gut, d(v_1), S = sum over k >= 2 of d(v_k), and T(1) = sum over k >= 2 of d(v_k) * d(v_1, v_k)."""
    total, t, gut = _index_parts(j.underlying)
    first = int(j.underlying.degree_array()[0])
    return gut, first, total - first, int(t[0])


def joint_paper_rhs(jn: JacoGraph, jm: JacoGraph) -> int:
    """Published right-hand side for the trivial joint: the printed sums, grouped by factor.

    With S = sum over k >= 2 of d(v_k) and T = sum over k >= 2 of
    d(v_k) * d(v_1, v_k), for G = J_n and H = J_m, the printed value is

        Gut(G) + Gut(H) + T_G + T_H + (d_G(v_1) + 1) * (T_H + S_H)
        + T_G * S_H + S_G * T_H + S_G * S_H + 4.
    """
    _require_jaco_pair(jn, jm)
    gut_g, first_g, s_g, t_g = _first_vertex_parts(jn)
    gut_h, _, s_h, t_h = _first_vertex_parts(jm)
    return gut_g + gut_h + t_g + t_h + (first_g + 1) * (t_h + s_h) + t_g * s_h + s_g * t_h + s_g * s_h + 4


def missing_anchor_block(jn: JacoGraph, jm: JacoGraph) -> int:
    """Predicted value of the pair class absent from the published formula: (d_H(u_1) + 1) * (T_G + S_G)."""
    _require_jaco_pair(jn, jm)
    _, _, s_g, t_g = _first_vertex_parts(jn)
    return (int(jm.underlying.degree_array()[0]) + 1) * (t_g + s_g)


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
    n >= m >= 2; they are None otherwise.  When m == n, J_n serves as both
    sides.
    """
    jn = build_jaco(IDENTITY, n)
    jm = jn if m == n else build_jaco(IDENTITY, m)
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
    # the grid is read as the stream sums it, never held whole
    specs = (
        JointSpec(jacos[n].underlying, jacos[m].underlying, 1, 1) for n in jacos for m in range(2, min(n, m_max) + 1)
    )
    rows = []
    for spec, direct in _direct_stream((j.underlying for j in jacos.values()), specs):
        jn, jm = jacos[spec.g.order], jacos[spec.h.order]
        paper, missing = joint_paper_rhs(jn, jm), missing_anchor_block(jn, jm)
        rows.append(JointDelta(jn.n, jm.n, paper, closed_form_joint_gutman(spec), direct, missing))
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


def _anchor_specs(
    graphs: dict[int, SimpleGraph], m_max: int, per_pair: int, seed: int
) -> Iterator[JointSpec]:
    """The anchor audit's joints: per (n, m) point, in order, per_pair seeded anchor pairs other than (1, 1).

    `graphs` holds the identity Jaco graphs of orders 2..n_max by order.
    """
    rng = random.Random(seed)
    for n, g in graphs.items():
        for m in range(2, min(n, m_max) + 1):
            for _ in range(per_pair):
                vi, uj = 1, 1
                while vi == 1 and uj == 1:
                    vi = rng.randint(1, n)
                    uj = rng.randint(1, m)
                yield JointSpec(g, graphs[m], vi, uj)


def anchor_checks(n_max: int, m_max: int, per_pair: int = 5, seed: int = 0) -> Iterator[AnchorCheck]:
    """Seeded non-trivial anchor checks across the same (n, m) grid, made as they are read.

    The arguments are checked and the graphs built on the call; each check
    is made when it is read, with its direct value from `_direct_stream`,
    so the grid's joints are never held at once.
    """
    _require_at_least(n_max, 2, "n_max")
    _require_at_least(m_max, 2, "m_max")
    _require_at_least(per_pair, 0, "per_pair")
    graphs = {k: j.underlying for k, j in _identity_jacos(n_max).items()}
    return (
        AnchorCheck(
            n=spec.g.order,
            m=spec.h.order,
            vi=spec.v,
            uj=spec.u,
            closed_form=closed_form_joint_gutman(spec),
            direct=direct,
        )
        for spec, direct in _direct_stream(graphs.values(), _anchor_specs(graphs, m_max, per_pair, seed))
    )


def anchor_audit(n_max: int, m_max: int, per_pair: int = 5, seed: int = 0) -> list[AnchorCheck]:
    """Seeded non-trivial anchor checks across the same (n, m) grid: the whole of `anchor_checks`."""
    return list(anchor_checks(n_max, m_max, per_pair, seed))
