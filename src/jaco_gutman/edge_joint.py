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
O(k * diameter) per joint of order k.  The empty interval is one that the
growth maps to itself, and one scatter opens it; a ball that holds its
whole joint is done, and once half of a batch's balls are, the batch goes
on with the rest alone.  It is a stream (`_direct_stream`):
it checks the sides and lays out their tables once, then reads the joints
only as far as it needs to fill a batch of sources, grows the batch's
balls together whatever joints they belong to, and yields each joint with
its index once its last source is summed.  So it holds O(batch) joints.
Every side the audits build is reach-backed, and the search takes no
other; the index of any joint is `gutman_index(edge_joint_graph(spec))`.

Both audits of `erratum` run through one such stream over one set of
identity graphs J_2..J_n_max: the trivial grid first, then the seeded
anchor grid, each read lazily from one walk of the grid (`_grid`,
`_joint_audits`).  Inside the audits a joint is a plain (g, h, v, u) tuple,
in range by construction.  Every checked joint is one `JointCheck`, a named
tuple made as the stream sums the joint (`_audit_checks`) and carried as it
is to the printers; its `ok` is the one test of closed form against direct
value.  The trivial grid's rows are the same records with the published
columns filled in.  `joint_delta_report` and `anchor_checks` are views over
those checks, and `joint_check` is one point of them: the check of its
single joint, with the published columns at trivial anchors, as a dict.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .graph_core import (
    _INT64_SAFE,
    SimpleGraph,
    StructureAssumptionViolated,
    _exact_dot,
    _halve,
    _is_int,
    _require_at_least,
    _require_connected,
    _require_vertex,
    degree_distance_sums,
    gutman_index,
)
from .jaco import IDENTITY, JacoGraph, build_jaco


@dataclass(frozen=True)
class JointSpec:
    """Composition request: graphs g and h joined by the bridge (v, u).

    It unpacks as (g, h, v, u), the plain tuple the audits use for a joint.
    """

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

    def __iter__(self) -> Iterator[SimpleGraph | int]:
        return iter((self.g, self.h, self.v, self.u))


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
# holds about twenty int64 entries at a time, so a batch stays near 0.6 MB,
# and compacting it copies at most half of that; a joint whose sources span
# two batches is summed across them.
_BATCH_SOURCES = 1 << 12

# Fewest sources `_ball_sums` compacts a batch to.  numpy keeps freed buffers
# under 1 KB for reuse, per size, so compacting to every small size left up
# to 2 MB of them behind on `erratum --n-max 200 --m-max 100`.
_COMPACT_FLOOR = 1 << 10


def _side_tables(sides: list[SimpleGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each side's offset, and the sides' lo, hi and degree prefix sums laid end to end.

    Side k of order n takes the n + 2 positions o_k..o_k + n + 1, vertex x at
    o_k + x, and every lo and hi entry is itself a position:
    lo[o + x] = o + lo(x) and hi[o + x] = o + hi(x).
    The padding positions o and o + n + 1 map to themselves, and as
    lo(1) = 1 the empty interval [o + 1, o] grows to itself.  below[p] is
    the degree total of the positions below p, the padding weighing 0, for
    p up to one past the last position; so the weight of [l, r] is
    below[r + 1] - below[l].
    """
    sizes = np.array([g.order + 2 for g in sides])
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, sizes)
    lo = np.concatenate([x for g in sides for x in ([0], g.lo, [g.order + 1])]) + shift
    hi = np.concatenate([x for g in sides for x in ([0], g.reach, [g.order + 1])]) + shift
    below = np.cumsum(np.concatenate([[0], *(x for g in sides for x in ([0], g.degree_array(), [0]))]))
    return offsets, lo, hi, below


def _ball_sums(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ball: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    v: np.ndarray,
    u: np.ndarray,
    total: np.ndarray,
    longest: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight w(a) and sum of w(x) * dist(a, x) over x, for every source a, by growing its balls.

    Every source a lies in its own side G of its half-joint, and H is the
    other side.  `tables` is (lo, hi, pre, before): lo and hi from
    `_side_tables`, and pre[p] and before[p] the degree totals of the
    positions up to p and below p, two views of its one prefix table that
    no batch copies.  Source a's ball of radius r, B_r(a), is stored as its
    index interval [gl, gr] in G and [hl, hr] in H, as positions of those
    tables, and `ball` holds (gl, gr, hl, hr) at r = 0: [a, a] and an empty
    H part whose hr is H's offset o.  v is a's own anchor, in G, and u the other anchor, in H, both
    as positions; total is the joint's degree total W, and `longest` the
    largest order of the batch's joints.  A vertex weighs its degree in the
    joint: its side's degree, plus one at an anchor.  Both sides must be
    connected, or the balls never fill.

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
    holds v, takes u in the next round, and once not empty always holds u,
    so it grows to [lo(hl), hi(hr)].  The empty part is held as [o + 1, o]:
    lo(o + 1) = o + 1 and hi(o) = o, so the growth maps it to itself, and it
    weighs pre[o] - pre[o] = 0.  In the round after B_r first holds v, one
    scatter opens it to [u, u].  The anchors in the ball are v when the G
    part holds it, and u when it held v a round earlier.

    A vertex x is missed by the balls of radius 0..dist(a, x) - 1 and by no
    larger one, so sum_x w(x) * dist(a, x) = sum over r >= 0 of
    W - w(B_r(a)), and w(B_r(a)) is two prefix-sum differences plus the
    anchors it holds.  A ball that weighs W has filled, and adds 0 from then
    on.  Once at most half of the sources, and at least _COMPACT_FLOOR, still
    miss weight, the batch is compacted to them: each filled source keeps
    its sum, and the rest go on in arrays at most half as long, so no round
    holds two whole copies of the batch.  The rounds run until every ball
    is the whole joint.  An eccentricity is below its joint's order, so a
    ball that has not filled after `longest` rounds raises
    StructureAssumptionViolated: a side is not the proper interval graph
    its reach describes.  Each term is below W, so after rounds 0..r a sum
    is below (r + 1) * max W, and the rounds run about 2 log_phi n for a
    Jaco joint, however large its order.  The sums therefore run in int64
    while (r + 1) * max W is below _INT64_SAFE, and in Python integers from
    the first round where it is not: the live and the kept sums are widened
    together, and the sums come back as Python integers (dtype object)
    exactly when a round past that bound ran.
    """
    lo, hi, pre, before = tables
    gl, gr, _, hr = ball
    hl = hr + 1
    most = int(total.max())
    sums = np.zeros(len(gl), dtype=np.int64)
    # the growing sources' sums, and their places in `sums` once compacted
    acc, live, weight = sums, None, None
    opened = np.zeros(len(gl), dtype=bool)
    for r in range(longest):
        has_v = (gl <= v) & (v <= gr)
        inside = pre.take(gr)
        inside -= before.take(gl)
        inside += pre.take(hr)
        inside -= before.take(hl)
        inside += has_v
        inside += opened
        if weight is None:
            weight = inside
        missed = total - inside
        growing = np.count_nonzero(missed)
        if not growing:
            if live is not None:
                sums[live] = acc
            return weight, sums
        if (r + 1) * most >= _INT64_SAFE and acc.dtype != object:
            sums = sums.astype(object)
            acc = sums if live is None else acc.astype(object)
        acc += missed
        gl, gr, hl, hr = lo.take(gl), hi.take(gr), lo.take(hl), hi.take(hr)
        fresh = (has_v > opened).nonzero()[0]
        if len(fresh):
            hl[fresh] = hr[fresh] = u[fresh]
        opened = has_v
        if _COMPACT_FLOOR <= growing <= len(acc) // 2:
            keep = np.flatnonzero(missed)
            if live is None:
                live = keep
            else:
                sums[live] = acc
                live = live[keep]
            acc, gl, gr, hl, hr = acc[keep], gl[keep], gr[keep], hl[keep], hr[keep]
            v, u, total, opened = v[keep], u[keep], total[keep], opened[keep]
    raise StructureAssumptionViolated(
        f"a ball has not filled its joint after {longest} rounds, more than the joint's order allows"
    )


def _direct_stream(sides: Iterable[SimpleGraph], joints: Iterable[tuple]) -> Iterator[tuple[tuple, int]]:
    """Each joint with its Gutman index, by BFS of the composed graph, as the joints are read.

    A joint is anything that unpacks as (g, h, v, u), a JointSpec or a plain
    tuple, whose anchors are in range; it is yielded as it was read.
    `sides` lists every graph that a joint joins (a joint joining any other
    raises KeyError).  When the first pair is asked for, each distinct
    side is checked, and the tables of all of them built once
    (`_side_tables`), before a joint is read or any ball grows.  A
    table-backed side raises ValueError, as the balls read its reach; such
    a joint's index is `gutman_index(edge_joint_graph(spec))`.  A
    disconnected one fails the connectivity gate (`_require_connected`)
    with DisconnectedGraphError, as the composed graph's own index would.

    Joint i is taken as two half-joints, each one side's vertices against
    the other side: its G against its H, then its H against its G.  So
    every source lies in its own side, and joint i's sources run G's
    vertices, then H's.  The joints are read only until their sources, past
    those already summed, fill a batch of _BATCH_SOURCES, and the sources
    of one batch grow their balls together (`_ball_sums`), whatever joints
    they belong to: a batch may end inside a joint and the next one go on
    with it.  2 * Gut is the sum of w(a) times a's distance sum over a
    joint's sources, one exact dot product per joint's run of sources in
    the batch (`_exact_dot` over segments).  A joint and its index are
    yielded, in order, once the batch holding its last source is summed,
    so the stream holds O(batch) joints at a time.  An odd total raises
    ArithmeticError.
    """
    sides = list({id(g): g for g in sides}.values())
    for g in sides:
        if g.reach is None:
            raise ValueError("the interval balls need reach-backed sides; use gutman_index(edge_joint_graph(spec))")
        _require_connected(g, "the Gutman index")
    offset, lo, hi, below = _side_tables(sides)
    tables = lo, hi, below[1:], below[:-1]  # pre and before, as `_ball_sums` reads them
    where = {id(g): int(o) for g, o in zip(sides, offset)}
    joints = iter(joints)
    # Per pending joint, the joint and the (position, order, anchor position)
    # of its two halves, laid flat; `done` of their `ahead` sources are
    # summed, and `carry` is the first joint's ordered-pair total so far.
    pending, halves = [], []
    done = ahead = carry = 0
    while True:
        while ahead - done < _BATCH_SOURCES and (joint := next(joints, None)) is not None:
            g, h, v, u = joint
            at_g, at_h, order_g, order_h = where[id(g)], where[id(h)], g.order, h.order
            halves += at_g, order_g, at_g + v, at_h, order_h, at_h + u
            pending.append(joint)
            ahead += order_g + order_h
        if done == ahead:
            return
        own, order, anchor = np.array(halves, dtype=np.int64).reshape(-1, 3).T
        total = (below[own + order + 1] - below[own + 1]).reshape(-1, 2).sum(axis=1) + 2
        joint_order = order.reshape(-1, 2).sum(axis=1)
        first = np.cumsum(order) - order
        end = min(done + _BATCH_SOURCES, ahead)
        source = np.arange(done, end)
        # each source's half-joint k, and where each joint's run of sources
        # starts in the batch, which runs from the first pending joint
        k = np.searchsorted(first, source, side="right") - 1
        starts = np.maximum(first[::2][: np.searchsorted(first[::2], end)] - done, 0)
        other = k ^ 1
        a = (own + 1 - first)[k] + source
        at = own[other]
        longest = int(joint_order[: len(starts)].max())
        weight, sums = _ball_sums(tables, (a, a, at + 1, at), anchor[k], anchor[other], total[k >> 1], longest)
        # one total per joint of the batch; all but the last end in it
        twice = _exact_dot(weight, sums, starts)
        twice[0] += carry
        ends = np.cumsum(joint_order)
        finished = int(np.searchsorted(ends, end, side="right"))
        for joint, t in zip(pending[:finished], twice):
            yield joint, _halve(t)
        carry = twice[-1] if finished < len(twice) else 0
        summed = int(ends[finished - 1]) if finished else 0
        del pending[:finished], halves[: 6 * finished]
        done, ahead = end - summed, ahead - summed


def closed_form_joint_gutman(spec: JointSpec) -> int:
    """Gutman index of the edge joint, by the exact pair-class decomposition.

    Works for arbitrary anchors; both inputs must be connected.  `spec` is a
    JointSpec, or a plain (g, h, v, u) tuple whose anchors are in range, as
    the audits pass their joints.  O(1) once each side's degree total, T
    and index are known: all three are kept on the graph, so a side that
    many grid points share is summed once, and each point reads them as
    Python integers.  `gutman_index` runs the connectivity gate first, once
    per graph.  A reach-backed side takes both sums over its jump forest
    and never fills its distance matrix.
    """
    g, h, v, u = spec
    gut = gutman_index(g) + gutman_index(h)
    a_g, a_h = 2 * g.size + 1, 2 * h.size + 1
    t_g, t_h = degree_distance_sums(g).item(v - 1), degree_distance_sums(h).item(u - 1)
    return gut + a_g * a_h + t_g * (a_h + 1) + t_h * (a_g + 1)


def _require_jaco_pair(jn: JacoGraph, jm: JacoGraph) -> None:
    if jn.f != IDENTITY or jm.f != IDENTITY:
        raise ValueError(
            f"the published joint formula applies to f(x) = 1x + 0 only, "
            f"got {jn.f} and {jm.f}"
        )
    if not jn.n >= jm.n >= 2:
        raise ValueError(f"orders must satisfy n >= m >= 2, got n={jn.n}, m={jm.n}")


def _first_vertex_parts(g: SimpleGraph) -> tuple[int, int, int, int]:
    """Gut, d(v_1), S = sum over k >= 2 of d(v_k), and T(1) = sum over k >= 2 of d(v_k) * d(v_1, v_k)."""
    first = g.degree_array().item(0)
    return gutman_index(g), first, 2 * g.size - first, degree_distance_sums(g).item(0)


def _paper_columns(parts_g: tuple[int, int, int, int], parts_h: tuple[int, int, int, int]) -> tuple[int, int]:
    """Published right-hand side and missing block of the trivial joint of G and H, from their first-vertex parts."""
    gut_g, first_g, s_g, t_g = parts_g
    gut_h, first_h, s_h, t_h = parts_h
    paper = gut_g + gut_h + t_g + t_h + (first_g + 1) * (t_h + s_h) + t_g * s_h + s_g * t_h + s_g * s_h + 4
    return paper, (first_h + 1) * (t_g + s_g)


def joint_paper_rhs(jn: JacoGraph, jm: JacoGraph) -> int:
    """Published right-hand side for the trivial joint: the printed sums, grouped by factor.

    With S = sum over k >= 2 of d(v_k) and T = sum over k >= 2 of
    d(v_k) * d(v_1, v_k), for G = J_n and H = J_m, the printed value is

        Gut(G) + Gut(H) + T_G + T_H + (d_G(v_1) + 1) * (T_H + S_H)
        + T_G * S_H + S_G * T_H + S_G * S_H + 4.
    """
    _require_jaco_pair(jn, jm)
    return _paper_columns(_first_vertex_parts(jn.underlying), _first_vertex_parts(jm.underlying))[0]


def missing_anchor_block(jn: JacoGraph, jm: JacoGraph) -> int:
    """Predicted value of the pair class absent from the published formula: (d_H(u_1) + 1) * (T_G + S_G)."""
    _require_jaco_pair(jn, jm)
    return _paper_columns(_first_vertex_parts(jn.underlying), _first_vertex_parts(jm.underlying))[1]


class JointCheck(NamedTuple):
    """One checked joint of J_n and J_m at anchors (vi, uj): its closed form against its direct value.

    At trivial anchors with n >= m >= 2 the audit row also holds the
    published right-hand side and the missing block; elsewhere they, and the
    columns derived from them, are None.
    """

    n: int
    m: int
    vi: int
    uj: int
    closed_form: int
    direct: int
    paper_rhs: int | None = None
    missing_block: int | None = None

    @property
    def ok(self) -> bool:
        return self.closed_form == self.direct

    @property
    def delta_paper(self) -> int | None:
        return None if self.paper_rhs is None else self.paper_rhs - self.direct

    @property
    def residual(self) -> int | None:
        """paper_rhs + missing_block - direct; zero when the block explains all."""
        return None if self.paper_rhs is None else self.paper_rhs + self.missing_block - self.direct


def joint_check(n: int, m: int, vi: int = 1, uj: int = 1) -> dict[str, int | None]:
    """Single composed pair of identity Jaco graphs, all values in one row: one point of the `erratum` audit.

    The row is the `JointCheck` that `_audit_checks` makes of this one
    joint, from the same `_direct_stream` and `closed_form_joint_gutman`,
    with the published columns that `_joint_audits` gives it: `_paper_columns`
    over the two sides' first-vertex parts.  Those columns only apply to the
    trivial anchor choice with n >= m >= 2; they are None otherwise.  When
    m == n, J_n serves as both sides.  The key order is the column order that
    `joint` prints, the None fields left out.  The stream runs to its end,
    and frees its side tables, before the closed form computes and keeps
    each side's T, so the two are never held together: about 23 MB less
    peak RSS at n = m = 10^6.
    """
    g = build_jaco(IDENTITY, n).underlying
    graphs = {n: g, m: g if m == n else build_jaco(IDENTITY, m).underlying}
    spec = JointSpec(g, graphs[m], vi, uj)
    ((_, direct),) = _direct_stream(graphs.values(), [spec])
    trivial = spec.trivial and n >= m >= 2
    columns = _paper_columns(_first_vertex_parts(g), _first_vertex_parts(graphs[m])) if trivial else ()
    check = JointCheck(n, m, vi, uj, closed_form_joint_gutman(spec), direct, *columns)
    keys = ("n", "m", "vi", "uj", "direct", "closed_form", "paper_rhs", "delta_paper", "missing_block")
    return {key: getattr(check, key) for key in keys}


def _identity_graphs(n_max: int, m_max: int, per_pair: int, seed: int) -> dict[int, SimpleGraph]:
    """Underlying graphs of the identity Jaco graphs of orders 2..n_max, keyed by order, once the arguments are checked.

    The bounds must be integers of at least 2, 2 and 0, and the seed any
    integer; a bool, float or string raises ValueError naming it.  Built
    once per audit, so each graph's index and T are computed once (they
    are kept on the graph) however many joints use it.
    """
    _require_at_least(n_max, 2, "n_max")
    _require_at_least(m_max, 2, "m_max")
    _require_at_least(per_pair, 0, "per_pair")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return {k: build_jaco(IDENTITY, k).underlying for k in range(2, n_max + 1)}


def _grid(graphs: dict[int, SimpleGraph], m_max: int) -> Iterator[tuple[SimpleGraph, SimpleGraph]]:
    """(J_n, J_m) at each grid point 2 <= m <= min(n, m_max), in grid order: n up, then m up."""
    return ((g, graphs[m]) for n, g in graphs.items() for m in range(2, min(n, m_max) + 1))


def _trivial_joints(graphs: dict[int, SimpleGraph], m_max: int) -> Iterator[tuple]:
    """The trivial joint of J_n and J_m at each grid point, in grid order."""
    return ((g, h, 1, 1) for g, h in _grid(graphs, m_max))


def _anchor_joints(graphs: dict[int, SimpleGraph], m_max: int, per_pair: int, seed: int) -> Iterator[tuple]:
    """Per grid point, in grid order, per_pair seeded anchor pairs other than (1, 1).

    Each pair draws randint(1, n), then randint(1, m), again while both are 1.
    """
    randint = random.Random(int(seed)).randint  # random takes no numpy integer
    for g, h in _grid(graphs, m_max):
        for _ in range(per_pair):
            vi = uj = 1
            while vi == uj == 1:
                vi, uj = randint(1, g.order), randint(1, h.order)
            yield g, h, vi, uj


def _audit_checks(graphs: dict[int, SimpleGraph], joints: Iterable[tuple]) -> Iterator[JointCheck]:
    """The check of each joint of `graphs`, made as `_direct_stream` sums it."""
    for joint, direct in _direct_stream(graphs.values(), joints):
        g, h, v, u = joint
        yield JointCheck(g.order, h.order, v, u, closed_form_joint_gutman(joint), direct)


def _joint_audits(n_max: int, m_max: int, per_pair: int, seed: int) -> tuple[list[JointCheck], Iterator[JointCheck]]:
    """Both edge-joint audits through one stream: the trivial grid's rows, and the anchor checks still to read.

    One set of graphs J_2..J_n_max and one `_direct_stream` serve the
    trivial joint of each (n, m) grid point, and after them per_pair
    seeded anchor pairs per point.  The trivial rows are made before this
    returns, their published columns filled in from each order's
    first-vertex parts taken once; the stream then goes on with the anchor
    checks, made as they are read.  Both grids are read lazily, so the
    audits hold O(batch) joints.
    """
    graphs = _identity_graphs(n_max, m_max, per_pair, seed)
    checks = _audit_checks(graphs, chain(_trivial_joints(graphs, m_max), _anchor_joints(graphs, m_max, per_pair, seed)))
    parts = {k: _first_vertex_parts(g) for k, g in graphs.items()}
    rows = []
    for check in islice(checks, sum(min(n, m_max) - 1 for n in graphs)):
        paper, missing = _paper_columns(parts[check.n], parts[check.m])
        rows.append(check._replace(paper_rhs=paper, missing_block=missing))
    return rows, checks


def joint_delta_report(n_max: int, m_max: int) -> list[JointCheck]:
    """Trivial-anchor audit over the grid 2 <= m <= min(n, m_max), m <= n <= n_max: `_joint_audits` with no anchors."""
    return _joint_audits(n_max, m_max, per_pair=0, seed=0)[0]


def anchor_checks(n_max: int, m_max: int, per_pair: int = 5, seed: int = 0) -> Iterator[JointCheck]:
    """Seeded non-trivial anchor checks across the same (n, m) grid, made as they are read.

    The arguments are checked and the graphs built on the call; each check
    is made when it is read, from the anchor grid of `_joint_audits` alone,
    so the grid's joints are never held at once.
    """
    graphs = _identity_graphs(n_max, m_max, per_pair, seed)
    return _audit_checks(graphs, _anchor_joints(graphs, m_max, per_pair, seed))


def anchor_audit(n_max: int, m_max: int, per_pair: int = 5, seed: int = 0) -> list[JointCheck]:
    """Seeded non-trivial anchor checks across the same (n, m) grid: the whole of `anchor_checks`."""
    return list(anchor_checks(n_max, m_max, per_pair, seed))
