"""Exact primitives for finite simple graphs: construction, distances, and
the distance-based Gutman and Wiener indices.

Vertices are the integers 1..order.  Edges are unordered pairs stored in a
canonical form: each pair as (low, high), the whole list sorted
lexicographically.  All distances and index values are exact integers.

Distances come from one kernel with two paths, chosen from the input.  A
proper interval graph in index order (every closed neighbourhood an index
interval whose ends never decrease, as in the underlying graph of a linear
Jaco graph) gets its distances by counting greedy farthest-reach jumps, in
O(n^2 + n * diameter).  Every other graph takes layered breadth-first search
driven by dense matrix products, O(n^3 * diameter).  The products only feed
a positivity test and path counts never exceed the vertex count, far below
float32's exact-integer ceiling of 2**24, so both paths are exact.  A
graph's all-pairs matrix (-1 for an unreachable pair) is computed once, kept
on the graph and read through `all_pairs_distances`.  Index sums run in int64
when an a-priori bound shows that is safe and otherwise fall back to
arbitrary-precision Python integers.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class DisconnectedGraphError(ValueError):
    """An index that is only defined for connected graphs was requested."""


def _is_int(value: object) -> bool:
    """True for an int or a numpy integer; False for a bool and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_at_least(value: object, least: int, what: str) -> None:
    """Raise ValueError naming `value` unless it is an integer (not a bool) >= least."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{what} must be an integer, at least {least}, got {value!r}")


def _require_vertex(v: object, order: int, what: str = "vertex") -> None:
    """Raise ValueError unless v is an integer (not a bool) in 1..order."""
    if not _is_int(v) or not 1 <= v <= order:
        raise ValueError(f"{what} {v!r} is not an integer in 1..{order}")


def _integer_rows(edges: Iterable[Sequence[int]]) -> np.ndarray:
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) array of endpoint pairs, got shape {edges.shape}")
        return np.asarray(edges, dtype=np.int64)
    rows = []
    for row in edges:
        try:
            a, b = row
        except (TypeError, ValueError):
            raise ValueError(f"edge {row!r} is not a pair of endpoints") from None
        if not (_is_int(a) and _is_int(b)):
            raise ValueError(f"edge ({a!r}, {b!r}) has a non-integer endpoint")
        rows.append((a, b))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _canonical_edge_array(edges: Iterable[Sequence[int]], *, oriented: bool = False) -> np.ndarray:
    """Endpoint pairs as a (k, 2) int64 array with rows in lexicographic order.

    Endpoints must be integers; bools, floats and strings raise ValueError.
    Unless `oriented`, each pair becomes (low, high) and duplicates collapse.
    An oriented table keeps every row as given.  The rows are not checked
    against an order: `SimpleGraph` does that when the table is used.
    """
    rows = _integer_rows(edges)
    if not oriented:
        rows = np.sort(rows, axis=1)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    if not oriented:
        distinct = np.ones(len(rows), dtype=bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[distinct]
    return rows


class SimpleGraph:
    """Immutable undirected graph on vertices 1..order.

    The edge table is an int64 array of shape (size, 2) whose rows (a, b)
    satisfy 1 <= a < b <= order and strictly increase in lexicographic order,
    so no edge repeats.  The constructor checks this invariant and raises
    ValueError on a breach, on another dtype or shape, and on an order that
    is not a nonnegative integer (a bool is not one).  The passed table is
    frozen in place (made read-only) and owned by the graph from then on.
    `edge_list` materializes plain tuples for small-scale inspection.
    Degrees and the distance matrix are computed once, on first use, and kept
    read-only.
    """

    __slots__ = ("order", "_edges", "_degrees", "_dist")

    def __init__(self, order: int, edge_array: np.ndarray):
        if not _is_int(order) or order < 0:
            raise ValueError(f"order must be a nonnegative integer, got {order!r}")
        if not isinstance(edge_array, np.ndarray) or edge_array.dtype != np.int64 or edge_array.shape[1:] != (2,):
            got = getattr(edge_array, "dtype", type(edge_array).__name__), getattr(edge_array, "shape", "")
            raise ValueError(f"edge table must be an int64 array of shape (k, 2), got {got[0]} {got[1]}")
        a, b = edge_array[:, 0], edge_array[:, 1]
        rising = (a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))
        if not rising.all():
            k = int(rising.argmin())
            first, second = edge_array[k : k + 2].tolist()
            raise ValueError(f"edge {tuple(second)} follows {tuple(first)}; rows must strictly increase")
        # Rising rows have nondecreasing first endpoints, so a[0] is their minimum.
        if len(a) and (a[0] < 1 or b.max() > order or (a >= b).any()):
            row = edge_array[((a < 1) | (a >= b) | (b > order)).argmax()].tolist()
            raise ValueError(f"edge {tuple(row)} breaks 1 <= a < b <= {order}")
        edge_array.setflags(write=False)
        self.order = int(order)
        self._edges = edge_array
        self._degrees: np.ndarray | None = None
        self._dist: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self._edges.shape[0])

    @property
    def edge_array(self) -> np.ndarray:
        return self._edges

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(*self._edges.T.tolist()))

    def degree_array(self) -> np.ndarray:
        if self._degrees is None:
            deg = np.bincount(self._edges.ravel(), minlength=self.order + 1)[1:]
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.order == other.order and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self.order, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"SimpleGraph(order={self.order}, size={self.size})"


def from_edges(order: int, edges: Iterable[Sequence[int]]) -> SimpleGraph:
    """Build a graph from an order and an edge iterable.

    Duplicate edges (in either orientation) collapse to one; self-loops,
    out-of-range and non-integer endpoints raise ValueError.
    """
    return SimpleGraph(order, _canonical_edge_array(edges))


def degree(g: SimpleGraph, v: int) -> int:
    """Number of edges incident to vertex v."""
    _require_vertex(v, g.order)
    return int(g.degree_array()[v - 1])


def dense_adjacency(g: SimpleGraph) -> np.ndarray:
    """0/1 adjacency matrix as float32, indexed 0-based."""
    a = np.zeros((g.order, g.order), dtype=np.float32)
    if g.size:
        e = g.edge_array - 1
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
    return a


def _interval_reach(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(lo, hi) if `adj` is a proper interval graph in index order, else None.

    That holds when every closed neighbourhood is the index interval
    [lo[v], hi[v]], hi is nondecreasing, and lo[v] is the first vertex whose
    interval reaches v.  Given the first two, the third is equivalent to a
    symmetric `adj`, at O(n log n) instead of an n^2 transpose compare.
    """
    order = adj.shape[0]
    closed = adj > 0
    closed[np.diag_indices(order)] = True
    lo = closed.argmax(axis=1)
    hi = order - 1 - closed[:, ::-1].argmax(axis=1)
    if not np.array_equal(np.count_nonzero(closed, axis=1), hi - lo + 1):
        return None
    if (np.diff(hi) < 0).any():
        return None
    if not np.array_equal(lo, np.searchsorted(hi, np.arange(order))):
        return None
    return lo, hi


def _jump_counts(hi: np.ndarray) -> np.ndarray:
    """Distances from each vertex to every later vertex, by greedy hi jumps.

    Row a holds dist(a, b) for b > a, 0 at and before a, and -1 past a's
    component.  With p_0 = a and p_{k+1} = hi[p_k], the distance is the
    number of k with p_k < b: one mark per jump at column p_k + 1 and a
    cumulative sum along the row.
    """
    order = len(hi)
    counts = np.zeros((order, order), dtype=np.int32)
    rows = pos = np.arange(order)
    # A walk stops at a fixed point of hi: the last vertex of its component.
    # Columns past it are unreachable, so it needs no mark of its own.
    ends = np.empty_like(rows)
    while len(rows):
        jumped = hi[pos]
        moving = jumped > pos
        ends[rows[~moving]] = pos[~moving]
        rows, pos, jumped = rows[moving], pos[moving], jumped[moving]
        counts[rows, pos + 1] = 1
        pos = jumped
    np.cumsum(counts, axis=1, dtype=np.int32, out=counts)
    if (ends < order - 1).any():
        counts[np.arange(order) > ends[:, None]] = -1
    return counts


def layered_distance_matrix(adj: np.ndarray) -> np.ndarray:
    """Exact all-pairs distances of the graph with dense adjacency `adj`.

    Returns an int32 matrix with -1 encoding an unreachable pair.  Any
    positive entry of `adj` is an edge.

    The kernel is chosen from the input.  When the graph is a proper
    interval graph in index order (`_interval_reach`), as the underlying
    graph of every linear Jaco graph is, dist(a, b) for b > a is the number
    of greedy farthest-reach jumps from a that stay below b (Looges and
    Olariu 1993), filled in O(n^2 + n * diameter).  Every other graph takes
    layered breadth-first search: level k+1 is everything adjacent to the
    "reached within k" set, one float32 matrix product per level and
    eccentricity-many levels, O(n^3 * diameter).
    """
    order = adj.shape[0]
    if order == 0:
        # argmax, which the structure test uses, rejects an empty axis.
        return np.zeros((0, 0), dtype=np.int32)
    reach = _interval_reach(adj)
    if reach is not None:
        lo, hi = reach
        dist = _jump_counts(hi)
        # Distances to earlier vertices are the later-vertex distances of
        # the index-reversed graph, whose reach is the mirrored lo.  Filled
        # row by row like the first, this beats adding the transpose.
        dist += _jump_counts(order - 1 - lo[::-1])[::-1, ::-1]
        return dist
    dist = np.full((order, order), -1, dtype=np.int32)
    reached = adj > 0
    dist[reached] = 1
    diagonal = np.diag_indices(order)
    dist[diagonal] = 0
    reached[diagonal] = True
    level = 1
    while True:
        expanded = (reached.astype(np.float32) @ adj) > 0
        fresh = expanded & ~reached
        if not fresh.any():
            return dist
        level += 1
        dist[fresh] = level
        reached |= fresh


def all_pairs_distances(g: SimpleGraph) -> np.ndarray:
    """Exact distances between every vertex pair of `g`, computed once.

    A read-only int32 matrix indexed 0-based, with -1 for an unreachable
    pair.  The matrix is kept on the graph, so every later call returns it
    without running the kernel again.
    """
    if g._dist is None:
        dist = layered_distance_matrix(dense_adjacency(g))
        dist.setflags(write=False)
        g._dist = dist
    return g._dist


def is_connected(g: SimpleGraph) -> bool:
    """True iff vertex 1 reaches every vertex."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return bool((all_pairs_distances(g)[0] >= 0).all())


def _require_connected(dist: np.ndarray, what: str) -> np.ndarray:
    """Return `dist` if every entry is reachable, else raise naming `what`.

    An empty matrix (the order-0 graph) raises ValueError; an unreachable
    entry raises DisconnectedGraphError.
    """
    if dist.size == 0:
        raise ValueError(f"{what} is undefined for the empty graph")
    if (dist < 0).any():
        raise DisconnectedGraphError(
            f"{what} is defined for connected graphs only and this graph is disconnected"
        )
    return dist


_INT64_SAFE = 2**62


def _pair_sum(weights: np.ndarray, dist: np.ndarray) -> int:
    """Exact sum of w_a * w_b * d_ab over unordered pairs a < b.

    `dist` is a symmetric nonnegative matrix with a zero diagonal, so the
    ordered-pair total w . (dist w) is twice the answer.  That total runs in
    int64 when (sum |w|)^2 * max(dist) bounds it below _INT64_SAFE, and in
    Python integers otherwise.
    """
    w = np.asarray(weights, dtype=np.int64)
    if int(np.abs(w).sum()) ** 2 * int(dist.max()) < _INT64_SAFE:
        total = int(w @ (dist @ w))
    else:
        w = w.astype(object)
        total = int(w @ (dist.astype(object) @ w))
    if total % 2:
        raise ArithmeticError(f"ordered pair total {total} is odd; the distances are not symmetric")
    return total // 2


def gutman_index(g: SimpleGraph) -> int:
    """Sum of deg(u) * deg(v) * dist(u, v) over unordered vertex pairs."""
    return _pair_sum(g.degree_array(), _require_connected(all_pairs_distances(g), "the Gutman index"))


def wiener_index(g: SimpleGraph) -> int:
    """Sum of dist(u, v) over unordered vertex pairs."""
    return _pair_sum(np.ones(g.order, np.int64), _require_connected(all_pairs_distances(g), "the Wiener index"))


def induced_subgraph(
    g: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Subgraph induced on `vertices`, relabeled 1..k preserving index order.

    Returns (subgraph, mapping) where mapping[new - 1] is the original index
    of new vertex `new`.
    """
    vertices = list(vertices)
    for v in vertices:
        _require_vertex(v, g.order)
    mapping = tuple(sorted(set(int(v) for v in vertices)))
    lookup = np.zeros(g.order + 1, dtype=np.int64)
    lookup[list(mapping)] = np.arange(1, len(mapping) + 1)
    e = g.edge_array
    mask = (lookup[e[:, 0]] > 0) & (lookup[e[:, 1]] > 0)
    # The relabeling is monotone, so canonical ordering survives it.
    return SimpleGraph(len(mapping), np.ascontiguousarray(lookup[e[mask]])), mapping
