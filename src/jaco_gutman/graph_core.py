"""Exact primitives for finite simple graphs: construction, BFS distances,
and the distance-based Gutman and Wiener indices.

Vertices are the integers 1..order.  Edges are unordered pairs stored in a
canonical form: each pair as (low, high), the whole list sorted
lexicographically.  All distances and index values are exact integers;
unreachable pairs are reported through the UNREACHABLE sentinel, never as a
large finite number.

Distances come from layered breadth-first search driven by dense matrix
products.  The products only feed a positivity test and path counts never
exceed the vertex count, far below float32's exact-integer ceiling of 2**24,
so the results are exact.  Index sums run in int64 when an a-priori bound
shows that is safe and otherwise fall back to arbitrary-precision Python
integers.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class DisconnectedGraphError(ValueError):
    """An index that is only defined for connected graphs was requested."""


class _Unreachable:
    """Sentinel for pair distances in disconnected graphs.

    Deliberately supports no arithmetic: any attempt to add or multiply it
    raises TypeError, so an unreachable distance can never leak into a sum.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"

    def __bool__(self) -> bool:
        return False


UNREACHABLE = _Unreachable()


def _integer_rows(edges: Iterable[Sequence[int]]) -> np.ndarray:
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) array of endpoint pairs, got shape {edges.shape}")
        return np.asarray(edges, dtype=np.int64)
    rows = []
    for a, b in edges:
        if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in (a, b)):
            raise ValueError(f"edge ({a!r}, {b!r}) has a non-integer endpoint")
        rows.append((a, b))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _canonical_edge_array(
    order: int, edges: Iterable[Sequence[int]], *, oriented: bool = False
) -> np.ndarray:
    """Validated endpoint pairs as a read-only (k, 2) int64 array, rows sorted.

    Endpoints must be integers in 1..order; bools, floats and strings raise
    ValueError.  Unless `oriented`, each pair becomes (low, high), self-loops
    raise and duplicates collapse.  An oriented table keeps every row as
    given, for the caller to apply its own rules.
    """
    rows = _integer_rows(edges)
    outside = (rows < 1) | (rows > order)
    if outside.any():
        a, b = rows[outside.argmax() // 2]
        raise ValueError(f"endpoint out of range 1..{order}: ({a}, {b})")
    if not oriented:
        loops = rows[:, 0] == rows[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at vertex {rows[loops.argmax(), 0]} is not allowed")
        rows = np.sort(rows, axis=1)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    if not oriented:
        distinct = np.ones(len(rows), dtype=bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[distinct]
    rows.setflags(write=False)
    return rows


class SimpleGraph:
    """Immutable undirected graph on vertices 1..order.

    The edge table is kept as a read-only (size, 2) int64 array in canonical
    order, which keeps large graphs cheap; `edge_list` materializes plain
    tuples for small-scale inspection.
    """

    __slots__ = ("order", "_edges", "_degrees")

    def __init__(self, order: int, edge_array: np.ndarray):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        self._edges = edge_array
        self._degrees: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self._edges.shape[0])

    @property
    def edge_array(self) -> np.ndarray:
        return self._edges

    def edge_list(self) -> list[tuple[int, int]]:
        return [(int(a), int(b)) for a, b in self._edges]

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
    return SimpleGraph(order, _canonical_edge_array(order, edges))


def degree(g: SimpleGraph, v: int) -> int:
    """Number of edges incident to vertex v."""
    if not 1 <= v <= g.order:
        raise ValueError(f"vertex {v} out of range 1..{g.order}")
    return int(g.degree_array()[v - 1])


def dense_adjacency(g: SimpleGraph) -> np.ndarray:
    """0/1 adjacency matrix as float32, indexed 0-based."""
    a = np.zeros((g.order, g.order), dtype=np.float32)
    if g.size:
        e = g.edge_array - 1
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
    return a


def layered_distance_matrix(adj: np.ndarray, sources: Sequence[int] | None = None) -> np.ndarray:
    """BFS distances of the graph with dense adjacency `adj`.

    Returns an int32 matrix with -1 encoding an unreachable pair: all pairs,
    or with `sources` (0-based vertex indices) only the rows of those
    sources.  Level k+1 is everything adjacent to the "reached within k"
    set; one matrix product per level, eccentricity-many levels in total.
    """
    order = adj.shape[0]
    rows = np.arange(order) if sources is None else np.asarray(sources, dtype=np.intp)
    dist = np.full((len(rows), order), -1, dtype=np.int32)
    if dist.size == 0:
        return dist
    reached = (adj if sources is None else adj[rows]) > 0
    dist[reached] = 1
    diagonal = (np.arange(len(rows)), rows)
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


class DistanceMatrix:
    """Exact all-pairs distances with sentinel handling.

    `get(a, b)` returns an int for reachable pairs and UNREACHABLE otherwise.
    `raw` exposes the underlying int32 matrix (0-based, -1 for unreachable)
    for vectorized consumers.
    """

    __slots__ = ("order", "_dist")

    def __init__(self, order: int, dist: np.ndarray):
        self.order = order
        dist.setflags(write=False)
        self._dist = dist

    @property
    def raw(self) -> np.ndarray:
        return self._dist

    def get(self, a: int, b: int) -> int | _Unreachable:
        if not (1 <= a <= self.order and 1 <= b <= self.order):
            raise ValueError(f"vertex pair ({a}, {b}) out of range 1..{self.order}")
        value = int(self._dist[a - 1, b - 1])
        return UNREACHABLE if value < 0 else value

    def all_reachable(self) -> bool:
        return bool((self._dist >= 0).all())

    def to_lists(self) -> list[list[int | _Unreachable]]:
        return [
            [UNREACHABLE if v < 0 else int(v) for v in row]
            for row in self._dist.tolist()
        ]


def all_pairs_distances(g: SimpleGraph) -> DistanceMatrix:
    """Exact shortest-path distances between every vertex pair."""
    return DistanceMatrix(g.order, layered_distance_matrix(dense_adjacency(g)))


def is_connected(g: SimpleGraph) -> bool:
    """True iff a BFS from vertex 1 reaches every vertex."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return bool((layered_distance_matrix(dense_adjacency(g), sources=[0]) >= 0).all())


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
    dist = layered_distance_matrix(dense_adjacency(g))
    return _pair_sum(g.degree_array(), _require_connected(dist, "the Gutman index"))


def wiener_index(g: SimpleGraph) -> int:
    """Sum of dist(u, v) over unordered vertex pairs."""
    dist = layered_distance_matrix(dense_adjacency(g))
    return _pair_sum(np.ones(g.order, np.int64), _require_connected(dist, "the Wiener index"))


def induced_subgraph(
    g: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Subgraph induced on `vertices`, relabeled 1..k preserving index order.

    Returns (subgraph, mapping) where mapping[new - 1] is the original index
    of new vertex `new`.
    """
    keep = sorted(set(int(v) for v in vertices))
    for v in keep:
        if not 1 <= v <= g.order:
            raise ValueError(f"vertex {v} out of range 1..{g.order}")
    mapping = tuple(keep)
    if not keep:
        return SimpleGraph(0, np.empty((0, 2), np.int64)), mapping
    lookup = np.zeros(g.order + 1, dtype=np.int64)
    lookup[list(keep)] = np.arange(1, len(keep) + 1)
    e = g.edge_array
    if e.shape[0]:
        mask = (lookup[e[:, 0]] > 0) & (lookup[e[:, 1]] > 0)
        # The relabeling is monotone, so canonical ordering survives it.
        sub = np.ascontiguousarray(lookup[e[mask]])
    else:
        sub = np.empty((0, 2), np.int64)
    sub.setflags(write=False)
    return SimpleGraph(len(keep), sub), mapping
