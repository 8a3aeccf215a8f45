"""Exact primitives for finite simple graphs: construction, distances, and
the distance-based Gutman and Wiener indices.

Vertices are the integers 1..order.  Edges are unordered pairs stored in a
canonical form: each pair as (low, high), the whole list sorted
lexicographically.  A proper interval graph in index order can instead be
held as its reach array hi, the top of each closed neighbourhood
(`SimpleGraph.from_reach`): its size and degrees come from hi, and its edge
table is built only when read.  All distances and index values are exact
integers.

Distances come from one kernel with two paths, and the shape of its input
picks the path; nothing tests the graph's structure.  A reach array hi
describes a proper interval graph in index order (every closed neighbourhood
an index interval whose ends never decrease, as in the underlying graph of a
linear Jaco graph), whose distances are counted as greedy farthest-reach
jumps, in O(n^2 + n * diameter).  A square adjacency matrix takes layered
breadth-first search driven by dense float32 matrix products, O(n^3 *
diameter).  The products and level counts never exceed the vertex count, far
below float32's exact-integer ceiling of 2**24, so both paths are exact.
Either path stores its matrix (-1 for an unreachable pair) in the smallest
signed integer type that holds the largest distance + 1.  A linear Jaco
graph's diameter grows logarithmically (17 for J_4000(x)), so its matrix is
int8, and the jump path builds no other n x n array: its distances cost
about 1 byte a vertex pair.  The BFS holds four
float32 n x n buffers, about 17 bytes a pair.  `all_pairs_distances` is the
one place that picks the input from the graph's backing: its reach, else its
bool adjacency.  A graph's all-pairs matrix, its Gutman index and its
degree-distance sums (`degree_distance_sums`) are computed once and kept
on the graph.

Connectivity has one gate, `_require_connected(g, what)`.  It reads the
component sizes (`_component_sizes`), O(n) from a reach and O(n + m) per
hooking round from an edge table, and forms no distance.  Every index,
audit and table that needs a connected graph asks it once, before any
distance kernel runs: the empty graph fails with ValueError and a
disconnected graph with DisconnectedGraphError, each naming what was asked.

The Gutman and Wiener indices and the degree-distance sums of a
reach-backed graph read no matrix at all.  The greedy jump count turns
their sums into sums over the forest of hi (`_forest_sums`): O(n) numpy per
pointer-doubling round, log2(diameter) rounds, O(n) memory: about 0.1 s
for the index of J_1000000(x) on a 2-vCPU Xeon VM.
Any other graph multiplies its all-pairs matrix by the weights
(`_row_sums`), in int64 when one checked bound allows it and in Python
integers otherwise.  Every index total is then one exact dot product
(`_exact_dot`), which cuts its int64 operand into limbs narrow enough that
no limb's products overflow and adds the limb sums as Python integers.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class DisconnectedGraphError(ValueError):
    """An index that is only defined for connected graphs was requested."""


class StructureAssumptionViolated(RuntimeError):
    """A structural assumption that an exact fast path relies on does not hold."""


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


def _check_table(order: int, edge_array: np.ndarray) -> np.ndarray:
    """Check the edge-table invariant of `SimpleGraph`, then freeze the table in place.

    Raises ValueError on another dtype or shape, on rows that do not strictly
    increase, and on a row outside 1 <= a < b <= order.
    """
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
    return edge_array


def _arc_table(reach: np.ndarray) -> np.ndarray:
    """The table in which vertex i is joined to i + 1..reach[i - 1].

    A reach at or below its vertex contributes no rows.  Rows come out in
    lexicographic order, each as (low, high).
    """
    tails_base = np.arange(1, len(reach) + 1, dtype=np.int64)
    counts = np.maximum(reach - tails_base, 0)
    tails = np.repeat(tails_base, counts)
    starts = np.cumsum(counts) - counts
    heads = np.arange(len(tails), dtype=np.int64) - np.repeat(starts, counts) + tails + 1
    return np.column_stack((tails, heads))


def _check_reach(hi: np.ndarray) -> None:
    """Check a reach array (see `SimpleGraph.from_reach`) in O(n), leaving it as it is.

    Raises ValueError on another dtype or shape, and otherwise names the
    first vertex whose hi breaks v <= hi(v) <= n or falls below its
    predecessor's.
    """
    if not isinstance(hi, np.ndarray) or hi.dtype != np.int64 or hi.ndim != 1:
        got = getattr(hi, "dtype", type(hi).__name__), getattr(hi, "shape", "")
        raise ValueError(f"reach must be a one-dimensional int64 array, got {got[0]} {got[1]}")
    order = len(hi)
    v = np.arange(1, order + 1)
    bad = (hi < v) | (hi > order)
    bad[1:] |= hi[1:] < hi[:-1]
    if bad.any():
        k = int(bad.argmax())
        value = int(hi[k])
        if k + 1 <= value <= order:
            raise ValueError(f"reach of vertex {k + 1} is {value}, below {int(hi[k - 1])}, the reach of vertex {k}")
        raise ValueError(f"reach of vertex {k + 1} is {value}, outside {k + 1}..{order}")


class SimpleGraph:
    """Immutable undirected graph on vertices 1..order.

    A graph is backed by one of two descriptions.

    * An edge table: an int64 array of shape (size, 2) whose rows (a, b)
      satisfy 1 <= a < b <= order and strictly increase in lexicographic
      order, so no edge repeats.  The constructor checks this invariant and
      raises ValueError on a breach, on another dtype or shape, and on an
      order that is not a nonnegative integer (a bool is not one).  The
      passed table is frozen in place (made read-only) and owned by the
      graph from then on.
    * A reach array (`from_reach`), for a proper interval graph in index
      order such as the underlying graph of a linear Jaco graph: the closed
      neighbourhood of v is [lo(v), hi(v)], with lo(v) the first u whose
      hi(u) >= v.  Size and degrees come from hi in O(n), and the edge table
      is built from it on first access, through the same check.

    `edge_list` materializes plain tuples for small-scale inspection.
    Degrees, the distance matrix, the Gutman index and the degree-distance
    sums are computed once, on first use, and kept read-only; the counts of
    neighbours below and above are derived per call.
    """

    __slots__ = ("order", "_edges", "_hi", "_lo", "_degrees", "_dist", "_gutman", "_degree_distances")

    def __init__(self, order: int, edge_array: np.ndarray):
        if not _is_int(order) or order < 0:
            raise ValueError(f"order must be a nonnegative integer, got {order!r}")
        self._edges: np.ndarray | None = _check_table(order, edge_array)
        self._hi: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        self.order = int(order)
        self._degrees: tuple[np.ndarray, int] | None = None
        self._dist: np.ndarray | None = None
        self._gutman: int | None = None
        self._degree_distances: np.ndarray | None = None

    @classmethod
    def from_reach(cls, hi: np.ndarray) -> SimpleGraph:
        """The graph on 1..n whose vertex v is joined to v + 1..hi[v - 1].

        `hi` is a one-dimensional int64 array of length n with
        v <= hi(v) <= n, nondecreasing; it is checked in O(n), frozen in
        place and owned by the graph.  A nondecreasing hi makes every closed
        neighbourhood an index interval.
        """
        _check_reach(hi)
        hi.setflags(write=False)
        g = cls.__new__(cls)
        g._hi = hi
        g._edges = g._lo = None
        g.order = len(hi)
        g._degrees = g._dist = g._gutman = g._degree_distances = None
        return g

    @property
    def reach(self) -> np.ndarray | None:
        """hi(v) for v = 1..order when the graph is reach-backed, else None."""
        return self._hi

    @property
    def lo(self) -> np.ndarray | None:
        """lo(v), the first u with hi(u) >= v, for v = 1..order when the graph is reach-backed, else None."""
        if self._lo is None and self._hi is not None:
            # u is lo(v) for the hi(u) - hi(u - 1) vertices v in (hi(u - 1), hi(u)].
            self._lo = np.repeat(np.arange(1, self.order + 1), np.diff(self._hi, prepend=0))
            self._lo.setflags(write=False)
        return self._lo

    @property
    def size(self) -> int:
        """Edge count: the table's row count, or half the kept degree total of a reach-backed graph."""
        if self._hi is not None:
            self.degree_array()
            return self._degrees[1] // 2
        return int(self._edges.shape[0])

    @property
    def edge_array(self) -> np.ndarray:
        if self._edges is None:
            self._edges = _check_table(self.order, _arc_table(self._hi))
        return self._edges

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(*self.edge_array.T.tolist()))

    def degree_array(self) -> np.ndarray:
        """deg(v) for v = 1..order, kept read-only with its total: hi(v) - lo(v), or a bincount of the table."""
        if self._degrees is None:
            if self._hi is not None:
                degree = self._hi - self.lo
            else:
                degree = np.bincount(self._edges.ravel(), minlength=self.order + 1)[1:]
            degree.setflags(write=False)
            self._degrees = (degree, int(degree.sum()))
        return self._degrees[0]

    def split_degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex counts of the neighbours below and above each vertex, derived on each call."""
        return self.half_degree_array(above=False), self.half_degree_array(above=True)

    def half_degree_array(self, above: bool) -> np.ndarray:
        """Per-vertex counts of the neighbours u > v if `above`, else of those u < v, derived on each call.

        hi(v) - v or v - lo(v) from reach, computed in one array of n
        entries, else a bincount of one table column.
        """
        if self._hi is not None:
            counts = np.arange(1, self.order + 1)
            if above:
                return np.subtract(self._hi, counts, out=counts)
            counts -= self.lo
            return counts
        return np.bincount(self._edges[:, 0 if above else 1], minlength=self.order + 1)[1:]

    def half_degree(self, v: int, above: bool) -> int:
        """The count of v's neighbours u > v if `above`, else of those u < v: one entry of a reach."""
        if self._hi is not None:
            return int(self._hi[v - 1]) - int(v) if above else int(v) - int(self.lo[v - 1])
        return int(np.count_nonzero(self._edges[:, 0 if above else 1] == v))

    def __eq__(self, other: object) -> bool:
        """Same order and edges.  Two reach-backed graphs compare reaches, so neither builds its table."""
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        if self.order != other.order or self.size != other.size:
            return False
        if self._hi is not None and other._hi is not None:
            return np.array_equal(self._hi, other._hi)
        return np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        # Equal graphs of either backing share order and size.
        return hash((self.order, self.size))

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


# Rows per block for the row-wise passes over an n x n matrix, so that no
# full-size temporary is ever built next to it.
_BLOCK_ROWS = 256


def _row_blocks(order: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of at most _BLOCK_ROWS consecutive rows."""
    for start in range(0, order, _BLOCK_ROWS):
        yield start, min(start + _BLOCK_ROWS, order)


def dense_adjacency(g: SimpleGraph) -> np.ndarray:
    """Adjacency matrix as bool, indexed 0-based, scattered from the edge table.

    It serves the BFS input of a table-backed graph.  Distances of a
    reach-backed graph come from its reach and never need this matrix; asked
    for one anyway, such a graph builds its edge table first.
    """
    a = np.zeros((g.order, g.order), dtype=bool)
    e = g.edge_array - 1
    a[e[:, 0], e[:, 1]] = True
    a[e[:, 1], e[:, 0]] = True
    return a


def _distance_dtype(longest: int) -> np.dtype:
    """The smallest signed integer type that holds `longest` + 1.

    `longest` is the largest finite distance of a matrix.  The headroom of
    one lets a consumer add 1 to any distance without leaving the type, and
    -1, the unreachable mark, fits every signed type.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if longest < np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _jump_counts(hi: np.ndarray) -> np.ndarray:
    """All-pairs distances of a proper interval graph in index order, by greedy hi jumps.

    `hi` is the reach, 0-based: vertex a is joined to a + 1..hi[a].  With
    p_0 = a and p_{k+1} = hi[p_k], dist(a, b) for b > a is the number of k
    with p_k < b: one mark per jump at column p_k + 1 and a cumulative sum
    along the row.  Columns past the end of a's component read -1, and
    the lower triangle mirrors the upper one.

    hi never decreases, so within a component the walk from its first vertex
    is the longest, and its length is the largest distance.  Those walks run
    first, chained in O(n) steps: a walk stops at a fixed point of hi, the
    last vertex of its component, and the next component starts one vertex
    on.  The matrix is then allocated once in the type `_distance_dtype`
    picks and filled in place, block by block of rows.
    """
    order = len(hi)
    longest = jumps = p = 0
    while p < order - 1:
        if hi[p] > p:
            p, jumps = int(hi[p]), jumps + 1
            longest = max(longest, jumps)
        else:
            p, jumps = p + 1, 0
    dist = np.zeros((order, order), dtype=_distance_dtype(longest))
    v = rows = pos = np.arange(order)
    ends = np.empty_like(rows)
    while len(rows):
        jumped = hi[pos]
        moving = jumped > pos
        ends[rows[~moving]] = pos[~moving]
        rows, pos, jumped = rows[moving], pos[moving], jumped[moving]
        # Columns past a walk's end are unreachable, so the end needs no mark.
        dist[rows, pos + 1] = 1
        pos = jumped
    split = (ends < order - 1).any()
    # Rows above a block are final before the block mirrors them, so the
    # mirror never needs a second n x n matrix.
    for start, stop in _row_blocks(order):
        block = dist[start:stop]
        np.cumsum(block, axis=1, dtype=dist.dtype, out=block)
        if split:
            block[v > ends[start:stop, None]] = -1
        block[:, :start] = dist[:start, start:stop].T
        square = block[:, start:stop]
        square += np.tril(square.T, -1)
    return dist


def layered_distance_matrix(adj: np.ndarray) -> np.ndarray:
    """Exact all-pairs distances of the graph given by a reach or by its adjacency.

    Returns a matrix with -1 encoding an unreachable pair, in the smallest
    signed integer type that holds the largest distance + 1
    (`_distance_dtype`): int8 up to diameter 126, int16 up to 32766.

    The shape of `adj` picks the path, and no structure test runs.  A
    one-dimensional input is a reach hi, 1-based as in `SimpleGraph.reach`:
    vertex v is joined to v + 1..hi(v).  It is checked by the rules of
    `SimpleGraph.from_reach`, which raises ValueError on a breach and leaves
    the array as it is.  For b > a, dist(a, b) is the number of greedy
    farthest-reach jumps from a that stay below b (Looges and Olariu 1993),
    filled in O(n^2 + n * diameter) at about 1 byte a vertex pair, and
    dist(b, a) is its mirror image.

    A square (k, k) adjacency takes layered breadth-first search
    (`_layered_bfs`), O(k^3 * diameter).  Any nonzero entry is an edge; a
    bool matrix is the usual input.  Any other shape raises ValueError, and
    so does an asymmetric matrix, naming the pair.
    """
    if adj.ndim == 1:
        _check_reach(adj)
        return _jump_counts(adj - 1)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be a square matrix, got shape {adj.shape}")
    if adj.size == 0:
        return np.zeros(adj.shape, dtype=_distance_dtype(0))
    return _layered_bfs(adj)


def _layered_bfs(adj: np.ndarray) -> np.ndarray:
    """Distances of a nonempty (k, k) adjacency by growing balls.

    The ball of radius r + 1 is everything adjacent to or inside the ball of
    radius r: one float32 matrix product per radius into a reused buffer,
    clipped to 0/1.  The radii stop when no ball grows.  A pair's distance is
    the number of balls that miss it, counted in float32 and cast once at the
    end; a radius past a vertex's eccentricity adds one ball to the count and
    one hit to each pair it reached, so it leaves those distances unchanged.
    The products and counts never exceed the vertex count, far below
    float32's exact-integer ceiling of 2**24, so the result is exact.  Four float32 buffers of the input's
    shape are live at once, about 17 bytes a vertex pair.
    """
    step = np.not_equal(adj, 0, out=np.empty(adj.shape, dtype=np.float32))
    if not np.array_equal(step, step.T):
        a, b = np.argwhere(step != step.T)[0].tolist()
        raise ValueError(f"adjacency must be symmetric, but entries ({a}, {b}) and ({b}, {a}) differ")
    # step is A + I, so a ball times step is the ball one radius larger.
    np.fill_diagonal(step, 1)
    ball = step.copy()
    # hits counts how many of the balls so far, of radius 0, 1, ..., hold each pair.
    hits = step.copy()
    np.fill_diagonal(hits, 2)
    balls = 2
    grown = np.empty_like(ball)
    # Balls only grow, so the total count stands still exactly when no ball
    # grows.  Every ball entry is +0.0 or 1.0, so its int32 view has the same
    # nonzero entries and counts about three times as fast.
    reached = np.count_nonzero(ball.view(np.int32))
    while True:
        np.matmul(ball, step, out=grown)
        np.minimum(grown, 1, out=grown)
        count = np.count_nonzero(grown.view(np.int32))
        if count == reached:
            break
        ball, grown, reached = grown, ball, count
        hits += ball
        balls += 1
    # Free two of the four buffers before the cast allocates the result.
    del step, grown
    # A reached pair is missed by balls - hits of the balls; an unreached one reads -1.
    np.subtract(balls + 1, hits, out=hits)
    hits *= ball
    hits -= 1
    return hits.astype(_distance_dtype(int(hits.max())))


def all_pairs_distances(g: SimpleGraph) -> np.ndarray:
    """Exact distances between every vertex pair of `g`, computed once.

    A read-only matrix indexed 0-based, with -1 for an unreachable pair, in
    the smallest signed integer type that holds the largest distance + 1
    (int8 up to diameter 126), so adding 1 to any entry cannot wrap; sums
    and products over it must widen first.  This is the one place where the
    graph's backing picks the kernel's path: a reach-backed graph passes its
    reach to the jump fill, at about 1 byte a vertex pair and with no
    adjacency, and any other graph passes its bool adjacency to the BFS.
    The matrix is kept on the graph, so every later call returns it without
    running the kernel again.
    """
    if g._dist is None:
        dist = layered_distance_matrix(g.reach if g.reach is not None else dense_adjacency(g))
        dist.setflags(write=False)
        g._dist = dist
    return g._dist


def _component_sizes(g: SimpleGraph) -> np.ndarray:
    """Orders of the connected components of `g` (order at least 1), by lowest vertex.

    A reach-backed graph reads them in O(n) from the fixed points
    hi(v) = v: hi never decreases, so each component is an index interval
    ending at one.  Any other graph labels each vertex with the lowest vertex
    of its component, from its edge table and without any distance.  The
    labels are parent pointers that only ever decrease.  In each round every
    edge whose endpoints carry two labels hooks the larger label under the
    smaller one, and pointer jumping then points every vertex at its root
    again.  A round is O(n + m) plus the jumps, and rounds repeat until no
    edge joins two labels.
    """
    if g.reach is not None:
        ends = np.flatnonzero(g.reach == np.arange(1, g.order + 1)) + 1
        return np.diff(ends, prepend=0)
    labels = np.arange(g.order)
    a, b = g.edge_array.T - 1
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            counts = np.bincount(labels, minlength=g.order)
            return counts[counts > 0]
        np.minimum.at(labels, np.maximum(la, lb)[split], np.minimum(la, lb)[split])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def is_connected(g: SimpleGraph) -> bool:
    """True iff vertex 1 reaches every vertex."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return len(_component_sizes(g)) == 1


def _connectivity_error(what: str, order: int) -> ValueError:
    """The error for `what` of a graph that is empty (order 0) or else disconnected."""
    if order == 0:
        return ValueError(f"{what} is undefined for the empty graph")
    return DisconnectedGraphError(f"{what} is defined for connected graphs only and this graph is disconnected")


def _require_connected(g: SimpleGraph, what: str) -> None:
    """The one connectivity gate: raise naming `what` unless `g` is connected.

    It reads `_component_sizes`, which forms no distance, so every caller
    asks it before any distance kernel runs.  The empty graph raises
    ValueError and a disconnected one DisconnectedGraphError.
    """
    if len(_component_sizes(g)) != 1:
        raise _connectivity_error(what, g.order)


_INT64_SAFE = 2**62


def _row_sums(dist: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dist @ w for a nonnegative (k, k) matrix and nonnegative int64 weights of length k.

    Every sum is at most max(dist) * sum(w), so the sums run in int64,
    without an int64 copy of `dist`, when that bound is below _INT64_SAFE,
    and in Python integers (dtype object) otherwise.
    """
    if int(dist.max()) * int(w.sum()) < _INT64_SAFE:
        return np.einsum("ij,j->i", dist, w, dtype=np.int64)
    return dist.astype(object) @ w.astype(object)


def _pair_sum(weights: np.ndarray, dist: np.ndarray) -> int:
    """Exact sum of w_a * w_b * d_ab over unordered pairs a < b of one graph.

    `weights` has shape (k,) and `dist` (k, k).  The matrix is symmetric and
    nonnegative with a zero diagonal, so the ordered-pair total
    w . (dist w), `_exact_dot` of w and `_row_sums`, is twice the answer.
    An odd total raises ArithmeticError.
    """
    w = np.asarray(weights, dtype=np.int64)
    return _halve(_exact_dot(w, _row_sums(dist, w)))


def _halve(total: int) -> int:
    """Half of an ordered-pair total, which counts every unordered pair twice.

    An odd total raises ArithmeticError: the distances are not symmetric.
    """
    if total % 2:
        raise ArithmeticError(f"ordered pair total {total} is odd; the distances are not symmetric")
    return total // 2


def _exact_dot(w: np.ndarray, c: np.ndarray, starts: np.ndarray | None = None) -> int | list[int]:
    """Exact dot product of a nonnegative int64 vector w and a nonnegative vector c of one length.

    Without `starts` it returns the product over the whole length.  With
    `starts`, which rises from 0, it returns one product per consecutive
    segment, each running from its start to the next start or the end.

    c is int64, or Python integers (dtype object), whose products run in
    Python integers.  An int64 c is cut into limbs of b bits, the most for
    which len(w) * max(w) * 2^b stays within _INT64_SAFE, so the products of
    w with one limb sum exactly in int64 over any segment, by one
    `np.add.reduceat` per limb, and the shifted limb sums add up as Python
    integers.  A c under that bound takes one limb; with no room for a
    single bit, the products run in Python integers.
    """
    cuts = [0] if starts is None else starts
    bits = _INT64_SAFE.bit_length() - 1 - (len(w) * int(w.max())).bit_length()
    if bits < 1 or c.dtype == object:
        dots = np.add.reduceat(w.astype(object) * c.astype(object), cuts)
    else:
        dots = np.zeros(len(cuts), dtype=object)
        for shift in range(0, int(c.max()).bit_length(), bits):
            dots += np.add.reduceat(w * ((c >> shift) & ((1 << bits) - 1)), cuts).astype(object) << shift
    return int(dots[0]) if starts is None else dots.tolist()


def _forest_sums(hi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """C(a) = sum of w(b) * dist(a, b) over b > a, for every vertex a of a connected reach-backed graph.

    `hi` is the reach, 1-based as in `SimpleGraph.reach`, and `w` holds
    nonnegative int64 weights.  hi must have no fixed point below n: the
    graph is connected.  A fixed point would stop the walks short of n, and
    the rounds below would never end.

    For a < b, dist(a, b) is the number of k >= 0 with hi^k(a) < b (the
    greedy jumps that `_jump_counts` counts), so C(a) = sum_k S(hi^k(a)),
    where S(x) is the weight of the vertices above x.  The walk ends at n,
    where S is 0.  C comes from pointer doubling over the forest of hi: acc
    starts as S and P as hi, and each round adds acc[P] to acc and replaces
    P by P[P], so after r rounds acc(a) holds the walk's first 2^r terms.  hi
    and so P never decrease, so P has reached n everywhere once P(1) has,
    after ceil(log2(diameter)) rounds.  Memory and time per round are O(n),
    and no distance, adjacency or edge is formed.

    acc(a) after r rounds sums at most 2^r values of S, each at most sum(w),
    so it runs in int64 while 2^r * sum(w) is below _INT64_SAFE, and in
    Python integers (dtype object) from the first round where it is not.
    """
    order = len(hi)
    total = int(w.sum())
    terms = 1
    acc = total - np.cumsum(w if total < _INT64_SAFE else w.astype(object))
    jump = hi - 1
    while jump[0] < order - 1:
        terms *= 2
        if terms * total >= _INT64_SAFE:
            acc = acc.astype(object, copy=False)
        acc += acc[jump]
        jump = jump[jump]
    return acc


def _index(g: SimpleGraph, w: np.ndarray, what: str) -> int:
    """Exact sum of w_u * w_v * dist(u, v) over the unordered vertex pairs of a connected graph.

    The gate (`_require_connected`) runs first, so the empty graph raises
    ValueError and a disconnected one DisconnectedGraphError, each naming
    `what`, before any distance is formed.  A reach-backed graph then takes
    the `_exact_dot` of w and its `_forest_sums` in O(n) memory, without its
    distance matrix, and any other graph sums its all-pairs matrix with
    `_pair_sum`.
    """
    _require_connected(g, what)
    if g.reach is None:
        return _pair_sum(w, all_pairs_distances(g))
    return _exact_dot(w, _forest_sums(g.reach, w))


def gutman_index(g: SimpleGraph) -> int:
    """Sum of deg(u) * deg(v) * dist(u, v) over unordered vertex pairs.

    A reach-backed graph sums over its jump forest and never fills its
    distance matrix; any other graph sums its all-pairs distances.  Computed
    once and kept on the graph.
    """
    if g._gutman is None:
        g._gutman = _index(g, g.degree_array(), "the Gutman index")
    return g._gutman


def degree_distance_sums(g: SimpleGraph) -> np.ndarray:
    """T(v) = sum over x of deg(x) * dist(v, x), for every vertex v of a connected graph.

    A read-only vector indexed 0-based, computed once and kept on the graph.
    A reach-backed graph sums over its jump forest with no matrix: the part
    over x > v is `_forest_sums` of its reach, and the part over x < v is
    the same sum over the graph read backwards, whose reach at position p is
    n + 1 - lo(n + 1 - p).  Any other graph multiplies its all-pairs matrix
    by its degrees (`_row_sums`).  T is int64, or Python integers where the
    sums outgrow int64.  The gate (`_require_connected`) runs first: the
    empty graph raises ValueError and a disconnected one
    DisconnectedGraphError, before any distance is formed.
    """
    if g._degree_distances is None:
        _require_connected(g, "the degree-distance sums")
        w = g.degree_array()
        if g.reach is None:
            t = _row_sums(all_pairs_distances(g), w)
        else:
            backwards = (g.order + 1 - g.lo)[::-1]
            t = _forest_sums(g.reach, w) + _forest_sums(backwards, w[::-1])[::-1]
        t.setflags(write=False)
        g._degree_distances = t
    return g._degree_distances


def wiener_index(g: SimpleGraph) -> int:
    """Sum of dist(u, v) over unordered vertex pairs.

    A reach-backed graph sums over its jump forest and never fills its
    distance matrix; any other graph sums its all-pairs distances.
    """
    return _index(g, np.ones(g.order, np.int64), "the Wiener index")


def induced_subgraph(
    g: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Subgraph induced on `vertices`, relabeled 1..k preserving index order.

    Returns (subgraph, mapping) where mapping[new - 1] is the original index
    of new vertex `new`.  A contiguous range [s, e] of a reach-backed graph
    gives a reach-backed subgraph, without reading the edge table: each
    vertex keeps its neighbours up to min(hi(v), e).
    """
    vertices = list(vertices)
    for v in vertices:
        _require_vertex(v, g.order)
    mapping = tuple(sorted(set(int(v) for v in vertices)))
    if g.reach is not None and (not mapping or mapping[-1] - mapping[0] + 1 == len(mapping)):
        s, e = (mapping[0], mapping[-1]) if mapping else (1, 0)
        return SimpleGraph.from_reach(np.minimum(g.reach[s - 1 : e], e) - (s - 1)), mapping
    lookup = np.zeros(g.order + 1, dtype=np.int64)
    lookup[list(mapping)] = np.arange(1, len(mapping) + 1)
    e = g.edge_array
    mask = (lookup[e[:, 0]] > 0) & (lookup[e[:, 1]] > 0)
    # The relabeling is monotone, so canonical ordering survives it.
    return SimpleGraph(len(mapping), np.ascontiguousarray(lookup[e[mask]])), mapping
