"""The distance kernel's jump fill against dense BFS and the oracle.

`layered_distance_matrix` takes a reach hi (one-dimensional) to the greedy
jump fill, and a square adjacency matrix to layered BFS; no structure test
chooses between them.  Each reach here is also rendered as the same graph's
bool adjacency, and its jump fill is compared with that adjacency's BFS and
with the pure-Python BFS oracle.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import LinearFunction, SimpleGraph, build_jaco, from_edges, graph_core
from jaco_gutman.graph_core import dense_adjacency, layered_distance_matrix

from bruteforce import adjacency_from_edges, bfs_distances, slow_jaco_arcs
from test_graph_core import any_graphs, path


def reach_graph(hi):
    """The reach-backed graph of a 1-based reach, on a copy that the graph may freeze."""
    return SimpleGraph.from_reach(np.array(hi, dtype=np.int64))


def reach_from_arcs(order, arcs):
    """hi(v) = the largest head of v, or v itself, read from the arcs alone."""
    hi = list(range(1, order + 1))
    for a, b in arcs:
        hi[a - 1] = max(hi[a - 1], b)
    return hi


def oracle_matrix(order, edges):
    adj = adjacency_from_edges(order, edges)
    rows = []
    for s in range(order):
        reach = bfs_distances(adj, s + 1)
        rows.append([reach.get(v, -1) for v in range(1, order + 1)])
    return np.array(rows, dtype=np.int32).reshape(order, order)


def check_reach(hi, edges):
    """The jump fill of `hi` equals the BFS of its adjacency and the oracle of `edges`."""
    g = reach_graph(hi)
    jump, bfs = layered_distance_matrix(g.reach), layered_distance_matrix(dense_adjacency(g))
    # every graph here has diameter below 126, so both paths store int8
    assert jump.dtype == bfs.dtype == np.int8
    assert (jump == bfs).all()
    assert (jump == oracle_matrix(g.order, edges)).all()
    return jump


# m = 0 gives the disconnected families, and m = 0 = c the edgeless ones.
@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 40), st.data())
@settings(max_examples=150, deadline=None)
def test_jaco_graphs_and_prefixes(m, c, n, data):
    arcs = slow_jaco_arcs(m, c, n)
    hi = reach_from_arcs(n, arcs)
    assert build_jaco(LinearFunction(m, c), n).underlying.reach.tolist() == hi
    everything = check_reach(hi, arcs)
    k = data.draw(st.integers(1, n))
    prefix = np.minimum(hi[:k], k)
    # the order-k graph's distances are the leading block of the order-n ones
    assert (check_reach(prefix, [(a, b) for a, b in arcs if b <= k]) == everything[:k, :k]).all()


@st.composite
def interval_graphs(draw, max_order=14):
    """Edges i < j <= hi[i] for a random nondecreasing 0-based reach hi[i] >= i."""
    order = draw(st.integers(1, max_order))
    hi = []
    for i in range(order):
        hi.append(draw(st.integers(max(i, hi[-1] if hi else 0), order - 1)))
    edges = [(i + 1, j + 1) for i in range(order) for j in range(i + 1, hi[i] + 1)]
    return order, edges, hi


@given(interval_graphs())
@settings(max_examples=150, deadline=None)
def test_random_interval_graphs(ohe):
    order, edges, hi = ohe
    assert reach_from_arcs(order, edges) == [h + 1 for h in hi]
    check_reach([h + 1 for h in hi], edges)


# The jump fill's cumulative sum and mirror work in blocks of rows.  Small blocks put block edges inside
# these orders, and order 300 crosses the default block.
@pytest.mark.parametrize("rows", [1, 3, 7, None])
@pytest.mark.parametrize("m, c, n", [(1, 0, 40), (2, 1, 33), (0, 3, 29), (0, 0, 9), (1, 0, 300), (0, 2, 300)])
def test_mirror_blocks(rows, m, c, n, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(graph_core, "_BLOCK_ROWS", rows)
    arcs = slow_jaco_arcs(m, c, n)
    g = build_jaco(LinearFunction(m, c), n).underlying
    adj = dense_adjacency(g)
    assert np.array_equal(adj, dense_adjacency(from_edges(n, arcs)))
    dist = layered_distance_matrix(g.reach)
    assert (dist == layered_distance_matrix(adj)).all()
    if n <= 40:
        assert (dist == oracle_matrix(n, arcs)).all()


@given(any_graphs())
@settings(max_examples=150, deadline=None)
def test_random_graphs(ge):
    order, edges = ge
    dist = layered_distance_matrix(dense_adjacency(from_edges(order, edges)))
    assert dist.dtype == np.int8
    assert (dist == oracle_matrix(order, edges)).all()


def test_empty_graph_has_an_empty_matrix():
    for empty in (np.zeros((0, 0), dtype=np.float32), np.zeros(0, dtype=np.int64)):
        dist = layered_distance_matrix(empty)
        assert dist.shape == (0, 0) and dist.dtype == np.int8


# Near misses of a proper interval graph in index order, each breaking a
# different one of its three conditions.  As adjacencies they take the BFS,
# which rejects an asymmetric matrix (None) instead of returning directed
# distances; with symmetric rows that are intervals hi never decreases, so
# that near miss is asymmetric too.
NEAR_MISSES = {
    "asymmetric": ([[0, 1], [0, 0]], None),
    "row with a gap": (
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
        [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]],
    ),
    "hi decreasing": ([[0, 1, 1], [1, 0, 0], [0, 0, 0]], None),
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_misses_take_the_bfs(name):
    matrix, expected = NEAR_MISSES[name]
    adj = np.array(matrix, dtype=np.float32)
    if expected is None:
        with pytest.raises(ValueError, match=r"must be symmetric, but entries \(0, \d\) and \(\d, 0\) differ"):
            layered_distance_matrix(adj)
    else:
        assert layered_distance_matrix(adj).tolist() == expected


def path_reach(order):
    """The reach-backed path 1 - 2 - ... - order."""
    return reach_graph(np.minimum(np.arange(2, order + 2), order))


KERNELS = {
    "jump": lambda g: layered_distance_matrix(g.reach),
    "bfs": lambda g: layered_distance_matrix(dense_adjacency(g)),
}


# A matrix is stored in the smallest signed type that holds its largest
# distance + 1: a path of order 127 has diameter 126 and fits int8, order 128
# has diameter 127 and needs int16.  Both paths of the kernel follow the rule.
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=list(KERNELS))
@pytest.mark.parametrize("order, dtype", [(127, np.int8), (128, np.int16)])
def test_distance_type_at_the_int8_edge(kernel, order, dtype):
    dist = kernel(path_reach(order))
    assert dist.dtype == dtype
    v = np.arange(order)
    assert (dist == abs(v[:, None] - v)).all()
    # every distance + 1 still fits the type, so a consumer adding 1 cannot wrap
    assert (dist + 1)[0, -1] == order


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=list(KERNELS))
@pytest.mark.parametrize("order, dtype", [(127, np.int8), (128, np.int16)])
def test_unreachable_pairs_read_minus_one_in_every_type(kernel, order, dtype):
    # a path plus one isolated vertex: the diameter of the path sets the type
    dist = kernel(reach_graph([*range(2, order + 1), order, order + 1]))
    assert dist.dtype == dtype
    assert (dist[order, :order] == -1).all() and (dist[:order, order] == -1).all()
    assert dist[order, order] == 0 and dist[0, order - 1] == order - 1


# A one-dimensional input is a reach, checked in test_malformed_reach_raises.
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (), (2, 2, 3), (1, 2, 2, 2), (2, 2, 2)])
def test_non_square_adjacency_raises(shape):
    message = f"adjacency must be a square matrix, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        layered_distance_matrix(np.zeros(shape, dtype=bool))


MALFORMED_REACHES = {
    "decreasing": np.array([3, 2, 3], dtype=np.int64),
    "below its vertex": np.array([2, 1, 3], dtype=np.int64),
    "past the order": np.array([2, 4, 3], dtype=np.int64),
    "int32": np.array([2, 3, 3], dtype=np.int32),
    "bool (4,)": np.zeros(4, dtype=bool),
}


@pytest.mark.parametrize("name", MALFORMED_REACHES)
def test_malformed_reach_raises(name):
    hi = MALFORMED_REACHES[name]
    with pytest.raises(ValueError) as from_reach:
        SimpleGraph.from_reach(hi.copy())
    with pytest.raises(ValueError, match=re.escape(str(from_reach.value))):
        layered_distance_matrix(hi)
    assert str(from_reach.value).startswith("reach ")


def test_kernel_leaves_a_reach_as_it_is():
    hi = np.array([2, 3, 3], dtype=np.int64)
    dist = layered_distance_matrix(hi)
    assert dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert hi.flags.writeable and hi.tolist() == [2, 3, 3]


def test_asymmetric_adjacency_raises_naming_an_entry():
    adj = dense_adjacency(path(6))
    adj[4, 1] = True
    with pytest.raises(ValueError, match=re.escape("entries (1, 4) and (4, 1) differ")):
        layered_distance_matrix(adj)
