"""The forest sums of reach-backed graphs against interval balls, up to n = 10^6.

`graph_core` sums the Gutman and Wiener indices and the degree-distance sums
of a reach-backed graph over the jump forest of its reach: greedy jumps and
pointer doubling.  `edge_joint._ball_sums` grows BFS balls as index
intervals instead, resting on the interval-neighbourhood lemma alone, and
runs in O(n) memory per batch of sources, so it can check those sums at
orders where no distance matrix fits.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco_gutman import LinearFunction, build_jaco, gutman_index, wiener_index
from jaco_gutman import edge_joint, graph_core
from jaco_gutman.graph_core import degree_distance_sums

# Sources per `_ball_sums` call: about twenty int64 arrays of this length are
# live at once, some 10 MB, so the oracle's memory stays O(n).
_ORACLE_SOURCES = 1 << 16


def ball_sums(g, w):
    """T(a) = sum over x of w(x) * dist(a, x), for every vertex a of a connected reach-backed graph.

    Each source a starts from the ball [a, a] with the other side's part
    empty at g's own padding, [n + 1, 0], and both anchors at position 0,
    which no ball holds, so the balls grow inside g alone and weigh w.
    """
    n = g.order
    _, lo, hi, _ = edge_joint._side_tables([g])
    below = np.cumsum(np.concatenate(([0, 0], w, [0])))
    total = int(w.sum())
    parts = []
    for start in range(1, n + 1, _ORACLE_SOURCES):
        a = np.arange(start, min(start + _ORACLE_SOURCES, n + 1))
        nowhere = np.zeros(len(a), np.int64)
        ball = (a, a, np.full(len(a), n + 1), nowhere)
        tables = lo, hi, below[1:], below[:-1]
        _, sums = edge_joint._ball_sums(tables, ball, nowhere, nowhere, np.full(len(a), total), n)
        parts.append(sums)
    return np.concatenate(parts)


def _check_against_balls(g):
    ones = np.ones(g.order, np.int64)
    t = ball_sums(g, g.degree_array())
    assert np.array_equal(degree_distance_sums(g), t)
    for index, w, sums in ((gutman_index, g.degree_array(), t), (wiener_index, ones, ball_sums(g, ones))):
        # every unordered pair counts twice in the dot of w with its ball sums
        assert index(g) == graph_core._halve(graph_core._exact_dot(w, sums))


@given(st.integers(1, 4), st.integers(0, 6), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_forest_sums_match_the_ball_sums(m, c, n):
    _check_against_balls(build_jaco(LinearFunction(m, c), n).underlying)


@pytest.mark.parametrize("f", [LinearFunction(1, 0), LinearFunction(2, 1), LinearFunction(3, 2)], ids=str)
def test_forest_sums_match_the_ball_sums_at_a_million(f):
    _check_against_balls(build_jaco(f, 10**6).underlying)
