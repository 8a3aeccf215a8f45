"""The layer below numpy: the arc-rule scan, small-order indices, shared names.

Importing numpy is most of a short `jaco` process: about 60 % of
`jaco gutman --n 3000`.  So `gutman` and `wiener` answer an order
n <= SMALL_ORDER here, in plain Python integers, without loading numpy
(`small_order_index`).  Above SMALL_ORDER, `graph_core`'s vectorized forest
sum is faster than these loops, and the process imports numpy for it.
SMALL_ORDER is the largest order at which this path was measured to be no
slower and no larger in peak RSS than the numpy path, as a fresh process.
`build` needs no numpy at any order: an export reads only f and hi(1..n),
so it renders the record that `jaco_reach` makes of the checked scan.

This module imports no numpy.  `graph_core` and `jaco` import from it the
names that both paths share, so they are the same objects in every layer:
the arc-rule scan that `build_jaco` consumes, the exceptions, the
connectivity error and the names of the sequence tables.

The index is a sum over the jump forest of hi, the top of each closed
neighbourhood.  In a connected Jaco graph, dist(a, b) for a < b counts the
k >= 0 with hi^k(a) < b (the greedy jumps of `graph_core._forest_sums`).
So C(a), the sum of w(b) * dist(a, b) over b > a, obeys the forest identity

    C(a) = S(a) + C(hi(a)),  C(n) = 0,

where S(a) is the weight of the vertices above a.  hi(a) >= a, so one pass
from n down gives every C(a), and the index is the sum of w(a) * C(a): with
the degree hi(v) - lo(v) as w the Gutman index, with w = 1 the Wiener index.
`small_order_index` makes that one pass for either index; only w differs.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import islice
from operator import eq, le
from typing import Iterator

# The largest order that `gutman` and `wiener` answer without numpy (see above).
SMALL_ORDER = 200_000

# The per-order tables of `sequences`, named here so that the command line
# can list them without importing that module.
SEQUENCE_NAMES = ("edges", "gutman", "jaconian_cardinality", "v1_vn_distance")


class DisconnectedGraphError(ValueError):
    """An index that is only defined for connected graphs was requested."""


class StructureAssumptionViolated(RuntimeError):
    """A structural assumption that an exact fast path relies on does not hold."""


def _connectivity_error(what: str, order: int) -> ValueError:
    """The error for `what` of a graph that is empty (order 0) or else disconnected."""
    if order == 0:
        return ValueError(f"{what} is undefined for the empty graph")
    return DisconnectedGraphError(f"{what} is defined for connected graphs only and this graph is disconnected")


def arc_rule_reach(m: int, c: int, n: int) -> Iterator[int]:
    """hi(1..n) of the order-n Jaco graph of f(x) = mx + c, by the sequential arc rule.

    Vertex i reaches up to f(i) + i - d-(v_i), truncated at n; a reach below
    i + 1 simply contributes no arcs, and hi(i) is the reach raised to at
    least i.  In-degree updates are tracked with a difference array, so the
    scan is O(n).  The coefficients are taken as Python integers, so no
    reach overflows.
    """
    delta = [0] * (n + 2)
    running = 0
    step, reach = int(m) + 1, int(c)
    for i in range(1, n + 1):
        running += delta[i]
        reach += step
        hi = reach - running
        if hi > n:
            hi = n
        if hi > i:
            delta[i + 1] += 1
            delta[hi + 1] -= 1
            yield hi
        else:
            yield i


# J_n(mx + c) as its checked reach hi(1..n), a list: all that an export of it reads.
JacoReach = namedtuple("JacoReach", "m c n hi")


def jaco_reach(m: int, c: int, n: int) -> JacoReach:
    """J_n(mx + c) with hi(1..n) from `arc_rule_reach`, checked as every path over hi needs.

    The forest identity and the exports read hi as the closed neighbourhoods
    of a proper interval graph: v <= hi(v) <= n and hi never decreasing.  A
    reach that breaks either raises StructureAssumptionViolated.
    """
    hi = list(arc_rule_reach(m, c, n))
    # v <= hi(v) and hi(v) <= hi(v + 1), so hi(v) <= hi(n) <= n
    if not (all(map(le, range(1, n + 1), hi)) and all(map(le, hi, islice(hi, 1, None))) and hi[-1:] <= [n]):
        raise StructureAssumptionViolated(f"the reaches of the order-{n} graph of {m}x + {c} leave v..n or decrease")
    return JacoReach(m, c, n, hi)


def small_order_index(m: int, c: int, n: int, gutman: bool) -> int:
    """The Gutman index if `gutman`, else the Wiener index, of J_n(mx + c), exactly.

    One backward pass of the forest identity serves both: from a = n down
    it weighs a by hi(a) - lo(a), its degree, for the Gutman index (walking
    lo(a) along) and by 1 for the Wiener index.  Both need a connected
    graph: a fixed point hi(v) = v below n raises DisconnectedGraphError
    naming the index before anything is summed.  The reach is checked first
    (`jaco_reach`).  Time is O(n) and memory two lists of n + 1 integers:
    hi and C.
    """
    what = "the Gutman index" if gutman else "the Wiener index"
    hi = jaco_reach(m, c, n).hi
    hi.insert(0, 0)  # hi[v] for v = 1..n; hi[0] = 0 stops the lo walk
    if any(map(eq, islice(hi, 1, n), range(1, n))):
        raise _connectivity_error(what, n)
    forest = [0] * (n + 1)  # C(a); C(n) = 0
    above = total = 0  # S(a) and the index so far
    # lo(a), the first u with hi(u) >= a, walked down with a.  The Wiener
    # weight needs no lo: started at 1, the sentinel hi[0] = 0 holds it there.
    lo = n if gutman else 1
    for a in range(n, 0, -1):
        while hi[lo - 1] >= a:
            lo -= 1
        reach = hi[a]
        here = forest[a] = above + forest[reach]
        weight = reach - lo if gutman else 1
        total += weight * here
        above += weight
    return total
