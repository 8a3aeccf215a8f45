"""Pure-Python reference implementations used as oracles by the test suite.

Nothing here touches numpy or the package's own distance machinery: BFS runs
on dict-of-set adjacency with a deque, index sums are explicit double loops,
and the arc rule is applied one vertex at a time.  Slow on purpose.
"""
from __future__ import annotations

import random
from collections import deque


def adjacency_from_edges(order: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, order + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_distances(adj: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def component_orders_by_lowest_vertex(order: int, edges) -> list[int]:
    """Orders of the connected components, in the order of their lowest vertices."""
    adj = adjacency_from_edges(order, edges)
    seen: set[int] = set()
    orders = []
    for v in range(1, order + 1):
        if v not in seen:
            reached = bfs_distances(adj, v)
            seen.update(reached)
            orders.append(len(reached))
    return orders


def component_orders(order: int, edges) -> list[int]:
    """Orders of the connected components, descending."""
    return sorted(component_orders_by_lowest_vertex(order, edges), reverse=True)


def split_degree_counts(order: int, edges) -> tuple[list[int], list[int]]:
    """Per-vertex counts of the neighbours below and above, edge by edge."""
    below, above = [0] * order, [0] * order
    for a, b in edges:
        above[min(a, b) - 1] += 1
        below[max(a, b) - 1] += 1
    return below, above


def brute_gutman(order: int, edges) -> int:
    adj = adjacency_from_edges(order, edges)
    deg = {v: len(adj[v]) for v in adj}
    total = 0
    for u in range(1, order + 1):
        dist = bfs_distances(adj, u)
        if len(dist) != order:
            raise ValueError("graph is disconnected")
        for v in range(u + 1, order + 1):
            total += deg[u] * deg[v] * dist[v]
    return total


def brute_wiener(order: int, edges) -> int:
    adj = adjacency_from_edges(order, edges)
    total = 0
    for u in range(1, order + 1):
        dist = bfs_distances(adj, u)
        if len(dist) != order:
            raise ValueError("graph is disconnected")
        for v in range(u + 1, order + 1):
            total += dist[v]
    return total


def slow_jaco_arcs(m: int, c: int, n: int) -> list[tuple[int, int]]:
    """The defining sequential rule, arc by arc."""
    indeg = [0] * (n + 2)
    arcs = []
    for i in range(1, n + 1):
        hi = min(m * i + c + i - indeg[i], n)
        for j in range(i + 1, hi + 1):
            arcs.append((i, j))
            indeg[j] += 1
    return arcs


def random_connected_graph(rng: random.Random, max_order: int = 12) -> tuple[int, list[tuple[int, int]]]:
    """Random spanning tree plus extra edges; always connected."""
    order = rng.randint(2, max_order)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, order + 1)}
    p = rng.random() * 0.5
    for a in range(1, order + 1):
        for b in range(a + 1, order + 1):
            if rng.random() < p:
                edges.add((a, b))
    return order, sorted(edges)
