"""Path-cost oracle: a self-contained binary-heap Dijkstra.

The production :func:`~repro.topology.shortest_path.all_pairs_path_cost`
is an all-sources Bellman–Ford relaxation in numpy; this pure-Python
search shares no code with it.  Both return, for every pair, the minimum
over paths of the same left-to-right float sum of edge costs (the search
adds ``dist[u] + w(u, v)``, the relaxation ``d[s, u] + w(u, v)``), and
float addition rounds monotonically, so the tests compare them for exact
equality, not to a tolerance.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import TopologyError

__all__ = ["dijkstra", "oracle_all_pairs_path_cost"]


def dijkstra(adjacency_cost: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest path costs over a dense cost matrix.

    ``adjacency_cost`` is ``(n, n)`` and symmetric, with ``inf`` marking
    non-edges and a zero diagonal.  Returns the ``(n,)`` minimal path
    costs from ``source``; unreachable vertices get ``inf``.
    """
    cost = np.asarray(adjacency_cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise TopologyError(f"adjacency must be square, got {cost.shape}")
    if not (0 <= source < n):
        raise TopologyError(f"source {source} out of range [0, {n})")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        # Relax all neighbours in one vectorised sweep; push improved ones.
        nd = d + cost[v]
        improved = np.flatnonzero((nd < dist) & ~done)
        if len(improved):
            dist[improved] = nd[improved]
            for w in improved:
                heapq.heappush(heap, (float(nd[w]), int(w)))
    return dist


def oracle_all_pairs_path_cost(adjacency_cost: np.ndarray) -> np.ndarray:
    """``(n, n)`` path costs: :func:`dijkstra` from every source."""
    cost = np.asarray(adjacency_cost, dtype=float)
    return np.stack([dijkstra(cost, s) for s in range(cost.shape[0])])
