"""Path-cost oracle: a self-contained binary-heap Dijkstra.

The production :func:`~repro.topology.shortest_path.all_pairs_path_cost`
delegates to the compiled :func:`scipy.sparse.csgraph.shortest_path`;
this pure-Python search shares no code with it, so agreement on random
edge graphs cross-validates the compiled path.
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
