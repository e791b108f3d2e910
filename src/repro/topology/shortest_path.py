"""Shortest-path kernel for the edge graph.

The delivery latency of a data item between two servers is its size times
the cheapest path cost, where each link contributes ``1/speed`` seconds per
MB.  :func:`all_pairs_path_cost` computes every pair's cost in one numpy
kernel: an all-sources Bellman–Ford relaxation over the edge list.

Why the kernel is bitwise Dijkstra
----------------------------------
A relaxation ``d[s, v] = min(d[s, v], d[s, u] + w(u, v))`` extends a path
from ``s`` by one edge at its end, so every distance it ever holds is the
left-to-right float sum of some path's edge costs, the same sum Dijkstra
accumulates (``dist[u] + w(u, v)``).  Float addition rounds monotonically
and the weights are non-negative, so the cheapest such sum is reached by a
simple path, and extending the cheapest prefix always yields the cheapest
extension.  Both searches therefore return the minimum, over paths, of the
same float sums: equal bit for bit, not just to a tolerance.  The test
suite checks this against a self-contained binary-heap Dijkstra and
against :func:`scipy.sparse.csgraph.shortest_path`.
"""

from __future__ import annotations

import numpy as np

from ..errors import TopologyError

__all__ = ["all_pairs_path_cost"]

# One round's ``(sources, edges)`` temporary holds at most this many floats
# (32 MB), or ``n²`` when that is larger, however dense the graph.
_RELAX_BLOCK_FLOATS = 1 << 22


def all_pairs_path_cost(adjacency_cost: np.ndarray) -> np.ndarray:
    """All-pairs shortest path costs of an undirected edge graph.

    ``adjacency_cost`` is the ``(n, n)`` symmetric matrix with ``inf``
    marking non-edges and a zero diagonal; unreachable pairs stay ``inf``.
    An edge's two entries may differ; the cheaper one is its cost.  A
    negative or NaN entry raises :class:`TopologyError`.

    Each round relaxes every edge for a block of sources at once, with the
    edges grouped by target and reduced with ``np.minimum.reduceat``.  A
    block's loop stops when none of its distances strictly falls; a
    shortest path has at most ``n - 1`` edges, so it never runs more rounds
    than that.  Sources are independent, so blocking changes no distance:
    it only bounds the round's temporary, which grows with the edge count.
    Sparse graphs (the generated topologies have ``2·n·density`` directed
    edges) relax in one block; a complete graph relaxes a few rows at a
    time.
    """
    cost = np.asarray(adjacency_cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise TopologyError(f"adjacency must be square, got {cost.shape}")
    if np.isnan(cost).any() or (cost < 0).any():
        raise TopologyError("adjacency costs must be non-negative and not NaN")
    weight = np.minimum(cost, cost.T)
    np.fill_diagonal(weight, np.inf)
    # Edge u -> v, ordered by target v: nonzero() of the transpose is row-major.
    target, source = np.nonzero(np.isfinite(weight.T))
    edge_cost = weight[source, target]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    if not len(target):
        return dist
    targets, starts = np.unique(target, return_index=True)
    block = max(1, max(n * n, _RELAX_BLOCK_FLOATS) // len(source))
    for lo in range(0, n, block):
        rows = dist[lo : lo + block]
        for _ in range(n - 1):
            reached = np.minimum.reduceat(rows[:, source] + edge_cost, starts, axis=1)
            current = rows[:, targets]
            if not (reached < current).any():
                break
            rows[:, targets] = np.minimum(current, reached)
    return dist
