"""Shortest-path kernel for the edge graph.

The delivery latency of a data item between two servers is its size times
the cheapest path cost, where each link contributes ``1/speed`` seconds per
MB.  :func:`all_pairs_path_cost` computes every pair's cost with
:func:`scipy.sparse.csgraph.shortest_path` on the dense cost matrix, which
for the paper's N ≤ 125 is the fastest option.  The test suite
cross-validates it against a self-contained binary-heap Dijkstra.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from ..errors import TopologyError

__all__ = ["all_pairs_path_cost"]


def all_pairs_path_cost(adjacency_cost: np.ndarray) -> np.ndarray:
    """All-pairs shortest path costs via the compiled csgraph kernel.

    ``adjacency_cost`` is the ``(n, n)`` symmetric matrix with ``inf``
    marking non-edges and a zero diagonal; unreachable pairs stay ``inf``.
    """
    cost = np.asarray(adjacency_cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise TopologyError(f"adjacency must be square, got {cost.shape}")
    # csgraph treats 0 as "no edge" in dense input unless inf-marked;
    # our matrix already uses inf for non-edges and 0 diagonal.
    out = _sp_shortest_path(cost, method="D", directed=False)
    return np.asarray(out, dtype=float)
