"""The edge-server graph: random link generation per Section 4.3.

Given ``density`` and ``N``, the paper generates ``density · N`` random
links between edge servers.  Links carry a transfer speed drawn uniformly
from the configured range; pairs of servers with no connecting path fall
back to the cloud for data exchange (handled by the latency model).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import TopologyConfig
from ..errors import TopologyError
from ..rng import ensure_rng
from .shortest_path import all_pairs_path_cost

__all__ = ["EdgeTopology", "build_topology"]


@dataclass(frozen=True)
class EdgeTopology:
    """An undirected edge-server graph with per-link transfer speeds.

    Attributes
    ----------
    n : number of edge servers (vertices).
    links : ``(E, 2)`` int array of vertex pairs, each pair sorted and
        unique (no self loops, no parallel edges).
    speeds : ``(E,)`` link transfer speeds in MB/s.
    cloud_speed : edge-to-cloud transfer speed in MB/s.
    """

    n: int
    links: np.ndarray
    speeds: np.ndarray
    cloud_speed: float = 600.0

    def __post_init__(self) -> None:
        links = np.asarray(self.links, dtype=np.int64).reshape(-1, 2)
        speeds = np.asarray(self.speeds, dtype=float).reshape(-1)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "speeds", speeds)
        if self.n <= 0:
            raise TopologyError(f"topology needs at least one server, got n={self.n}")
        if len(links) != len(speeds):
            raise TopologyError(
                f"{len(links)} links but {len(speeds)} speeds"
            )
        if len(links):
            if links.min() < 0 or links.max() >= self.n:
                raise TopologyError("link endpoint out of range")
            if np.any(links[:, 0] == links[:, 1]):
                raise TopologyError("self-loops are not allowed")
            canon = np.sort(links, axis=1)
            if len(np.unique(canon, axis=0)) != len(canon):
                raise TopologyError("parallel links are not allowed")
            if np.any(speeds <= 0):
                raise TopologyError("link speeds must be positive")
        if self.cloud_speed <= 0:
            raise TopologyError(f"cloud_speed must be positive, got {self.cloud_speed}")

    @property
    def n_links(self) -> int:
        return len(self.links)

    @cached_property
    def adjacency_cost(self) -> np.ndarray:
        """Dense ``(n, n)`` symmetric matrix of per-MB link costs (s/MB).

        Non-adjacent pairs hold ``inf``; the diagonal is zero.
        """
        cost = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(cost, 0.0)
        if len(self.links):
            a, b = self.links[:, 0], self.links[:, 1]
            w = 1.0 / self.speeds
            # Keep the fastest link if duplicates were ever admitted upstream.
            cost[a, b] = np.minimum(cost[a, b], w)
            cost[b, a] = cost[a, b]
        return cost

    @cached_property
    def path_cost(self) -> np.ndarray:
        """``(n, n)`` minimal seconds-per-MB path cost, capped at the cloud fetch.

        The cap is Eq. (8)'s latency constraint: an unreachable pair costs
        exactly ``1/cloud_speed``, so the matrix holds no infinities.  The
        topology is frozen, so the all-pairs search runs once per topology
        and every instance over it reads the same read-only matrix.
        """
        cost = np.minimum(all_pairs_path_cost(self.adjacency_cost), 1.0 / self.cloud_speed)
        cost.setflags(write=False)
        return cost

    @cached_property
    def degree(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self.links):
            np.add.at(deg, self.links[:, 0], 1)
            np.add.at(deg, self.links[:, 1], 1)
        return deg

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of servers directly linked to server ``i``."""
        if not (0 <= i < self.n):
            raise TopologyError(f"server index {i} out of range [0, {self.n})")
        if not len(self.links):
            return np.empty(0, dtype=np.int64)
        mask_a = self.links[:, 0] == i
        mask_b = self.links[:, 1] == i
        return np.concatenate([self.links[mask_b, 0], self.links[mask_a, 1]])

    def is_connected(self) -> bool:
        """Whether the edge graph (ignoring the cloud) is connected."""
        if self.n == 1:
            return True
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (a, b) in self.links:
            adj[a].append(int(b))
            adj[b].append(int(a))
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return bool(seen.all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeTopology(n={self.n}, links={self.n_links}, cloud={self.cloud_speed} MB/s)"


def build_topology(
    n: int,
    density: float,
    rng: np.random.Generator | int | None = None,
    cfg: TopologyConfig | None = None,
) -> EdgeTopology:
    """Generate a random edge topology with ``round(density · n)`` links.

    Links are sampled uniformly without replacement from all unordered
    server pairs; when ``density · n`` exceeds the number of available
    pairs, the graph is complete.  ``density = 1.0`` therefore yields a
    sparse, possibly disconnected graph — exactly the paper's low-density
    regime where the cloud fallback matters.
    """
    rng = ensure_rng(rng)
    cfg = cfg or TopologyConfig()
    if n <= 0:
        raise TopologyError(f"need at least one server, got n={n}")
    if density < 0:
        raise TopologyError(f"density must be >= 0, got {density}")
    n_pairs = n * (n - 1) // 2
    target = min(int(round(density * n)), n_pairs)
    if target == 0:
        links = np.empty((0, 2), dtype=np.int64)
        speeds = np.empty(0, dtype=float)
        return EdgeTopology(n=n, links=links, speeds=speeds, cloud_speed=cfg.cloud_speed)
    flat = rng.choice(n_pairs, size=target, replace=False)
    links = _unrank_pairs(flat, n)
    lo, hi = cfg.edge_speed_range
    speeds = rng.uniform(lo, hi, size=target)
    return EdgeTopology(n=n, links=links, speeds=speeds, cloud_speed=cfg.cloud_speed)


def _unrank_pairs(ranks: np.ndarray, n: int) -> np.ndarray:
    """Map flat indices in ``[0, C(n,2))`` to unordered pairs ``(a, b)``.

    Uses the row-major enumeration of the strict upper triangle: index
    ``r`` belongs to row ``a`` where rows have lengths ``n-1, n-2, ...``.
    Vectorised closed form via the quadratic formula.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    # offset(a) = a*n - a*(a+1)/2 is the first rank of row a.
    # Solve offset(a) <= r < offset(a+1) for a.
    r = ranks.astype(float)
    a = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * r)) / 2).astype(np.int64)
    # Guard against floating-point edge cases at row boundaries.
    offset = a * n - a * (a + 1) // 2
    too_big = offset > ranks
    a[too_big] -= 1
    offset = a * n - a * (a + 1) // 2
    b = (ranks - offset) + a + 1
    return np.column_stack([a, b])
