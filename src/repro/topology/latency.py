"""Data-delivery latency model (Eq. 8 and the latency constraint).

``L_{k,o,i} = s_k · pathcost(o, i)`` where ``pathcost`` is the all-pairs
minimal seconds-per-MB cost over the edge graph.  The cloud holds every data
item (Eq. 7) at a path cost of ``1/cloud_speed`` seconds per MB; the latency
constraint of Eq. (8) is enforced by clamping every edge-to-edge path cost at
the cloud cost, so delivering from within the system never takes longer than
from the cloud.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import TopologyError
from ..units import seconds_to_ms
from .graph import EdgeTopology

__all__ = ["DeliveryLatencyModel"]


class DeliveryLatencyModel:
    """Per-MB path costs between servers and to the cloud.

    Parameters
    ----------
    topology:
        The edge-server graph.  Per Eq. (8), edge-to-edge path costs are
        capped at the cloud cost, so an unreachable pair costs exactly the
        cloud fetch.
    """

    def __init__(self, topology: EdgeTopology):
        self.topology = topology

    @cached_property
    def cloud_cost(self) -> float:
        """Seconds per MB for a cloud fetch."""
        return 1.0 / self.topology.cloud_speed

    @property
    def path_cost(self) -> np.ndarray:
        """``(N, N)`` minimal seconds-per-MB cost between servers.

        Entries never exceed :attr:`cloud_cost` and the matrix contains no
        infinities: it is the topology's own
        :attr:`~repro.topology.EdgeTopology.path_cost`, shared by every
        model over that topology.
        """
        return self.topology.path_cost

    # ------------------------------------------------------------------
    # latencies (seconds)
    # ------------------------------------------------------------------
    def transfer_latency(self, size_mb: float, origin: int, dest: int) -> float:
        """``L_{k,o,i}`` in seconds for an item of ``size_mb`` MB."""
        self._check(origin)
        self._check(dest)
        if size_mb < 0:
            raise TopologyError(f"negative data size {size_mb}")
        return float(size_mb * self.path_cost[origin, dest])

    def cloud_latency(self, size_mb: float) -> float:
        """Latency in seconds for fetching ``size_mb`` MB from the cloud."""
        if size_mb < 0:
            raise TopologyError(f"negative data size {size_mb}")
        return float(size_mb * self.cloud_cost)

    def latency_matrix(self, size_mb: float) -> np.ndarray:
        """``(N, N)`` seconds to move an item of ``size_mb`` between servers."""
        return size_mb * self.path_cost

    # ------------------------------------------------------------------
    # reporting helpers (milliseconds)
    # ------------------------------------------------------------------
    def transfer_latency_ms(self, size_mb: float, origin: int, dest: int) -> float:
        return seconds_to_ms(self.transfer_latency(size_mb, origin, dest))

    def cloud_latency_ms(self, size_mb: float) -> float:
        return seconds_to_ms(self.cloud_latency(size_mb))

    def _check(self, i: int) -> None:
        if not (0 <= i < self.topology.n):
            raise TopologyError(f"server index {i} out of range [0, {self.topology.n})")
