"""Edge-storage network topology substrate.

Edge servers are linked by high-speed wired links (``density · N`` random
links, speeds 2000–6000 MB/s); every server also reaches the app vendor's
remote cloud over a 600 MB/s back-haul.  The data-transfer latency model
``L_{k,o,i} = s_k · pathcost(o, i)`` is derived from all-pairs shortest
path costs where each link's cost is its *seconds-per-MB* transfer rate.
"""

from .graph import EdgeTopology, build_topology
from .latency import DeliveryLatencyModel
from .shortest_path import all_pairs_path_cost

__all__ = [
    "EdgeTopology",
    "build_topology",
    "DeliveryLatencyModel",
    "all_pairs_path_cost",
]
