"""repro — Interference-aware Data Delivery in Edge Storage Systems.

A from-scratch reproduction of *"Formulating Interference-aware Data
Delivery Strategies in Edge Storage Systems"* (Xia et al., ICPP 2022):
the IDDE problem, the IDDE-G game-theoretic solver, the four benchmark
approaches, an EUA-style scenario generator, the wireless-interference and
edge-topology substrates, and the full Section 4 experiment harness.

Quickstart
----------
>>> from repro import IDDEInstance, solve
>>> instance = IDDEInstance.generate(n=10, m=40, k=4, density=1.5, seed=7)
>>> sol = solve(instance, "idde-g", rng=7)
>>> sol.r_avg > 0 and sol.l_avg_ms >= 0
True

:func:`repro.api.solve` is the public façade every front-end routes
through; solver classes (:class:`IddeG` etc.) remain importable for
direct construction.

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from .config import (
    DeliveryConfig,
    GameConfig,
    RadioConfig,
    ScenarioConfig,
    TopologyConfig,
    WorkloadConfig,
)
from .core import (
    AllocationProfile,
    DeliveryProfile,
    IDDEInstance,
    IddeG,
    IddeUGame,
    average_data_rate,
    average_delivery_latency_ms,
    evaluate,
    greedy_delivery,
)
from .core.strategy import Solver
from .api import Solution, solve
from .request import SolveRequest
from .baselines import CDP, SAA, DupG, IddeIP, build_solver, default_solvers
from .datasets import EuaPool, sample_scenario, synthetic_eua
from .dynamics import DynamicSimulation, RandomWaypoint
from .errors import ReproError
from .metrics import jain_index, strategy_report
from .solvers import optimal_delivery_milp
from .topology import EdgeTopology, build_topology
from .types import DataItem, EdgeServer, Scenario, User

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # configuration
    "RadioConfig",
    "TopologyConfig",
    "WorkloadConfig",
    "GameConfig",
    "DeliveryConfig",
    "ScenarioConfig",
    # entities
    "Scenario",
    "EdgeServer",
    "User",
    "DataItem",
    # the public façade
    "solve",
    "Solution",
    "SolveRequest",
    # problem & solvers
    "IDDEInstance",
    "AllocationProfile",
    "DeliveryProfile",
    "Solver",
    "IddeG",
    "IddeUGame",
    "IddeIP",
    "SAA",
    "CDP",
    "DupG",
    "default_solvers",
    "build_solver",
    # objectives
    "average_data_rate",
    "average_delivery_latency_ms",
    "evaluate",
    "greedy_delivery",
    # datasets & topology
    "EuaPool",
    "synthetic_eua",
    "sample_scenario",
    "EdgeTopology",
    "build_topology",
    # extensions
    "DynamicSimulation",
    "RandomWaypoint",
    "optimal_delivery_milp",
    "jain_index",
    "strategy_report",
    # errors
    "ReproError",
]
