"""The paper's primary contribution: the IDDE problem and the IDDE-G solver.

Modules
-------
``instance``
    :class:`~repro.core.instance.IDDEInstance` — a scenario bound to a
    topology and a radio configuration, with cached derived structure.
``profiles``
    The decision variables: :class:`~repro.core.profiles.AllocationProfile`
    (``α``) and :class:`~repro.core.profiles.DeliveryProfile` (``σ``).
``objectives``
    Eq. (5) average data rate and Eq. (9) average delivery latency.
``constraints``
    Checkers for Eqs. (1), (6), (7), (8).
``game``
    Phase 1 — the IDDE-U potential game and its best-response dynamics.
``potential``
    The potential function (Eq. 13) used for convergence diagnostics.
``delivery``
    Phase 2 — the greedy marginal-latency-per-byte placement (Eq. 17).
``idde_g``
    The composed IDDE-G solver.
``strategy``
    The :class:`~repro.core.strategy.Solver` interface and the
    :class:`~repro.core.strategy.Solution` every solver returns.
``bounds``
    Theorems 4, 5 and 7: iteration bound, price of anarchy, approximation.
``brute_force``
    Exact reference solvers for tiny instances (test oracles).
"""

from .instance import IDDEInstance
from .profiles import AllocationProfile, DeliveryProfile
from .objectives import average_data_rate, average_delivery_latency_ms, evaluate
from .game import IddeUGame, GameResult
from .delivery import greedy_delivery, DeliveryResult
from .idde_g import IddeG
from .strategy import Solution, Solver

__all__ = [
    "IDDEInstance",
    "AllocationProfile",
    "DeliveryProfile",
    "average_data_rate",
    "average_delivery_latency_ms",
    "evaluate",
    "IddeUGame",
    "GameResult",
    "greedy_delivery",
    "DeliveryResult",
    "IddeG",
    "Solution",
    "Solver",
]
