"""Dynamic IDDE: user mobility and data migration over time.

The paper closes with "in the future work, we will investigate the
dynamics of user movements and data migrations in IDDE scenarios" — this
subpackage builds that extension on the static substrate:

* :mod:`~repro.dynamics.mobility` — user movement models (random
  waypoint, confined random walk) stepping user positions per epoch, and
  :func:`~repro.dynamics.mobility.mobility_batches`, which turns them
  into the event batches the epoch loop consumes;
* :mod:`~repro.dynamics.churn` — arrival/departure processes toggling a
  per-epoch active-user mask (inactive users request nothing, allocate
  nowhere);
* :mod:`~repro.dynamics.migration` — plans and costs for moving the
  delivery profile between epochs (which replicas to add/drop, where the
  bytes come from, how long the migration occupies the edge links);
* :mod:`~repro.dynamics.timeline` — the epoch loop: move users, repair
  invalidated allocations, re-run IDDE-G under one of three re-solve
  policies (``warm`` / ``cold`` / ``static``), migrate replicas, and
  record per-epoch metrics.
"""

from .churn import PoissonChurn, apply_churn
from .migration import MigrationPlan, plan_migration
from .mobility import ConfinedRandomWalk, MobilityModel, RandomWaypoint, mobility_batches
from .timeline import DynamicSimulation, EpochRecord

__all__ = [
    "MobilityModel",
    "RandomWaypoint",
    "ConfinedRandomWalk",
    "mobility_batches",
    "PoissonChurn",
    "apply_churn",
    "MigrationPlan",
    "plan_migration",
    "DynamicSimulation",
    "EpochRecord",
]
