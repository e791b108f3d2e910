#!/usr/bin/env python
"""Dynamic IDDE: mobile users, re-solve policies, and data migration.

The paper's future work — "the dynamics of user movements and data
migrations in IDDE scenarios" — implemented: users follow a random-waypoint
walk across the CBD while the system re-formulates its strategy each epoch
under three policies:

* ``warm``   — re-run the IDDE-U game warm-started from the repaired
  previous equilibrium (churn-proportional effort);
* ``cold``   — re-solve from scratch every epoch;
* ``static`` — never re-solve (shows how fast a stale strategy decays).

The epoch report tracks both objectives plus the *operational* costs the
static formulation hides: reallocated users, best-response moves, and the
megabytes of replica migration between consecutive delivery profiles.

Run:  python examples/dynamic_mobility.py
"""

from repro import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import DynamicSimulation, RandomWaypoint, mobility_batches

EPOCHS = 8
DT = 45.0  # seconds per epoch
SPEEDS = (8.0, 20.0)  # an e-scooter-ish crowd, m/s


def run_policy(instance: IDDEInstance, policy: str):
    mobility = RandomWaypoint(
        instance.scenario.user_xy, CBD_REGION, rng=7, speed_range=SPEEDS
    )
    sim = DynamicSimulation(instance, policy=policy)
    return sim.run_events(mobility_batches(mobility, EPOCHS, DT), rng=7)


def main() -> None:
    instance = IDDEInstance.generate(n=20, m=120, k=5, density=1.5, seed=7)
    print(f"instance: {instance}; {EPOCHS} epochs x {DT:.0f}s at {SPEEDS} m/s\n")

    results = {policy: run_policy(instance, policy) for policy in ("warm", "cold", "static")}

    print("=== epoch-by-epoch average data rate (MB/s) ===")
    header = " epoch | " + " | ".join(f"{p:>7}" for p in results)
    print(header)
    for epoch in range(EPOCHS):
        row = f"{epoch:>6} | " + " | ".join(
            f"{results[p][epoch].r_avg:7.2f}" for p in results
        )
        print(row)
    print()

    print("=== steady-state summary (epochs 1+) ===")
    print(f"{'policy':>7} | {'R_avg':>7} | {'L_avg ms':>8} | {'realloc':>7} | "
          f"{'moves':>6} | {'migr MB':>8} | {'solve s':>8}")
    for policy, records in results.items():
        s = DynamicSimulation.summarize(records)
        print(
            f"{policy:>7} | {s['mean_r_avg']:7.2f} | {s['mean_l_avg_ms']:8.2f} | "
            f"{s['mean_realloc']:7.1f} | {s['mean_moves']:6.1f} | "
            f"{s['mean_migration_mb']:8.1f} | {s['mean_solve_time_s']:8.4f}"
        )
    print()
    print("Reading the table: 'static' decays as users walk out of coverage;")
    print("'warm' matches 'cold' quality at a fraction of the game moves,")
    print("and the migration column prices the replica churn that dynamic")
    print("re-formulation costs the edge network.")


if __name__ == "__main__":
    main()
