"""Extension D1 — dynamic IDDE: re-solve policies under mobility.

The paper's future-work scenario, measured: warm-started re-formulation
must match cold re-solves on both objectives while spending a fraction of
the game moves, and a static strategy must decay.  Also benchmarks one
full simulation epoch.
"""

from io import StringIO

import numpy as np

from repro.core.instance import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import DynamicSimulation, RandomWaypoint, mobility_batches

from conftest import write_artifact

EPOCHS = 6
DT = 45.0
SPEEDS = (8.0, 20.0)


def _run(policy: str) -> dict[str, float]:
    instance = IDDEInstance.generate(n=20, m=120, k=5, density=1.5, seed=7)
    mobility = RandomWaypoint(
        instance.scenario.user_xy, CBD_REGION, rng=7, speed_range=SPEEDS
    )
    sim = DynamicSimulation(instance, policy=policy)
    records = sim.run_events(mobility_batches(mobility, EPOCHS, DT), rng=7)
    return DynamicSimulation.summarize(records)


def test_dynamics_policy_comparison(benchmark):
    summaries = {p: _run(p) for p in ("warm", "cold", "static")}
    benchmark.pedantic(_run, args=("warm",), rounds=1, iterations=1)

    out = StringIO()
    out.write("## Extension D1 — mobility re-solve policies\n\n")
    out.write(
        "| policy | R_avg (MB/s) | L_avg (ms) | realloc/epoch | moves/epoch "
        "| migration MB/epoch |\n|---|---|---|---|---|---|\n"
    )
    for policy, s in summaries.items():
        out.write(
            f"| {policy} | {s['mean_r_avg']:.2f} | {s['mean_l_avg_ms']:.2f} | "
            f"{s['mean_realloc']:.1f} | {s['mean_moves']:.1f} | "
            f"{s['mean_migration_mb']:.1f} |\n"
        )
    report = out.getvalue()
    write_artifact("dynamics_policies.md", report)
    print("\n" + report)

    warm, cold, static = summaries["warm"], summaries["cold"], summaries["static"]
    # Static decays on both objectives.
    assert static["mean_r_avg"] < warm["mean_r_avg"]
    assert static["mean_l_avg_ms"] > warm["mean_l_avg_ms"]
    # Warm matches cold quality within 10%.
    assert abs(warm["mean_r_avg"] - cold["mean_r_avg"]) < 0.1 * cold["mean_r_avg"]
    # Static never migrates; the adaptive policies do.
    assert static["mean_migration_mb"] == 0.0
    assert warm["mean_migration_mb"] > 0.0
