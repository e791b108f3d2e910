#!/usr/bin/env python
"""Quickstart: the paper's Fig. 2 example system, solved with IDDE-G.

Builds the illustrative edge storage system from the paper's introduction —
4 edge servers, 9 users, 4 data items — and walks through the full IDDE
pipeline: user allocation (Phase 1, the IDDE-U game), data delivery
(Phase 2, the greedy placement), and evaluation of both objectives.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import IddeG, RadioConfig
from repro.core.instance import IDDEInstance
from repro.topology.graph import EdgeTopology
from repro.types import Scenario


def build_fig2_system() -> IDDEInstance:
    """The exemplar system of the paper's Fig. 2.

    Four servers arranged so that adjacent coverage discs overlap (users
    u6 and u7 sit in overlap zones, as in the figure); 9 users requesting
    4 data items: d1 by {u1, u6, u8}, d2 by {u3, u5, u9}, d3 by {u2, u6},
    d4 by {u4}.
    """
    server_xy = np.array(
        [[0.0, 300.0], [0.0, 0.0], [400.0, 300.0], [400.0, 0.0]], dtype=float
    )
    radius = np.array([260.0, 260.0, 260.0, 260.0])
    user_xy = np.array(
        [
            [-80.0, 350.0],   # u1 — near v1
            [-60.0, 60.0],    # u2 — near v2
            [60.0, 150.0],    # u3 — between v1 and v2
            [120.0, -40.0],   # u4 — near v2
            [110.0, 40.0],    # u5 — near v2
            [220.0, 300.0],   # u6 — overlap of v1 and v3
            [400.0, 150.0],   # u7 — overlap of v3 and v4
            [480.0, 60.0],    # u8 — near v4
            [460.0, -30.0],   # u9 — near v4
        ],
        dtype=float,
    )
    # Request matrix ζ: rows u1..u9, columns d1..d4.
    requests = np.zeros((9, 4), dtype=bool)
    requests[[0, 5, 7], 0] = True  # d1: u1, u6, u8
    requests[[2, 4, 8], 1] = True  # d2: u3, u5, u9
    requests[[1, 5], 2] = True     # d3: u2, u6
    requests[3, 3] = True          # d4: u4

    rng = np.random.default_rng(42)
    scenario = Scenario(
        server_xy=server_xy,
        radius=radius,
        storage=np.array([120.0, 90.0, 150.0, 60.0]),
        channels=np.full(4, 2, dtype=np.int64),  # 2 channels, as in §1
        user_xy=user_xy,
        power=rng.uniform(1.0, 5.0, size=9),
        rmax=rng.uniform(180.0, 220.0, size=9),
        sizes=np.array([60.0, 30.0, 60.0, 90.0]),
        requests=requests,
    )
    # The figure's link structure: v1-v2, v1-v3, v2-v4, v3-v4.
    topology = EdgeTopology(
        n=4,
        links=np.array([[0, 1], [0, 2], [1, 3], [2, 3]]),
        speeds=np.array([4000.0, 3000.0, 3500.0, 5000.0]),
        cloud_speed=600.0,
    )
    return IDDEInstance(scenario, topology, RadioConfig(channels_per_server=2))


def main() -> None:
    instance = build_fig2_system()
    print(f"instance: {instance}")
    print()

    strategy = IddeG(track_potential=True).solve(instance, rng=0)

    print("=== Phase 1: user allocation profile (the IDDE-U equilibrium) ===")
    for j in range(instance.n_users):
        i = strategy.allocation.server[j]
        x = strategy.allocation.channel[j]
        print(f"  u{j + 1} -> server v{i + 1}, channel {x + 1}")
    print(f"  Nash equilibrium certified: {strategy.game.is_nash}")
    print(f"  game rounds: {strategy.game.rounds}, moves: {strategy.game.moves}")
    print()

    print("=== Phase 2: data delivery profile (greedy placement) ===")
    for k in range(instance.n_data):
        holders = [f"v{i + 1}" for i in strategy.delivery.servers_holding(k)]
        origin = ", ".join(holders) if holders else "cloud only"
        print(f"  d{k + 1} ({instance.scenario.sizes[k]:.0f} MB) -> {origin}")
    used = strategy.delivery.used_storage(instance.scenario.sizes)
    for i in range(instance.n_servers):
        print(
            f"  v{i + 1} storage: {used[i]:.0f}/{instance.scenario.storage[i]:.0f} MB"
        )
    print()

    print("=== Objectives ===")
    print(f"  R_avg (objective #1, maximise): {strategy.r_avg:8.2f} MB/s")
    print(f"  L_avg (objective #2, minimise): {strategy.l_avg_ms:8.2f} ms")
    print(f"  solved in {strategy.wall_time_s * 1000:.1f} ms")


if __name__ == "__main__":
    main()
