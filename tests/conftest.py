"""Shared fixtures: hand-built tiny scenarios and generated instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RadioConfig, TopologyConfig
from repro.core.instance import IDDEInstance
from repro.radio.sinr import UNALLOCATED
from repro.topology.graph import EdgeTopology, build_topology
from repro.types import Scenario


def make_scenario(
    server_xy,
    user_xy,
    *,
    radius=300.0,
    storage=200.0,
    channels=2,
    power=2.0,
    rmax=200.0,
    sizes=(30.0, 60.0),
    requests=None,
) -> Scenario:
    """Build a Scenario from positions with broadcastable scalar attributes."""
    server_xy = np.asarray(server_xy, dtype=float).reshape(-1, 2)
    user_xy = np.asarray(user_xy, dtype=float).reshape(-1, 2)
    n, m = len(server_xy), len(user_xy)
    sizes = np.asarray(sizes, dtype=float)
    k = len(sizes)
    if requests is None:
        requests = np.zeros((m, k), dtype=bool)
        for j in range(m):
            requests[j, j % k] = True
    return Scenario(
        server_xy=server_xy,
        radius=np.broadcast_to(np.asarray(radius, dtype=float), (n,)),
        storage=np.broadcast_to(np.asarray(storage, dtype=float), (n,)),
        channels=np.broadcast_to(np.asarray(channels, dtype=np.int64), (n,)),
        user_xy=user_xy,
        power=np.broadcast_to(np.asarray(power, dtype=float), (m,)),
        rmax=np.broadcast_to(np.asarray(rmax, dtype=float), (m,)),
        sizes=sizes,
        requests=np.asarray(requests, dtype=bool),
    )


def ragged_scenario(seed: int) -> Scenario:
    """Partial coverage (some users covered by no server) and servers with
    fewer channels than the widest one."""
    rng = np.random.default_rng(seed)
    n, m = 6, 40
    return make_scenario(
        rng.uniform(0.0, 1000.0, (n, 2)),
        rng.uniform(-400.0, 1400.0, (m, 2)),
        radius=rng.uniform(150.0, 400.0, n),
        channels=rng.integers(1, 5, n),
        power=rng.uniform(1.0, 5.0, m),
    )


def random_profile(scenario, rng, fill: float = 0.7):
    """A random Eq. (1)-feasible partial profile as ``(server, channel)``."""
    server = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
    channel = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
    for j, servers in enumerate(scenario.covering_servers):
        if len(servers) == 0 or rng.random() > fill:
            continue
        server[j] = rng.choice(servers)
        channel[j] = rng.integers(0, scenario.channels[server[j]])
    return server, channel


def make_instance(scenario: Scenario, *, density: float = 2.0, seed: int = 0) -> IDDEInstance:
    """Wrap a scenario into an instance with a random topology."""
    topo = build_topology(scenario.n_servers, density, seed, TopologyConfig())
    return IDDEInstance(scenario, topo, RadioConfig())


def line_topology(n: int, speed: float = 3000.0, cloud: float = 600.0) -> EdgeTopology:
    """A path graph 0-1-2-...-(n-1) with uniform link speed."""
    links = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    speeds = np.full(n - 1, speed)
    return EdgeTopology(n=n, links=links, speeds=speeds, cloud_speed=cloud)


@pytest.fixture
def tiny_scenario() -> Scenario:
    """3 servers / 6 users / 2 data items; every server covers every user."""
    server_xy = [[0.0, 0.0], [200.0, 0.0], [100.0, 150.0]]
    user_xy = [
        [50.0, 20.0],
        [150.0, 30.0],
        [100.0, 80.0],
        [60.0, 100.0],
        [140.0, 90.0],
        [100.0, 10.0],
    ]
    return make_scenario(server_xy, user_xy, radius=400.0)


@pytest.fixture
def tiny_instance(tiny_scenario) -> IDDEInstance:
    return make_instance(tiny_scenario, density=2.0, seed=0)


@pytest.fixture
def line_instance() -> IDDEInstance:
    """4 servers on a line topology, 8 users, 3 items; disjoint coverage."""
    server_xy = [[0.0, 0.0], [1000.0, 0.0], [2000.0, 0.0], [3000.0, 0.0]]
    user_xy = [
        [10.0, 20.0],
        [30.0, -40.0],
        [1010.0, 10.0],
        [990.0, -30.0],
        [2020.0, 5.0],
        [1985.0, 25.0],
        [3010.0, -10.0],
        [2990.0, 30.0],
    ]
    scenario = make_scenario(
        server_xy, user_xy, radius=150.0, sizes=(30.0, 60.0, 90.0), storage=100.0
    )
    topo = line_topology(4)
    return IDDEInstance(scenario, topo, RadioConfig())


@pytest.fixture(scope="session")
def small_instance() -> IDDEInstance:
    """A generated instance small enough for fast solver runs."""
    return IDDEInstance.generate(n=8, m=30, k=4, density=1.5, seed=1)


@pytest.fixture(scope="session")
def medium_instance() -> IDDEInstance:
    """A generated instance at a fifth of paper scale."""
    return IDDEInstance.generate(n=15, m=60, k=5, density=1.2, seed=2)


@pytest.fixture(scope="session")
def shadowed_instance() -> IDDEInstance:
    """A generated instance whose gains a log-normal shadowing override fixes."""
    from repro.radio.fading import lognormal_shadowing

    base = IDDEInstance.generate(n=10, m=60, k=4, seed=0)
    gain = lognormal_shadowing(
        base.scenario.server_xy, base.scenario.user_xy, rng=1, sigma_db=8
    )
    return IDDEInstance(base.scenario, base.topology, base.radio, gain_override=gain)
