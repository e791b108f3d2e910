"""Shared hypothesis strategies for IDDE scenarios and instances."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.config import RadioConfig, TopologyConfig
from repro.core.instance import IDDEInstance
from repro.topology.graph import build_topology
from repro.types import Scenario

__all__ = ["scenarios", "instances", "potential_game_instances", "allocated_engines"]


@st.composite
def scenarios(
    draw,
    max_servers: int = 5,
    max_users: int = 10,
    max_data: int = 4,
    full_coverage: bool = False,
    power_step: float | None = None,
) -> Scenario:
    """Random small scenarios with guaranteed-covered users.

    Transmit powers are uniform in 1..5 W, rounded to a multiple of
    ``power_step`` when one is given.
    """
    n = draw(st.integers(1, max_servers))
    m = draw(st.integers(1, max_users))
    k = draw(st.integers(1, max_data))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    span = 200.0 if full_coverage else 800.0
    server_xy = rng.uniform(0, span, size=(n, 2))
    radius = (
        np.full(n, 2000.0)
        if full_coverage
        else rng.uniform(250.0, 400.0, size=n)
    )
    # Place users inside randomly chosen discs so everyone is covered.
    owners = rng.integers(0, n, size=m)
    theta = rng.uniform(0, 2 * np.pi, size=m)
    r = radius[owners] * np.sqrt(rng.random(m)) * 0.95
    user_xy = server_xy[owners] + np.column_stack(
        [r * np.cos(theta), r * np.sin(theta)]
    )
    channels = draw(st.integers(1, 3))
    requests = np.zeros((m, k), dtype=bool)
    for j in range(m):
        requests[j, rng.integers(0, k)] = True
    power = rng.uniform(1.0, 5.0, size=m)
    if power_step is not None:
        power = np.round(power / power_step) * power_step
    return Scenario(
        server_xy=server_xy,
        radius=radius,
        storage=rng.uniform(0.0, 250.0, size=n),
        channels=np.full(n, channels, dtype=np.int64),
        user_xy=user_xy,
        power=power,
        rmax=rng.uniform(150.0, 250.0, size=m),
        sizes=rng.choice([30.0, 60.0, 90.0], size=k),
        requests=requests,
    )


@st.composite
def instances(draw, **kwargs) -> IDDEInstance:
    """Random small instances (scenario + topology)."""
    scenario = draw(scenarios(**kwargs))
    density = draw(st.floats(0.0, 3.0))
    seed = draw(st.integers(0, 2**16))
    topo = build_topology(scenario.n_servers, density, seed, TopologyConfig())
    return IDDEInstance(scenario, topo, RadioConfig())


@st.composite
def potential_game_instances(draw) -> IDDEInstance:
    """Random instances inside the premise of Theorems 3 and 4.

    Theorem 3's exact potential holds on one server, whatever the gains, and
    on any number of servers when every link has one common gain.  Half the
    draws are one-server instances with physical gains, the rest up to five
    servers with a common gain.  Powers are continuous or on a 1, 0.5 or
    0.25 W grid: grid powers keep fractional ratios but share a coarse
    common measure, so Theorem 4's bound stays small enough to bite.
    """
    one_server = draw(st.booleans())
    step = draw(st.sampled_from([None, 1.0, 0.5, 0.25]))
    scenario = draw(scenarios(max_servers=1 if one_server else 5, power_step=step))
    density = draw(st.floats(0.0, 3.0))
    seed = draw(st.integers(0, 2**16))
    topo = build_topology(scenario.n_servers, density, seed, TopologyConfig())
    gain = None if one_server else np.ones((scenario.n_servers, scenario.n_users))
    return IDDEInstance(scenario, topo, RadioConfig(), gain_override=gain)


@st.composite
def allocated_engines(draw, **kwargs):
    """An engine with a random feasible allocation loaded."""
    instance = draw(instances(**kwargs))
    engine = instance.new_engine()
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    for j in range(instance.n_users):
        covering = instance.scenario.covering_servers[j]
        if len(covering) == 0 or rng.random() < 0.1:
            continue  # leave some users unallocated
        i = int(covering[rng.integers(0, len(covering))])
        x = int(rng.integers(0, instance.scenario.channels[i]))
        engine.assign(j, i, x)
    return instance, engine
