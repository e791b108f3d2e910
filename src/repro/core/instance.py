"""The bound IDDE problem instance.

An :class:`IDDEInstance` couples a :class:`~repro.types.Scenario` with an
:class:`~repro.topology.EdgeTopology` and a :class:`~repro.config.RadioConfig`
and owns the derived structure every solver needs: the radio tables (gain
matrix and padded covering structure, built once and shared read-only by
the fresh :class:`~repro.radio.SinrEngine` each solver gets), the delivery
latency model, and the request aggregation used by the latency objective.

:meth:`IDDEInstance.project` derives the next epoch's instance.  It builds
only what the epoch's events changed: the path cost lives on the frozen
topology, and the coverage and radio tables carry over, with only the
moved users' columns and rows recomputed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..config import RadioConfig, ScenarioConfig, TopologyConfig, WorkloadConfig
from ..datasets.eua import EuaPool, sample_scenario, synthetic_eua
from ..errors import ScenarioError
from ..radio.sinr import RadioTables, SinrEngine
from ..rng import ensure_rng, spawn_rng
from ..topology.graph import EdgeTopology, build_topology
from ..topology.latency import DeliveryLatencyModel
from ..types import Scenario
from ..workload.events import WorkloadState

__all__ = ["IDDEInstance"]


class IDDEInstance:
    """One concrete IDDE problem: entities + network + radio environment."""

    def __init__(
        self,
        scenario: Scenario,
        topology: EdgeTopology,
        radio: RadioConfig | None = None,
        *,
        gain_override: np.ndarray | None = None,
    ) -> None:
        if topology.n != scenario.n_servers:
            raise ScenarioError(
                f"topology has {topology.n} servers but scenario has {scenario.n_servers}"
            )
        self.scenario = scenario
        self.topology = topology
        self.radio = radio or RadioConfig()
        #: Optional (N, M) gain-matrix override (e.g. a shadowed model from
        #: :mod:`repro.radio.fading`) applied to every engine this instance
        #: creates — every solver then sees the same radio environment.
        self.gain_override = gain_override

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        n: int = 30,
        m: int = 200,
        k: int = 5,
        density: float = 1.0,
        seed: int = 0,
        *,
        pool: EuaPool | None = None,
        config: ScenarioConfig | None = None,
    ) -> "IDDEInstance":
        """Generate a full instance per the paper's Section 4.2/4.3 recipe.

        Deterministic in ``seed``.  The EUA-style pool is itself seeded from
        ``seed`` unless an explicit ``pool`` is supplied (experiment sweeps
        share one pool across trials, as the paper shares the EUA extract).
        """
        config = config or ScenarioConfig()
        if pool is None:
            pool = synthetic_eua(seed)
        scenario = sample_scenario(
            pool,
            n,
            m,
            k,
            spawn_rng(seed, "scenario"),
            workload=config.workload,
            radio=config.radio,
        )
        topology = build_topology(
            n, density, spawn_rng(seed, "topology"), config.topology
        )
        return cls(scenario, topology, config.radio)

    def project(self, state: WorkloadState) -> "IDDEInstance":
        """This instance with the users' positions, activity and requests of ``state``.

        The topology, and with it the path cost, is shared.  The coverage
        structure and :attr:`radio_tables` this instance has built carry
        over too: they depend only on the fixed servers, powers and radio
        and on the users' positions, one user per column or row.  When no
        user moved they are shared as they are; otherwise only the moved
        users' parts are recomputed
        (:meth:`~repro.types.Scenario.adopt_geometry`,
        :meth:`~repro.radio.sinr.RadioTables.patched`), bitwise what a
        fresh build computes.

        ``gain_override`` carries over.  It fixes every link's gain, so a state
        that moved a user raises :class:`~repro.errors.ScenarioError` naming them.
        """
        scenario = state.scenario(self.scenario)
        moved = np.flatnonzero((scenario.user_xy != self.scenario.user_xy).any(axis=1))
        if moved.size and self.gain_override is not None:
            raise ScenarioError(
                f"users {moved.tolist()} moved, but gain_override fixes every link's gain"
            )
        projected = IDDEInstance(
            scenario, self.topology, self.radio, gain_override=self.gain_override
        )
        scenario.adopt_geometry(self.scenario, moved)
        tables = self.__dict__.get("radio_tables")
        if tables is not None:
            projected.__dict__["radio_tables"] = (
                tables.patched(scenario, self.radio, moved) if moved.size else tables
            )
        return projected

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @cached_property
    def latency_model(self) -> DeliveryLatencyModel:
        """Eq. (8)'s model; its path cost is the topology's, computed once."""
        return DeliveryLatencyModel(self.topology)

    @cached_property
    def radio_tables(self) -> RadioTables:
        """The read-only gain matrix and padded covering tables, built once."""
        return RadioTables.build(self.scenario, self.radio, self.gain_override)

    def new_engine(self) -> SinrEngine:
        """A fresh all-unallocated SINR engine sharing :attr:`radio_tables`."""
        return SinrEngine(self.scenario, self.radio, tables=self.radio_tables)

    @cached_property
    def requests_per_item(self) -> np.ndarray:
        """``(K,)`` number of requests per data item (column sums of ζ)."""
        out = self.scenario.requests.sum(axis=0).astype(np.int64)
        out.setflags(write=False)
        return out

    @property
    def n_servers(self) -> int:
        return self.scenario.n_servers

    @property
    def n_users(self) -> int:
        return self.scenario.n_users

    @property
    def n_data(self) -> int:
        return self.scenario.n_data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IDDEInstance(N={self.n_servers}, M={self.n_users}, K={self.n_data}, "
            f"links={self.topology.n_links})"
        )
