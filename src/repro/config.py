"""Configuration objects for every subsystem.

Each config is a frozen dataclass with validation in ``__post_init__`` so an
invalid configuration fails loudly at construction time, not deep inside a
vectorised kernel.  Defaults reproduce the experiment settings of Section 4.2
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigurationError
from .units import dbm_to_watts

__all__ = [
    "RadioConfig",
    "TopologyConfig",
    "WorkloadConfig",
    "GameConfig",
    "DeliveryConfig",
    "ScenarioConfig",
    "DEFAULT_RADIO",
    "DEFAULT_TOPOLOGY",
    "DEFAULT_WORKLOAD",
    "DEFAULT_GAME",
    "DEFAULT_DELIVERY",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


@dataclass(frozen=True)
class RadioConfig:
    """Wireless last-mile model parameters (Section 2.2 / Section 4.2).

    Attributes
    ----------
    eta:
        Frequency-dependent factor ``η`` of the channel gain
        ``g = η · H^-loss`` (paper: 1).
    loss_exponent:
        Path-loss exponent ``loss`` (paper: 3).
    bandwidth:
        Per-channel bandwidth ``B`` in rate units; with the Shannon formula
        ``R = B log2(1+SINR)`` the reported rates come out in MB/s
        (paper: 200 per channel).
    noise_dbm:
        Additive white Gaussian noise floor ``ω`` in dBm (paper: −174).
    channels_per_server:
        Number of orthogonal channels per edge server (paper: 3).
    channel_range:
        Optional ``(lo, hi)`` for *heterogeneous* provisioning: when set,
        each server's channel count is drawn uniformly from the inclusive
        range and ``channels_per_server`` is ignored by the scenario
        sampler.  The engine handles ragged channel tables via its
        validity mask.
    min_distance:
        Lower clamp on user-server distance in metres before applying the
        power law, preventing a singular gain when a user sits exactly on
        a server site.
    """

    eta: float = 1.0
    loss_exponent: float = 3.0
    bandwidth: float = 200.0
    noise_dbm: float = -174.0
    channels_per_server: int = 3
    channel_range: tuple[int, int] | None = None
    min_distance: float = 1.0

    def __post_init__(self) -> None:
        _require(self.eta > 0, f"eta must be > 0, got {self.eta}")
        _require(
            self.loss_exponent > 0, f"loss_exponent must be > 0, got {self.loss_exponent}"
        )
        _require(self.bandwidth > 0, f"bandwidth must be > 0, got {self.bandwidth}")
        _require(
            self.channels_per_server >= 1,
            f"channels_per_server must be >= 1, got {self.channels_per_server}",
        )
        if self.channel_range is not None:
            lo, hi = self.channel_range
            _require(1 <= lo <= hi, f"bad channel_range {self.channel_range}")
        _require(self.min_distance > 0, f"min_distance must be > 0, got {self.min_distance}")

    def draw_channels(self, n: int, rng) -> "np.ndarray":  # noqa: F821
        """Per-server channel counts: fixed or heterogeneous."""
        import numpy as np

        if self.channel_range is None:
            return np.full(n, self.channels_per_server, dtype=np.int64)
        lo, hi = self.channel_range
        return rng.integers(lo, hi + 1, size=n).astype(np.int64)

    @property
    def noise_watts(self) -> float:
        """Noise floor converted to Watts."""
        return dbm_to_watts(self.noise_dbm)


@dataclass(frozen=True)
class TopologyConfig:
    """Edge-server graph parameters (Section 4.2/4.3).

    ``density · N`` undirected links are generated at random; pairs of
    servers left disconnected exchange data via the cloud path only.
    """

    edge_speed_range: tuple[float, float] = (2000.0, 6000.0)
    cloud_speed: float = 600.0

    def __post_init__(self) -> None:
        lo, hi = self.edge_speed_range
        _require(0 < lo <= hi, f"bad edge_speed_range {self.edge_speed_range}")
        _require(self.cloud_speed > 0, f"cloud_speed must be > 0, got {self.cloud_speed}")


@dataclass(frozen=True)
class WorkloadConfig:
    """Data, storage, power and request-pattern parameters (Section 4.2)."""

    data_sizes: tuple[float, ...] = (30.0, 60.0, 90.0)
    storage_range: tuple[float, float] = (30.0, 300.0)
    power_range: tuple[float, float] = (1.0, 5.0)
    rmax_range: tuple[float, float] = (180.0, 220.0)
    requests_per_user: int = 1
    zipf_exponent: float = 0.8

    def __post_init__(self) -> None:
        _require(len(self.data_sizes) > 0, "data_sizes must be non-empty")
        _require(all(s > 0 for s in self.data_sizes), f"bad data_sizes {self.data_sizes}")
        for name in ("storage_range", "power_range", "rmax_range"):
            lo, hi = getattr(self, name)
            _require(0 < lo <= hi, f"bad {name} {(lo, hi)}")
        _require(
            self.requests_per_user >= 1,
            f"requests_per_user must be >= 1, got {self.requests_per_user}",
        )
        _require(self.zipf_exponent >= 0, f"zipf_exponent must be >= 0, got {self.zipf_exponent}")


@dataclass(frozen=True)
class GameConfig:
    """IDDE-U best-response dynamics parameters (Algorithm 1, Phase 1).

    Attributes
    ----------
    schedule:
        Update schedule.  ``"best-gain-winner"`` follows Algorithm 1: every
        user submits its best response and the single user with the largest
        benefit gain wins the round.  ``"random-winner"`` picks a uniformly
        random improving user (classic asynchronous better-response);
        ``"round-robin"`` sweeps users in index order applying every
        improving move within one sweep.
    epsilon:
        Minimum relative benefit improvement for a move to count; guards
        against floating-point livelock near the equilibrium.
    max_rounds:
        Hard cap on update rounds (Theorem 4 guarantees finite convergence
        under the paper's homogeneous-gain assumption; the cap is a safety
        net, not the expected exit path).
    epsilon_growth, epsilon_max:
        With fully heterogeneous gains the game is only *approximately* a
        potential game and best-response dynamics can cycle on rare
        instances.  After every :meth:`patience_for` moves without
        convergence the epsilon threshold is escalated by
        ``epsilon_growth`` (up to ``epsilon_max``), damping cycles early.
        ``epsilon_max`` bounds only this patience-driven escalation; the
        cap-exhaustion escalation below may exceed it when a cycle
        survives the ceiling.
    max_moves_per_user:
        Cycle breaker: a user that has already moved this many times sits
        out until the sweep goes quiet.  At that point the run checks the
        frozen users — if none still has an ε-improving move the result
        is a certified ε-Nash; if one does, the threshold escalates by
        ``epsilon_growth`` (past ``epsilon_max`` if necessary — benefit
        ratios are bounded, so finitely many escalations silence any
        cycle) and every move budget is refreshed.  A run that reports
        ``converged=True`` therefore always carries an honest certificate
        at ``GameResult.effective_epsilon``.  Normal runs use ~2 moves per
        user, so the cap only binds on cycling instances.

    A user with no positive-benefit channel stays unallocated (``α_j = (0,0)``).
    """

    schedule: str = "round-robin"
    epsilon: float = 1e-9
    max_rounds: int = 10_000
    epsilon_growth: float = 10.0
    epsilon_max: float = 1e-3
    max_moves_per_user: int = 25

    _SCHEDULES = ("best-gain-winner", "random-winner", "round-robin")

    def __post_init__(self) -> None:
        _require(
            self.schedule in self._SCHEDULES,
            f"schedule must be one of {self._SCHEDULES}, got {self.schedule!r}",
        )
        _require(self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}")
        _require(self.max_rounds >= 1, f"max_rounds must be >= 1, got {self.max_rounds}")
        _require(self.epsilon_growth > 1, f"epsilon_growth must be > 1, got {self.epsilon_growth}")
        _require(self.epsilon_max > 0, f"epsilon_max must be > 0, got {self.epsilon_max}")
        _require(
            self.max_moves_per_user >= 1,
            f"max_moves_per_user must be >= 1, got {self.max_moves_per_user}",
        )

    def patience_for(self, n_users: int) -> int:
        """The move budget before epsilon escalation kicks in: ``max(2·M, 200)``
        (normal runs need about two moves per user, so only cycles escalate)."""
        return max(2 * n_users, 200)


@dataclass(frozen=True)
class DeliveryConfig:
    """Phase 2 greedy delivery parameters.

    ``ratio_rule=True`` is the paper's Eq. (17): pick the placement with the
    highest latency reduction *per megabyte*; ``False`` degrades to absolute
    latency reduction (the CDP-style rule, kept for ablation A1).

    The two rules score candidates in **different units**, so each has its
    own explicitly-suffixed stopping threshold (unit honesty, IDDE003/004):

    ``min_gain_s``
        Used when ``ratio_rule=False``: a placement must reduce total
        retrieval latency by more than this many **seconds** to be made.
    ``min_gain_s_per_mb``
        Used when ``ratio_rule=True``: a placement must save more than this
        many **seconds per megabyte** of storage it consumes.

    Both default to 0 — any strictly positive improvement is accepted, as
    in Algorithm 1 line 24.  (The old single ``min_gain`` field conflated
    the two units and was removed.)
    """

    ratio_rule: bool = True
    min_gain_s: float = 0.0
    min_gain_s_per_mb: float = 0.0

    def __post_init__(self) -> None:
        _require(self.min_gain_s >= 0, f"min_gain_s must be >= 0, got {self.min_gain_s}")
        _require(
            self.min_gain_s_per_mb >= 0,
            f"min_gain_s_per_mb must be >= 0, got {self.min_gain_s_per_mb}",
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Bundle of all model configs describing one simulated environment."""

    radio: RadioConfig = field(default_factory=RadioConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def with_overrides(self, **kwargs: Mapping[str, Any]) -> "ScenarioConfig":
        """Return a copy with sub-configs replaced by keyword."""
        return replace(self, **kwargs)


DEFAULT_RADIO = RadioConfig()
DEFAULT_TOPOLOGY = TopologyConfig()
DEFAULT_WORKLOAD = WorkloadConfig()
DEFAULT_GAME = GameConfig()
DEFAULT_DELIVERY = DeliveryConfig()
