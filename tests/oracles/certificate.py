"""Certificate oracle: Definition 3 evaluated from the formulas alone.

The production certificate (:meth:`~repro.core.game.IddeUGame.is_nash`)
and the per-user oracle of :mod:`tests.oracles.game` both read the SINR
engine: its gain table, its padded covering rows and its per-channel power
bookkeeping.  A fault in any of those would fool both sides at once.  This
module shares none of it.  It rebuilds every quantity from the scenario
arrays in plain Python floats:

* the link gain ``g_{i,j} = η · max(H_{i,j}, d_min)^{-loss}`` from the
  server and user positions (or the instance's ``gain_override`` array,
  which fixes the gains when present);
* the interference a player ``j`` sees on channel ``x`` (Eq. 2's
  denominator without the noise term), summed user by user over every
  other player allocated to channel ``x`` of a server covering ``j``;
* the Eq. 12 benefit ``β(i, x) = g_{i,j} p_j / (W_j[x] + g_{i,j} p_j)`` of
  every candidate ``(i, x)`` and of the standing allocation.

A player deviates when its best candidate beats its current benefit by
more than ``tol`` (relative), or, unallocated, when any candidate has a
positive benefit.  Plain-float sums round differently from the engine's
reductions (by at most 4.4e-16 relative on the best benefits of twenty
generated 6x30 equilibria), so :func:`formula_verdict` abstains (returns
``None``) when a best deviation lies within :data:`BAND` (relative) of its
threshold.  The band sits below the default tolerance of 1e-9 on purpose:
a settled player whose best move is its own allocation lies exactly
``tol`` (relative) below its threshold, and must still be decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile

__all__ = ["BAND", "Deviation", "best_deviations", "formula_verdict", "link_gains"]

#: Relative distance from the threshold inside which the verdict abstains.
BAND = 1e-12


@dataclass(frozen=True)
class Deviation:
    """One player's best candidate benefit and the threshold it must beat."""

    user: int
    best: float
    threshold: float

    @property
    def deviates(self) -> bool:
        return self.best > self.threshold

    @property
    def decided(self) -> bool:
        """True when the best benefit is clear of the threshold's band."""
        return abs(self.best - self.threshold) > BAND * abs(self.threshold)


def link_gains(instance: IDDEInstance) -> list[list[float]]:
    """The ``(N, M)`` link gains as nested lists of floats."""
    if instance.gain_override is not None:
        return np.asarray(instance.gain_override, dtype=float).tolist()
    radio = instance.radio
    sc = instance.scenario
    return [
        [
            radio.eta
            * max(math.hypot(sx - ux, sy - uy), radio.min_distance)
            ** (-radio.loss_exponent)
            for ux, uy in sc.user_xy.tolist()
        ]
        for sx, sy in sc.server_xy.tolist()
    ]


def best_deviations(
    instance: IDDEInstance,
    profile: AllocationProfile,
    tol: float,
    players: np.ndarray | None = None,
) -> list[Deviation]:
    """Each covered player's best Eq. 12 benefit against its threshold.

    Players without a covering server have no move and are left out.
    """
    sc = instance.scenario
    gain = link_gains(instance)
    cover = sc.coverage.tolist()
    power = sc.power.tolist()
    channels = sc.channels.tolist()
    server = profile.server.tolist()
    channel = profile.channel.tolist()
    n, m = sc.n_servers, sc.n_users
    if players is None:
        players = range(m)
    out = []
    for j in (int(p) for p in players):
        covering = [i for i in range(n) if cover[i][j]]
        if not covering:
            continue

        # Eq. 2's interference on each channel: every other player on
        # channel x of a server that covers j.
        interference = [
            sum(
                gain[server[k]][j] * power[k]
                for k in range(m)
                if k != j and channel[k] == x and server[k] in covering
            )
            for x in range(max(channels))
        ]

        def benefit(i: int, x: int) -> float:
            signal = gain[i][j] * power[j]
            return signal / (interference[x] + signal)

        best = max(benefit(i, x) for i in covering for x in range(channels[i]))
        if server[j] < 0:
            threshold = 0.0
        else:
            current = benefit(server[j], channel[j])
            threshold = current * (1.0 + tol) + tol * 1e-30
        out.append(Deviation(j, best, threshold))
    return out


def formula_verdict(
    instance: IDDEInstance,
    profile: AllocationProfile,
    tol: float,
    players: np.ndarray | None = None,
) -> bool | None:
    """Definition 3 from the formulas: ``False`` when a player clearly
    deviates, ``True`` when every player is clearly settled, ``None`` when
    the answer hangs on a best deviation inside the rounding band."""
    deviations = best_deviations(instance, profile, tol, players)
    if any(d.deviates and d.decided for d in deviations):
        return False
    if all(d.decided for d in deviations):
        return True
    return None
