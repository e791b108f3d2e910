"""Potential functions for the IDDE-U game (Definition 4, Eq. 13).

Three related quantities are provided:

:func:`paper_potential`
    A literal transcription of the paper's Eq. (13), pairing benefit
    products over allocated users with the Lemma 2 penalty term for
    unallocated ones.  Used as a diagnostic; the paper proves it ordinal
    under the homogeneous-gain assumption of Theorem 3's proof.

:func:`congestion_potential`
    The exact Rosenthal-style potential of the *intra-cell* restriction of
    the game: resources are ``(server, channel)`` pairs, a player's cost is
    the total power load on its resource (own power included), and
    ``Φ = ½ (Σ_r L_r² + Σ_j p_j²)``.  Every strictly improving move of a
    player strictly decreases ``Φ`` when the game has a single server (or,
    more generally, negligible inter-cell coupling) — the property the
    tests assert.

:func:`global_channel_potential`
    The same construction over *global channel indices* (loads summed
    across servers), which is the exact potential in the fully-coupled
    homogeneous-gain case the paper's Theorem 3 proof analyses.

By convention all three are oriented so that the dynamics should (weakly)
*decrease* them.  :func:`potential_along` replays a run's
``GameResult.move_log`` and reads :func:`congestion_potential` before and
after every move, so the game itself carries no trace.
"""

from __future__ import annotations

import numpy as np

from ..radio.sinr import UNALLOCATED, SinrEngine
from .instance import IDDEInstance
from .profiles import AllocationProfile

__all__ = [
    "paper_potential",
    "congestion_potential",
    "global_channel_potential",
    "potential_along",
    "lemma2_threshold",
]


def lemma2_threshold(engine: SinrEngine, j: int) -> float:
    """Lemma 2's interference ceiling ``T_j`` for user ``j``.

    ``T_j = g_{i,j} p_j / (2^{R_{j,min}/B} − 1) − ω`` where ``R_{j,min}``
    is the minimum candidate rate available to the user at the current
    profile and ``g`` is taken at the corresponding candidate.  Returns
    ``inf`` when the user has no covering server.
    """
    view = engine.candidates(j)
    if view.servers.size == 0:
        return float("inf")
    masked = np.where(view.valid, view.rate, np.inf)
    flat = int(np.argmin(masked))
    s, x = divmod(flat, masked.shape[1])
    r_min = float(masked[s, x])
    g = engine.gain[view.servers[s], j]
    denom = 2.0 ** (r_min / engine.bandwidth) - 1.0
    if denom <= 0.0:
        return float("inf")
    return float(g * engine.power[j] / denom - engine.noise)


def paper_potential(engine: SinrEngine) -> float:
    """Eq. (13), transcription: benefit-product pairs plus the Lemma 2
    penalty for unallocated users.

    ``π = Σ_j Σ_{q≠j} [ ½ I_j I_q β_j β_q − T_j I{α_j=(0,0)} β_q ]``
    """
    m = engine.scenario.n_users
    if m == 0:
        return 0.0
    beta = np.array([engine.user_benefit(j) for j in range(m)])
    allocated = engine.alloc_server != UNALLOCATED
    sum_beta = beta.sum()
    # Pairwise allocated-product term: ½ (S² − Σ β_j²) over allocated users.
    ba = np.where(allocated, beta, 0.0)
    pair_term = 0.5 * (ba.sum() ** 2 - (ba**2).sum())
    penalty = 0.0
    for j in np.flatnonzero(~allocated):
        t_j = lemma2_threshold(engine, j)
        if not np.isfinite(t_j):
            continue
        penalty += t_j * (sum_beta - beta[j])
    return float(pair_term - penalty)


def congestion_potential(engine: SinrEngine) -> float:
    """Rosenthal potential over ``(server, channel)`` resources.

    ``Φ = ½ (Σ_{i,x} P[i,x]² + Σ_{j allocated} p_j²)``.
    """
    loads = engine.channel_power
    allocated = engine.alloc_server != UNALLOCATED
    own = engine.power[allocated]
    return float(0.5 * ((loads**2).sum() + (own**2).sum()))


def global_channel_potential(engine: SinrEngine) -> float:
    """Rosenthal potential over global channel indices.

    ``Φ = ½ (Σ_x L_x² + Σ_{j allocated} p_j²)`` with
    ``L_x = Σ_i P[i, x]`` — exact for the fully-coupled homogeneous-gain
    game analysed in the paper's Theorem 3 proof.
    """
    loads = engine.channel_power.sum(axis=0)
    allocated = engine.alloc_server != UNALLOCATED
    own = engine.power[allocated]
    return float(0.5 * ((loads**2).sum() + (own**2).sum()))


def potential_along(
    instance: IDDEInstance,
    move_log: list[tuple[int, int, int]],
    initial: AllocationProfile | None = None,
) -> list[float]:
    """:func:`congestion_potential` before and after each logged move.

    Replays ``move_log`` (a ``GameResult.move_log``) on a fresh engine
    loaded with ``initial``, the run's warm start (all-unallocated by
    default).  The engine applies the same moves in the same order as the
    run did, so the trace is bitwise the one the run's own engine would
    have shown; it has ``len(move_log) + 1`` entries.
    """
    engine = instance.new_engine()
    if initial is not None:
        engine.load_profile(initial.server, initial.channel)
    trace = [congestion_potential(engine)]
    for user, server, channel in move_log:
        engine.move(user, server, channel)
        trace.append(congestion_potential(engine))
    return trace
