"""Allocation repair: detach users an instance delta invalidated.

When the scenario shifts under a standing allocation — users moved out of
coverage, churned out of the system, or the profile simply came from a
different (but same-shaped) instance — the profile must be *repaired*
before it can warm-start the IDDE-U game: every allocation must satisfy
Eq. (1) (a covering server, an existing channel) and inactive users must
sit at the paper's ``α_j = (0,0)`` state.

:func:`repair_allocation` is the per-epoch hot path of the streaming
engine: it detaches what :func:`~repro.radio.sinr.check_eq1`, the vectorised
Eq. (1) rule every engine load raises from, reports.
``tests/core/test_repair.py`` pins it against the per-user loop.
"""

from __future__ import annotations

import numpy as np

from ..radio.sinr import check_eq1
from .instance import IDDEInstance
from .profiles import UNALLOCATED, AllocationProfile

__all__ = ["repair_allocation"]


def repair_allocation(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    active: np.ndarray | None = None,
) -> tuple[AllocationProfile, int]:
    """Detach users whose assigned server no longer covers them, whose
    channel no longer exists, or who churned out of the system.

    Parameters
    ----------
    instance:
        The (possibly rebuilt) instance the profile must be feasible for.
    alloc:
        The standing allocation; never mutated.
    active:
        Optional boolean ``(M,)`` participant mask — inactive users are
        detached regardless of coverage.

    Returns
    -------
    The repaired profile (a copy) and the number of detached users.

    Raises
    ------
    AllocationError
        For arrays not of shape ``(M,)`` or a server index outside
        ``[0, N)``: a malformed prior, which no instance delta explains.
    """
    users, broken = check_eq1(instance.scenario, alloc.server, alloc.channel, detach=True)
    if active is not None:
        broken |= ~np.asarray(active, dtype=bool)[users]
    drop = users[broken]
    server, channel = alloc.server.copy(), alloc.channel.copy()
    server[drop] = channel[drop] = UNALLOCATED
    return AllocationProfile(server, channel), int(drop.size)
