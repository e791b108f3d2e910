"""The IDDE decision variables: allocation profile ``α`` and delivery
profile ``σ`` (Definitions 1 and 2).

Both profiles are thin, validated wrappers over NumPy arrays with value
semantics (:meth:`copy`) so solvers can mutate working copies freely and
return frozen results.
"""

from __future__ import annotations

import numpy as np

from ..errors import AllocationError, CoverageError, DeliveryError, StorageViolation
from ..radio.sinr import index_arrays
from ..types import Scenario

__all__ = ["AllocationProfile", "DeliveryProfile", "UNALLOCATED"]

UNALLOCATED = -1


class AllocationProfile:
    """Definition 1: per-user (server, channel) decisions.

    ``server[j] == channel[j] == -1`` encodes the paper's ``α_j = (0, 0)``
    (unallocated).  A float or bool index array is refused, not truncated.
    """

    __slots__ = ("server", "channel")

    def __init__(self, server: np.ndarray, channel: np.ndarray) -> None:
        self.server, self.channel = index_arrays(server, channel)
        if self.server.shape != self.channel.shape or self.server.ndim != 1:
            raise AllocationError(
                f"server/channel shapes mismatch: {self.server.shape} vs {self.channel.shape}"
            )
        both = (self.server == UNALLOCATED) == (self.channel == UNALLOCATED)
        if not both.all():
            raise AllocationError("server and channel must be unallocated together")

    @classmethod
    def empty(cls, n_users: int) -> "AllocationProfile":
        """The all-unallocated profile (Algorithm 1's initial state)."""
        return cls(
            np.full(n_users, UNALLOCATED, dtype=np.int64),
            np.full(n_users, UNALLOCATED, dtype=np.int64),
        )

    @property
    def n_users(self) -> int:
        return len(self.server)

    @property
    def allocated(self) -> np.ndarray:
        """Boolean mask of allocated users."""
        return self.server != UNALLOCATED

    @property
    def n_allocated(self) -> int:
        return int(self.allocated.sum())

    def users_of_server(self, i: int) -> np.ndarray:
        """The paper's ``U_i(α)``: users allocated to server ``i``."""
        return np.flatnonzero(self.server == i)

    def users_of_channel(self, i: int, x: int) -> np.ndarray:
        """The paper's ``U_{i,x}(α)``: users allocated to channel ``x`` of
        server ``i``."""
        return np.flatnonzero((self.server == i) & (self.channel == x))

    def validate(self, scenario: Scenario) -> None:
        """Check Eq. (1): every allocation targets a covering server and an
        existing channel.

        Raises
        ------
        CoverageError / AllocationError on the first violation found.
        """
        if self.n_users != scenario.n_users:
            raise AllocationError(
                f"profile covers {self.n_users} users, scenario has {scenario.n_users}"
            )
        alloc = np.flatnonzero(self.allocated)
        if len(alloc) == 0:
            return
        servers = self.server[alloc]
        channels = self.channel[alloc]
        if servers.min() < 0 or servers.max() >= scenario.n_servers:
            raise AllocationError("allocated server index out of range")
        if not scenario.coverage[servers, alloc].all():
            bad = alloc[~scenario.coverage[servers, alloc]][0]
            raise CoverageError(
                f"user {bad} allocated to server {self.server[bad]} outside coverage"
            )
        if np.any(channels < 0) or np.any(channels >= scenario.channels[servers]):
            bad = alloc[(channels < 0) | (channels >= scenario.channels[servers])][0]
            raise AllocationError(
                f"user {bad} allocated to non-existent channel {self.channel[bad]}"
            )

    def copy(self) -> "AllocationProfile":
        return AllocationProfile(self.server, self.channel)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationProfile):
            return NotImplemented
        return bool(
            np.array_equal(self.server, other.server)
            and np.array_equal(self.channel, other.channel)
        )

    def __hash__(self) -> int:  # profiles are mutable; identity hashing only
        raise TypeError("AllocationProfile is unhashable (mutable)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AllocationProfile(M={self.n_users}, allocated={self.n_allocated})"


class DeliveryProfile:
    """Definition 2: the boolean placement matrix ``σ`` of shape (N, K).

    ``placed[i, k]`` — data ``k`` is delivered to (stored on) server ``i``.
    The cloud's copies (Eq. 7) are implicit: the latency objective always
    admits the cloud as an origin.
    """

    __slots__ = ("placed",)

    def __init__(self, placed: np.ndarray) -> None:
        self.placed = np.asarray(placed, dtype=bool).copy()
        if self.placed.ndim != 2:
            raise DeliveryError(f"placed must be 2-D (N, K), got shape {self.placed.shape}")

    @classmethod
    def empty(cls, n_servers: int, n_data: int) -> "DeliveryProfile":
        return cls(np.zeros((n_servers, n_data), dtype=bool))

    @property
    def n_servers(self) -> int:
        return self.placed.shape[0]

    @property
    def n_data(self) -> int:
        return self.placed.shape[1]

    @property
    def n_replicas(self) -> int:
        return int(self.placed.sum())

    def servers_holding(self, k: int) -> np.ndarray:
        """Servers on which data ``k`` is placed."""
        return np.flatnonzero(self.placed[:, k])

    def used_storage(self, sizes: np.ndarray) -> np.ndarray:
        """``(N,)`` MB of reserved storage consumed per server."""
        return self.placed @ np.asarray(sizes, dtype=float)

    def residual_storage(self, scenario: Scenario) -> np.ndarray:
        """``(N,)`` MB of storage still free per server."""
        return scenario.storage - self.used_storage(scenario.sizes)

    def validate(self, scenario: Scenario) -> None:
        """Check the storage constraint (Eq. 6) for every server."""
        if self.placed.shape != (scenario.n_servers, scenario.n_data):
            raise DeliveryError(
                f"placed shape {self.placed.shape} mismatches scenario "
                f"({scenario.n_servers}, {scenario.n_data})"
            )
        used = self.used_storage(scenario.sizes)
        over = used > scenario.storage + 1e-9
        if over.any():
            i = int(np.flatnonzero(over)[0])
            raise StorageViolation(
                f"server {i} stores {used[i]:.1f} MB > reserved {scenario.storage[i]:.1f} MB"
            )

    def copy(self) -> "DeliveryProfile":
        return DeliveryProfile(self.placed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryProfile):
            return NotImplemented
        return bool(np.array_equal(self.placed, other.placed))

    def __hash__(self) -> int:
        raise TypeError("DeliveryProfile is unhashable (mutable)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeliveryProfile(N={self.n_servers}, K={self.n_data}, "
            f"replicas={self.n_replicas})"
        )
