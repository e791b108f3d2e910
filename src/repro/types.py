"""Core value types: servers, users, data items, and the Scenario container.

The package is arrays-first: the :class:`Scenario` stores every quantity as a
NumPy array so the radio and delivery kernels vectorise, while the
:class:`EdgeServer` / :class:`User` / :class:`DataItem` dataclasses provide an
ergonomic per-entity view for examples and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ScenarioError
from .geometry import coverage_matrix, covering_sets

__all__ = ["EdgeServer", "User", "DataItem", "Scenario"]


@dataclass(frozen=True)
class EdgeServer:
    """One edge server: a coverage disc plus reserved storage and channels."""

    index: int
    x: float
    y: float
    radius: float
    storage: float
    n_channels: int

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class User:
    """One mobile user: a position, transmit power and Shannon rate cap."""

    index: int
    x: float
    y: float
    power: float
    rmax: float

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class DataItem:
    """One data item (the unit of replica placement), sized in MB."""

    index: int
    size: float


class Scenario:
    """Immutable container for one IDDE problem's entities.

    Parameters
    ----------
    server_xy : ``(N, 2)`` float array of server positions in metres.
    radius : ``(N,)`` coverage radii in metres.
    storage : ``(N,)`` reserved storage ``A_i`` in MB.
    channels : ``(N,)`` int channel counts ``|C_i|``.
    user_xy : ``(M, 2)`` user positions in metres.
    power : ``(M,)`` transmit powers ``p_j`` in Watts.
    rmax : ``(M,)`` per-user Shannon caps ``R_{j,max}`` in MB/s.
    sizes : ``(K,)`` data sizes ``s_k`` in MB.
    requests : ``(M, K)`` boolean request matrix ``ζ_{j,k}``.

    Every array is copied and frozen (``writeable=False``); derived
    structures (coverage, covering sets) are computed lazily and cached.
    """

    __slots__ = (
        "server_xy",
        "radius",
        "storage",
        "channels",
        "user_xy",
        "power",
        "rmax",
        "sizes",
        "requests",
        "__dict__",
    )

    def __init__(
        self,
        server_xy: np.ndarray,
        radius: np.ndarray,
        storage: np.ndarray,
        channels: np.ndarray,
        user_xy: np.ndarray,
        power: np.ndarray,
        rmax: np.ndarray,
        sizes: np.ndarray,
        requests: np.ndarray,
    ) -> None:
        self.server_xy = _frozen(np.asarray(server_xy, dtype=float))
        self.radius = _frozen(np.asarray(radius, dtype=float))
        self.storage = _frozen(np.asarray(storage, dtype=float))
        self.channels = _frozen(np.asarray(channels, dtype=np.int64))
        self.user_xy = _frozen(np.asarray(user_xy, dtype=float))
        self.power = _frozen(np.asarray(power, dtype=float))
        self.rmax = _frozen(np.asarray(rmax, dtype=float))
        self.sizes = _frozen(np.asarray(sizes, dtype=float))
        self.requests = _frozen(np.asarray(requests, dtype=bool))
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n, m, k = self.n_servers, self.n_users, self.n_data
        if self.server_xy.ndim != 2 or self.server_xy.shape[1] != 2:
            raise ScenarioError(f"server_xy must be (N, 2), got {self.server_xy.shape}")
        if self.user_xy.ndim != 2 or self.user_xy.shape[1] != 2:
            raise ScenarioError(f"user_xy must be (M, 2), got {self.user_xy.shape}")
        for name, arr, expect in (
            ("radius", self.radius, (n,)),
            ("storage", self.storage, (n,)),
            ("channels", self.channels, (n,)),
            ("power", self.power, (m,)),
            ("rmax", self.rmax, (m,)),
            ("sizes", self.sizes, (k,)),
            ("requests", self.requests, (m, k)),
        ):
            if arr.shape != expect:
                raise ScenarioError(f"{name} has shape {arr.shape}, expected {expect}")
        if n == 0:
            raise ScenarioError("scenario needs at least one edge server")
        if np.any(self.radius <= 0):
            raise ScenarioError("all coverage radii must be positive")
        if np.any(self.storage < 0):
            raise ScenarioError("storage capacities must be non-negative")
        if np.any(self.channels < 1):
            raise ScenarioError("every server needs at least one channel")
        if m and np.any(self.power <= 0):
            raise ScenarioError("user powers must be positive")
        if m and np.any(self.rmax <= 0):
            raise ScenarioError("user rate caps must be positive")
        if k and np.any(self.sizes <= 0):
            raise ScenarioError("data sizes must be positive")

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.server_xy.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_xy.shape[0]

    @property
    def n_data(self) -> int:
        return self.sizes.shape[0]

    @property
    def max_channels(self) -> int:
        return int(self.channels.max()) if self.n_servers else 0

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @cached_property
    def coverage(self) -> np.ndarray:
        """Boolean ``(N, M)`` coverage matrix (server *i* covers user *j*)."""
        cov = coverage_matrix(self.server_xy, self.radius, self.user_xy)
        cov.setflags(write=False)
        return cov

    @cached_property
    def covering_servers(self) -> list[np.ndarray]:
        """Per-user arrays of covering server indices (the paper's ``V_j``)."""
        return covering_sets(self.coverage)

    @cached_property
    def channel_mask(self) -> np.ndarray:
        """Boolean ``(N, X)`` validity mask; ``X = max_channels``."""
        x = np.arange(self.max_channels)
        mask = x[None, :] < self.channels[:, None]
        mask.setflags(write=False)
        return mask

    @cached_property
    def covered_users(self) -> np.ndarray:
        """Boolean ``(M,)``: user has at least one covering server."""
        out = self.coverage.any(axis=0)
        out.setflags(write=False)
        return out

    #: The cached structure that depends only on the servers and the users' positions.
    _GEOMETRY = ("coverage", "covering_servers", "covered_users")

    def adopt_geometry(self, source: "Scenario", moved: np.ndarray) -> None:
        """Take over the coverage structure ``source`` has already computed.

        The caller guarantees that ``source`` has this scenario's servers and
        its users at the same positions, except the users in ``moved``.
        Their coverage columns, covering sets and covered flags are
        recomputed; every other user's are ``source``'s, which is exactly
        what this scenario would compute (each column depends only on the
        servers and that user's position).
        """
        cached = source.__dict__
        if not moved.size:
            for name in self._GEOMETRY:
                if name in cached:
                    self.__dict__.setdefault(name, cached[name])
            return
        if "coverage" not in cached:
            return
        cov = cached["coverage"].copy()
        cov[:, moved] = coverage_matrix(self.server_xy, self.radius, self.user_xy[moved])
        cov.setflags(write=False)
        self.__dict__.setdefault("coverage", cov)
        if "covered_users" in cached:
            covered = cached["covered_users"].copy()
            covered[moved] = cov[:, moved].any(axis=0)
            covered.setflags(write=False)
            self.__dict__.setdefault("covered_users", covered)
        if "covering_servers" in cached:
            sets = list(cached["covering_servers"])
            for j in moved.tolist():
                sets[j] = np.flatnonzero(cov[:, j])
            self.__dict__.setdefault("covering_servers", sets)

    @cached_property
    def total_storage(self) -> float:
        """``Σ_i A_i`` — the total reserved storage in MB."""
        return float(self.storage.sum())

    @cached_property
    def total_requests(self) -> int:
        """``Σ_j Σ_k ζ_{j,k}`` — the denominator of Eq. (9)."""
        return int(self.requests.sum())

    # ------------------------------------------------------------------
    # entity views
    # ------------------------------------------------------------------
    def server(self, i: int) -> EdgeServer:
        return EdgeServer(
            index=i,
            x=float(self.server_xy[i, 0]),
            y=float(self.server_xy[i, 1]),
            radius=float(self.radius[i]),
            storage=float(self.storage[i]),
            n_channels=int(self.channels[i]),
        )

    def user(self, j: int) -> User:
        return User(
            index=j,
            x=float(self.user_xy[j, 0]),
            y=float(self.user_xy[j, 1]),
            power=float(self.power[j]),
            rmax=float(self.rmax[j]),
        )

    def data_item(self, k: int) -> DataItem:
        return DataItem(index=k, size=float(self.sizes[k]))

    def servers(self) -> Iterator[EdgeServer]:
        return (self.server(i) for i in range(self.n_servers))

    def users(self) -> Iterator[User]:
        return (self.user(j) for j in range(self.n_users))

    def data_items(self) -> Iterator[DataItem]:
        return (self.data_item(k) for k in range(self.n_data))

    # ------------------------------------------------------------------
    # dunder & construction helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Scenario(N={self.n_servers}, M={self.n_users}, K={self.n_data}, "
            f"requests={self.total_requests})"
        )

    @classmethod
    def from_entities(
        cls,
        servers: Sequence[EdgeServer],
        users: Sequence[User],
        data: Sequence[DataItem],
        requests: np.ndarray,
    ) -> "Scenario":
        """Build a Scenario from per-entity dataclasses."""
        return cls(
            server_xy=np.array([[s.x, s.y] for s in servers], dtype=float).reshape(-1, 2),
            radius=np.array([s.radius for s in servers], dtype=float),
            storage=np.array([s.storage for s in servers], dtype=float),
            channels=np.array([s.n_channels for s in servers], dtype=np.int64),
            user_xy=np.array([[u.x, u.y] for u in users], dtype=float).reshape(-1, 2),
            power=np.array([u.power for u in users], dtype=float),
            rmax=np.array([u.rmax for u in users], dtype=float),
            sizes=np.array([d.size for d in data], dtype=float),
            requests=np.asarray(requests, dtype=bool),
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out
