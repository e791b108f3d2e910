"""EUA-style scenario pool: synthetic equivalent of the public EUA dataset.

The paper samples its per-trial scenarios from an extract of the EUA dataset
(125 edge servers / 816 users, Melbourne CBD).  Offline we reproduce the pool
with :func:`synthetic_eua` — a seeded generator matching the EUA statistics
(jittered-grid base stations, 100–150 m radii, users covered by at least one
server) — and, when the real CSV files are present on disk,
:func:`load_eua_csv` builds the identical pool structure from them.

Per-trial sampling (:func:`sample_scenario`) mirrors Section 4.2/4.3: choose
``N`` servers and ``M`` users from the pool, draw storage, powers, rate caps,
data sizes and the request matrix fresh for the trial.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import RadioConfig, WorkloadConfig
from ..errors import DatasetError, ScenarioError
from ..geometry import coverage_matrix
from ..rng import ensure_rng
from ..types import Scenario
from .melbourne import CBD_REGION, COVERAGE_RADIUS_RANGE, EUA_SERVER_COUNT, EUA_USER_COUNT
from .synthetic import place_servers, place_users
from .workload import (
    draw_data_sizes,
    draw_powers,
    draw_rate_caps,
    draw_storage,
    request_matrix,
)

__all__ = ["EuaPool", "synthetic_eua", "synthetic_metro", "load_eua_csv", "sample_scenario"]


@dataclass(frozen=True)
class EuaPool:
    """A pool of candidate server and user positions to sample trials from.

    Attributes
    ----------
    server_xy : ``(P, 2)`` candidate server positions (metres).
    radius : ``(P,)`` coverage radii (metres).
    user_xy : ``(Q, 2)`` candidate user positions (metres).
    name : provenance label (``"synthetic-eua"`` or a file path).
    """

    server_xy: np.ndarray
    radius: np.ndarray
    user_xy: np.ndarray
    name: str = "synthetic-eua"

    def __post_init__(self) -> None:
        if self.server_xy.ndim != 2 or self.server_xy.shape[1] != 2:
            raise DatasetError(f"server_xy must be (P, 2), got {self.server_xy.shape}")
        if self.user_xy.ndim != 2 or self.user_xy.shape[1] != 2:
            raise DatasetError(f"user_xy must be (Q, 2), got {self.user_xy.shape}")
        if self.radius.shape != (self.server_xy.shape[0],):
            raise DatasetError(
                f"radius shape {self.radius.shape} mismatches {self.server_xy.shape[0]} servers"
            )
        if np.any(self.radius <= 0):
            raise DatasetError("all coverage radii must be positive")

    @property
    def n_servers(self) -> int:
        return self.server_xy.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_xy.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EuaPool({self.name!r}, servers={self.n_servers}, users={self.n_users})"


def synthetic_eua(
    seed: int = 0,
    *,
    n_servers: int = EUA_SERVER_COUNT,
    n_users: int = EUA_USER_COUNT,
    placement: str = "grid",
) -> EuaPool:
    """Generate a synthetic EUA-equivalent pool (125 servers / 816 users).

    Deterministic in ``seed``.  Server sites follow a jittered grid over the
    CBD-like region with radii in 100–150 m; users are placed inside the
    coverage union, as in the real dataset.
    """
    rng = ensure_rng(seed)
    server_xy, radius = place_servers(
        CBD_REGION, n_servers, rng, placement=placement, radius_range=COVERAGE_RADIUS_RANGE
    )
    user_xy = place_users(server_xy, radius, n_users, rng)
    return EuaPool(server_xy=server_xy, radius=radius, user_xy=user_xy, name="synthetic-eua")


def synthetic_metro(
    seed: int = 0,
    *,
    districts: int = 6,
    gap: float = 800.0,
    n_servers: int = EUA_SERVER_COUNT,
    n_users: int = EUA_USER_COUNT,
    placement: str = "grid",
) -> EuaPool:
    """A metropolitan pool: several CBD-sized districts tiled along x.

    Each district is an independent :func:`synthetic_eua` pool (seeded
    ``seed * 1000 + d``) offset by the CBD width plus ``gap`` metres.  With
    the default ``gap`` well above twice the maximum coverage radius, no
    coverage circle spans two districts, so the interference graph of any
    sampled scenario decomposes into per-district components — the
    city-scale regime of the ``XL`` benchmark fixture, where each move
    dirties only its own district's best-response rows.  Deterministic in
    ``seed``.
    """
    if districts < 1:
        raise DatasetError(f"districts must be >= 1, got {districts}")
    if gap < 0:
        raise DatasetError(f"gap must be >= 0, got {gap}")
    width = CBD_REGION.width
    server_xy, radius, user_xy = [], [], []
    for d in range(districts):
        district = synthetic_eua(
            seed * 1000 + d,
            n_servers=n_servers,
            n_users=n_users,
            placement=placement,
        )
        offset = np.array([d * (width + gap), 0.0])
        server_xy.append(district.server_xy + offset)
        radius.append(district.radius)
        user_xy.append(district.user_xy + offset)
    return EuaPool(
        server_xy=np.concatenate(server_xy),
        radius=np.concatenate(radius),
        user_xy=np.concatenate(user_xy),
        name=f"synthetic-metro-{districts}",
    )


def load_eua_csv(
    servers_csv: str | Path,
    users_csv: str | Path,
    *,
    radius_range: tuple[float, float] = COVERAGE_RADIUS_RANGE,
    seed: int = 0,
) -> EuaPool:
    """Load a pool from real EUA dataset CSV exports.

    Expects the upstream schema: servers with ``LATITUDE``/``LONGITUDE``
    columns, users likewise (case-insensitive).  Coordinates are projected
    onto a local tangent plane in metres anchored at the server centroid.
    Radii (absent from the raw data) are drawn from ``radius_range`` with
    the given seed, matching common EUA usage.
    """
    server_ll = _read_latlon(servers_csv)
    user_ll = _read_latlon(users_csv)
    if len(server_ll) == 0:
        raise DatasetError(f"no server rows in {servers_csv}")
    anchor = server_ll.mean(axis=0)
    server_xy = _project(server_ll, anchor)
    user_xy = _project(user_ll, anchor)
    rng = ensure_rng(seed)
    radius = rng.uniform(radius_range[0], radius_range[1], size=len(server_xy))
    return EuaPool(
        server_xy=server_xy,
        radius=radius,
        user_xy=user_xy,
        name=f"eua-csv:{Path(servers_csv).name}",
    )


def _read_latlon(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    rows: list[tuple[float, float]] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path} has no header row")
        cols = {name.strip().lower(): name for name in reader.fieldnames}
        try:
            lat_col, lon_col = cols["latitude"], cols["longitude"]
        except KeyError as exc:
            raise DatasetError(
                f"{path} lacks LATITUDE/LONGITUDE columns (found {reader.fieldnames})"
            ) from exc
        for row in reader:
            try:
                rows.append((float(row[lat_col]), float(row[lon_col])))
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"bad coordinate row in {path}: {row!r}") from exc
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def _project(latlon: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Equirectangular projection to metres around ``anchor`` (lat, lon)."""
    earth_r = 6_371_000.0
    lat0 = np.deg2rad(anchor[0])
    dlat = np.deg2rad(latlon[:, 0] - anchor[0])
    dlon = np.deg2rad(latlon[:, 1] - anchor[1])
    x = earth_r * dlon * np.cos(lat0)
    y = earth_r * dlat
    return np.column_stack([x, y])


def sample_scenario(
    pool: EuaPool,
    n: int,
    m: int,
    k: int,
    rng: np.random.Generator | int | None = None,
    *,
    workload: WorkloadConfig | None = None,
    radio: RadioConfig | None = None,
) -> Scenario:
    """Sample one trial scenario from a pool, per Section 4.2/4.3.

    Picks ``n`` distinct servers and then ``m`` users covered by the chosen
    servers (resampling positions inside the chosen coverage union if the
    pool does not contain enough covered candidates — the EUA extract always
    does at the paper's parameter ranges).  Storage, powers, rate caps, data
    sizes and requests are drawn fresh per trial.
    """
    rng = ensure_rng(rng)
    workload = workload or WorkloadConfig()
    radio = radio or RadioConfig()
    if n <= 0 or n > pool.n_servers:
        raise ScenarioError(f"n={n} out of range for pool with {pool.n_servers} servers")
    if m < 0:
        raise ScenarioError(f"negative m={m}")
    if k <= 0:
        raise ScenarioError(f"k={k} must be positive")

    servers = rng.choice(pool.n_servers, size=n, replace=False)
    server_xy = pool.server_xy[servers]
    radius = pool.radius[servers]

    cover = coverage_matrix(server_xy, radius, pool.user_xy)
    covered = np.flatnonzero(cover.any(axis=0))
    if len(covered) >= m:
        chosen = rng.choice(covered, size=m, replace=False)
        user_xy = pool.user_xy[chosen]
    else:
        # Top up with fresh positions inside the chosen coverage union.
        extra = m - len(covered)
        fresh = place_users(server_xy, radius, extra, rng)
        user_xy = np.concatenate([pool.user_xy[covered], fresh], axis=0)

    return Scenario(
        server_xy=server_xy,
        radius=radius,
        storage=draw_storage(n, rng, workload),
        channels=radio.draw_channels(n, rng),
        user_xy=user_xy,
        power=draw_powers(m, rng, workload),
        rmax=draw_rate_caps(m, rng, workload),
        sizes=draw_data_sizes(k, rng, workload),
        requests=request_matrix(m, k, rng, workload),
    )
