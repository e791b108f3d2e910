"""The vectorised SINR engine: incremental interference bookkeeping.

This is the inner kernel of the IDDE-U game.  For one user ``j`` evaluating
a move, the denominator of Eq. (2) decomposes into a *channel-indexed*
aggregate that is independent of the target server:

``den(i, x) = Σ_{o ∈ V_j} g_{o,j} · P'[o, x] + ω``

where ``P'[o, x]`` is the total transmit power allocated to channel ``x`` of
server ``o`` excluding ``j`` itself.  Both the intra-cell term (``o = i``)
and the inter-cell term (``o ≠ i``) carry the same gain-to-``j`` structure,
so one matrix–vector product per user yields the interference for *every*
candidate channel at once, and the SINR for every candidate ``(i, x)`` is a
rank-1 outer structure on top of it.  The engine maintains the per-channel
power table ``P[N, X]`` incrementally under assign/unassign, making a
best-response evaluation ``O(|V_j| · X)``.

The *benefit* of Eq. (12) is the interference-normalised received power with
the user's own power included in the intra-cell sum and no noise term:

``β(i, x) = g_{i,j} p_j / (W_j[x] + g_{i,j} p_j)``

which orders candidate channels identically to the SINR when the noise is
negligible (it is, at −174 dBm) but is exactly the paper's driving function.

Batched evaluation
------------------
The engine also exposes a *batched* path (:meth:`SinrEngine.batch_interference`
/ :meth:`SinrEngine.batch_best_responses`) that evaluates every user's
candidate grid in one einsum pass over a padded covering-server tensor
``(M, Smax)``.  That tensor and the gain matrix live in :class:`RadioTables`,
read-only structure built once per scenario and shared by every engine of
an :class:`~repro.core.instance.IDDEInstance`.  The game runs on the batched
path; a user a move made stale is re-evaluated by
:meth:`SinrEngine.best_response`, the fused single-user kernel that returns
only the best move and the current benefit.  The per-user grid
(:meth:`SinrEngine.candidates`) drives the test suite's Algorithm 1 oracle.
All three reduce the interference aggregate over the *same* padded row with
``np.einsum``, so the floats they produce are bit-for-bit identical (padding
contributes exact zeros and the reduction grouping is length-determined)
and best-response dynamics driven by any of them take identical move
sequences.  Do not "simplify" the per-user reduction back to ``g @ p``:
BLAS accumulates in a different order and the bitwise parity — asserted by
``tests/core/test_game_kernels.py`` and ``tests/oracles/test_parity.py`` —
would quietly degrade to approximate.

What stays numpy in a game turn
-------------------------------
A fused turn sees a user's few candidates (on the paper's shape about 2.4
covering servers and 3 channels), so numpy's per-call overhead, not
arithmetic, sets its cost.  Only the reduction above stays numpy, because
its order is what the parity rests on.  Everything after it — the
own-signal subtraction and clamp, the current benefit, and the argmax over
the valid candidates — is a handful of IEEE double operations, done on
Python floats read from the user's :class:`UserRow` (built once per
:class:`RadioTables`, on the first fused call).  Python and numpy round
``+``, ``-`` and ``/`` identically, and a first-occurrence scan picks the
candidate ``np.argmax`` picks, so the result is the same bits.  The
mutation methods likewise check Eq. (1) on scalars; whole profiles go
through :func:`check_eq1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..config import RadioConfig
from ..errors import AllocationError, CoverageError
from ..types import Scenario
from .channel import gain_matrix
from .rate import capped_rate

__all__ = [
    "SinrEngine",
    "RadioTables",
    "UserRow",
    "CandidateView",
    "BatchBestResponse",
    "check_eq1",
]

UNALLOCATED = -1


@dataclass(frozen=True)
class CandidateView:
    """The vectorised evaluation of one user's candidate moves.

    Attributes
    ----------
    servers : ``(S,)`` covering server indices (the paper's ``V_j``).
    valid : ``(S, X)`` mask of existing channels per covering server.
    sinr : ``(S, X)`` SINR for allocating the user to each candidate.
    rate : ``(S, X)`` capped data rate for each candidate (MB/s).
    benefit : ``(S, X)`` Eq. (12) benefit for each candidate.
    """

    servers: np.ndarray
    valid: np.ndarray
    sinr: np.ndarray
    rate: np.ndarray
    benefit: np.ndarray

    def best(self, metric: str = "benefit") -> tuple[int, int, float]:
        """Return ``(server, channel, value)`` of the best valid candidate.

        Raises
        ------
        CoverageError
            If the user has no covering server (no candidates).
        """
        values = getattr(self, metric)
        if values.size == 0:
            raise CoverageError("user has no covering server")
        masked = np.where(self.valid, values, -np.inf)
        flat = int(np.argmax(masked))
        s, x = divmod(flat, masked.shape[1])
        return int(self.servers[s]), int(x), float(masked[s, x])


@dataclass(frozen=True)
class BatchBestResponse:
    """Per-user best candidate moves for a batch of users.

    ``server[u] == UNALLOCATED`` marks a user with no covering server (the
    per-user path returns ``None`` for it); its ``benefit`` entry is 0 and
    must not be interpreted.
    """

    users: np.ndarray  # (U,) user indices evaluated
    server: np.ndarray  # (U,) best server, UNALLOCATED when no candidate
    channel: np.ndarray  # (U,) best channel, UNALLOCATED when no candidate
    benefit: np.ndarray  # (U,) Eq. (12) benefit of the best candidate
    current_benefit: np.ndarray  # (U,) benefit at the current allocation


class UserRow(NamedTuple):
    """One user's covering structure as Python scalars (the fused kernel's view).

    ``servers`` is ``V_j`` in slot order, ``signal[s]`` the user's own
    received power via slot ``s`` (``g_{i,j} p_j``, bitwise the table's
    entry), and ``channels[s]`` the channels that exist on slot ``s``'s
    server, ascending: the valid ``(slot, channel)`` pairs in the
    row-major order ``np.argmax`` scans the padded grid in.
    """

    servers: tuple[int, ...]
    signal: tuple[float, ...]
    channels: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RadioTables:
    """The read-only radio structure of one scenario.

    Coverage, powers and gains never change under allocation moves, so
    this is built once (:meth:`build`) and shared by every engine over the
    same scenario; every array is marked ``write=False``, and the per-user
    :attr:`rows` are tuples.
    """

    gain: np.ndarray  # (N, M) channel gain g_{i,j}
    count: np.ndarray  # (M,) |V_j|: the real slots lead each padded row
    cov: np.ndarray  # (M, Smax) covering server indices, padded with 0
    mask: np.ndarray  # (M, Smax) True on real covering slots
    cov_gain: np.ndarray  # (M, Smax) gain to the user, 0 on padding
    signal: np.ndarray  # (M, Smax) gain · own power, 0 on padding
    valid: np.ndarray  # (M, Smax, X) real slot × existing channel

    @classmethod
    def build(
        cls,
        scenario: Scenario,
        cfg: RadioConfig,
        gain: np.ndarray | None = None,
    ) -> "RadioTables":
        """Gain matrix (``gain`` overrides the power law) and padded tables.

        Row ``j`` of ``cov`` lists ``V_j`` in ascending server order, the
        order of :attr:`~repro.types.Scenario.covering_servers`.
        """
        n, m = scenario.n_servers, scenario.n_users
        if gain is None:
            gain = gain_matrix(scenario.server_xy, scenario.user_xy, cfg)
        else:
            gain = np.asarray(gain, dtype=float)
            if gain.shape != (n, m):
                raise AllocationError(
                    f"gain override must be (N, M) = {(n, m)}, got {gain.shape}"
                )
            if np.any(gain <= 0):
                raise AllocationError("gain override must be strictly positive")
            gain = gain.copy()
        count = scenario.coverage.sum(axis=0, dtype=np.int64)
        smax = max(int(count.max(initial=0)), 1)
        return cls._frozen(
            gain, count, *_padded_rows(scenario, gain, slice(None), count, smax)
        )

    def patched(self, scenario: Scenario, cfg: RadioConfig, moved: np.ndarray) -> "RadioTables":
        """These tables for ``scenario``, in which only the users ``moved`` moved.

        Only the moved users' parts are recomputed: their gain columns,
        ``count`` entries and padded rows, and their :attr:`rows` entries
        when these tables have built them.  When the widest covering set
        ``Smax`` changes, the padded tables are re-padded with 0/``False``
        or sliced (every other row's slots past the new ``Smax`` are
        padding).  Every step is elementwise, so the result is bitwise
        :meth:`build` on ``scenario`` (the power-law gain; a gain override
        fixes every link and moves no user).
        """
        gain = self.gain.copy()
        gain[:, moved] = gain_matrix(scenario.server_xy, scenario.user_xy[moved], cfg)
        count = self.count.copy()
        count[moved] = scenario.coverage[:, moved].sum(axis=0, dtype=np.int64)
        smax = max(int(count.max(initial=0)), 1)
        fresh = _padded_rows(scenario, gain, moved, count[moved], smax)
        padded = []
        for old, new in zip((self.cov, self.mask, self.cov_gain, self.signal, self.valid), fresh):
            width = old.shape[1]
            if smax <= width:
                out = old[:, :smax].copy()
            else:
                pad = np.zeros((old.shape[0], smax - width, *old.shape[2:]), dtype=old.dtype)
                out = np.concatenate((old, pad), axis=1)
            out[moved] = new
            padded.append(out)
        tables = self._frozen(gain, count, *padded)
        if "rows" in self.__dict__:
            cov, mask, _, signal, valid = fresh
            rows = list(self.rows)
            for j, row in zip(moved.tolist(), _user_rows(cov, mask, signal, valid, count[moved])):
                rows[j] = row
            tables.__dict__["rows"] = tuple(rows)
        return tables

    @classmethod
    def _frozen(cls, *arrays: np.ndarray) -> "RadioTables":
        """The tables over ``arrays`` (in field order), each made read-only."""
        for array in arrays:
            array.setflags(write=False)
        return cls(*arrays)

    @cached_property
    def rows(self) -> tuple[UserRow, ...]:
        """Every user's :class:`UserRow`, built on first use and then shared.

        Only the fused :meth:`SinrEngine.best_response` reads them, so a
        scenario whose game never re-evaluates a single user (the batched
        refresh, :meth:`~repro.core.game.IddeUGame.is_nash`) never pays
        for them; they ride along wherever these tables are carried, and
        :meth:`patched` rebuilds only the moved users' entries.
        """
        return tuple(_user_rows(self.cov, self.mask, self.signal, self.valid, self.count))


def _padded_rows(
    scenario: Scenario,
    gain: np.ndarray,
    users: np.ndarray | slice,
    count: np.ndarray,
    smax: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``cov``, ``mask``, ``cov_gain``, ``signal`` and ``valid`` rows of ``users``.

    ``count`` holds the users' ``|V_j|`` and ``smax`` the padded width.
    Every entry is a gather or an elementwise product, so a user's row is
    the same bits whichever users are built beside it.
    """
    cover = scenario.coverage[:, users]
    gain = gain[:, users]
    mask = np.arange(smax)[None, :] < count[:, None]
    cov = np.zeros((count.shape[0], smax), dtype=np.int64)
    # Row-major nonzeros of the (U, N) transpose: users ascending, each
    # user's servers ascending — exactly the fill order of ``mask``.
    cov[mask] = np.nonzero(cover.T)[1]
    cov_gain = np.where(mask, gain[cov, np.arange(count.shape[0])[:, None]], 0.0)
    signal = cov_gain * scenario.power[users][:, None]
    x = max(scenario.max_channels, 1)
    valid = scenario.channel_mask[cov, :x] & mask[:, :, None]
    return cov, mask, cov_gain, signal, valid


def _user_rows(
    cov: np.ndarray,
    mask: np.ndarray,
    signal: np.ndarray,
    valid: np.ndarray,
    count: np.ndarray,
) -> list[UserRow]:
    """The :class:`UserRow` of each of these padded rows."""
    cov_list = cov.tolist()
    signal_list = signal.tolist()
    # Every real slot carries its server's channel mask, so one tuple per
    # server serves every row that server covers.
    servers, first = np.unique(cov[mask], return_index=True)
    masks = valid[mask][first].tolist()
    channels = {
        i: tuple([x for x, ok in enumerate(row) if ok])
        for i, row in zip(servers.tolist(), masks)
    }
    counts = count.tolist()
    covering = [tuple(row[:c]) for row, c in zip(cov_list, counts)]
    return list(
        map(
            UserRow,
            covering,
            [tuple(row[:c]) for row, c in zip(signal_list, counts)],
            [tuple([channels[i] for i in row]) for row in covering],
        )
    )


class SinrEngine:
    """Mutable interference state over a fixed :class:`Scenario`.

    The engine owns the allocation arrays (``server[j]``, ``channel[j]``,
    with −1 meaning unallocated) and the per-channel power table, and
    exposes: single-user evaluation (the fused :meth:`best_response` and
    the full grid of :meth:`candidates`), batched evaluation
    (:meth:`batch_best_responses`), global rate evaluation (:meth:`rates`),
    and incremental mutation (:meth:`assign`, :meth:`unassign`,
    :meth:`move`, :meth:`load_profile`).  It holds no tracer: its game
    counts the evaluations it asks for (:meth:`~repro.core.game.IddeUGame.run`).

    Parameters
    ----------
    scenario:
        The problem entities.
    cfg:
        Radio parameters; channel counts come from the scenario (which was
        itself provisioned from a :class:`~repro.config.RadioConfig`).
    tables:
        Prebuilt :class:`RadioTables` of ``scenario`` to share; built from
        the deterministic power law when omitted.  A shadowed or faded
        gain model (:mod:`repro.radio.fading`) enters as
        ``RadioTables.build(scenario, cfg, gain)``;
        :meth:`~repro.core.instance.IDDEInstance.new_engine` passes the
        instance's cached tables.
    """

    def __init__(
        self,
        scenario: Scenario,
        cfg: RadioConfig | None = None,
        *,
        tables: RadioTables | None = None,
    ):
        self.scenario = scenario
        self.cfg = cfg or RadioConfig()
        if tables is None:
            tables = RadioTables.build(scenario, self.cfg)
        elif tables.gain.shape != (scenario.n_servers, scenario.n_users):
            raise AllocationError(
                f"shared tables are for a {tables.gain.shape} gain matrix, not "
                f"(N, M) = {(scenario.n_servers, scenario.n_users)}"
            )
        self._tables = tables
        #: ``(N, M)`` gain matrix, read-only and shared with ``_tables``.
        self.gain = tables.gain
        self.coverage = scenario.coverage
        self.power = scenario.power
        self.noise = self.cfg.noise_watts
        self.bandwidth = self.cfg.bandwidth
        n, x = scenario.n_servers, max(scenario.max_channels, 1)
        self.n_channels = x
        self._n_users = scenario.n_users
        #: ``|C_i|`` per server as Python ints, for the scalar Eq. (1) check.
        self._channels: list[int] = scenario.channels.tolist()
        #: total allocated power per (server, channel)
        self.channel_power = np.zeros((n, x), dtype=float)
        #: number of users per (server, channel)
        self.channel_count = np.zeros((n, x), dtype=np.int64)
        self.alloc_server = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
        self.alloc_channel = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
        self._channel_valid = scenario.channel_mask

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, j: int, server: int, channel: int) -> None:
        """Allocate user ``j`` to ``(server, channel)``.

        Enforces Eq. (1): the server must cover the user, and the channel
        must exist on the server.  The user must currently be unallocated
        (use :meth:`move` to relocate).  Every index must be an in-range
        integer (a ``bool`` is not one), so a server of −1 cannot wrap to
        the last server and leave a phantom interferer behind.
        """
        self._check_user(j)
        _check_index(server, len(self._channels), "server")
        if self.alloc_server.item(j) != UNALLOCATED:
            raise AllocationError(f"user {j} is already allocated; use move()")
        if not self.coverage.item(server, j):
            raise CoverageError(f"server {server} does not cover user {j}")
        _check_index(channel, self._channels[server], f"server {server}'s channel")
        self.alloc_server[j] = server
        self.alloc_channel[j] = channel
        self.channel_power[server, channel] += self.power[j]
        self.channel_count[server, channel] += 1

    def unassign(self, j: int) -> None:
        """Deallocate user ``j`` (no-op if already unallocated)."""
        self._check_user(j)
        i = self.alloc_server.item(j)
        if i == UNALLOCATED:
            return
        x = self.alloc_channel.item(j)
        self.channel_power[i, x] -= self.power[j]
        self.channel_count[i, x] -= 1
        # Guard against float drift accumulating across many moves.
        if self.channel_count.item(i, x) == 0:
            self.channel_power[i, x] = 0.0
        self.alloc_server[j] = UNALLOCATED
        self.alloc_channel[j] = UNALLOCATED

    def move(self, j: int, server: int, channel: int) -> None:
        """Relocate user ``j`` to ``(server, channel)`` atomically."""
        self.unassign(j)
        self.assign(j, server, channel)

    def reset(self) -> None:
        """Return to the all-unallocated state."""
        self.channel_power.fill(0.0)
        self.channel_count.fill(0)
        self.alloc_server.fill(UNALLOCATED)
        self.alloc_channel.fill(UNALLOCATED)

    def load_profile(self, server: np.ndarray, channel: np.ndarray) -> None:
        """Replace the full allocation state from profile arrays.

        All or nothing: the whole profile is checked against Eq. (1) first
        (:func:`check_eq1`), so a bad profile leaves the engine untouched.
        The load itself accumulates the channel powers in ascending user
        order, the float additions of an :meth:`assign` loop, so the state
        is bitwise the same.  A float or bool index array is refused, not
        truncated.
        """
        server, channel = index_arrays(server, channel)
        users, _ = check_eq1(self.scenario, server, channel)
        srv, ch = server[users], channel[users]
        self.reset()
        self.alloc_server[users] = srv
        self.alloc_channel[users] = ch
        # ``np.add.at`` is unbuffered and applies the updates in index order.
        np.add.at(self.channel_power, (srv, ch), self.power[users])
        np.add.at(self.channel_count, (srv, ch), 1)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def interference_profile(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel interference aggregate ``W_j[x]`` for user ``j``.

        Returns ``(servers, W)`` where ``servers`` is ``V_j`` and ``W`` has
        shape ``(X,)``: the gain-weighted power on each channel index summed
        over the covering servers, excluding ``j``'s own contribution.
        """
        self._check_user(j)
        tables = self._tables
        servers = tables.cov[j, : tables.count[j]]
        if servers.size == 0:
            return servers, np.zeros(self.n_channels)
        # Reduce over the *padded* covering row with einsum, exactly like the
        # batched path: padding contributes exact zeros, and the identical
        # length/grouping keeps the two kernels bit-for-bit interchangeable.
        g = tables.cov_gain[j]
        p = self.channel_power[tables.cov[j], :]
        w = np.einsum("s,sx->x", g, p)
        i, x = self.alloc_server[j], self.alloc_channel[j]
        if i != UNALLOCATED:
            w[x] -= self.gain[i, j] * self.power[j]
            # Clamp tiny negative residue from float cancellation.
            if w[x] < 0.0:
                w[x] = 0.0
        return servers, w

    def batch_interference(self, users: np.ndarray | None = None) -> np.ndarray:
        """``(U, X)`` interference aggregates ``W_j[x]`` for a user batch.

        One einsum pass over the padded covering tensor; per-row results are
        bit-for-bit equal to :meth:`interference_profile`.  ``users`` defaults
        to all users.
        """
        tables = self._tables
        if users is None:
            users = np.arange(self.scenario.n_users)
        else:
            users = np.asarray(users, dtype=np.int64)
        g = tables.cov_gain[users]  # (U, Smax)
        p = self.channel_power[tables.cov[users], :]  # (U, Smax, X)
        w = np.einsum("us,usx->ux", g, p)
        srv = self.alloc_server[users]
        own = np.flatnonzero(srv != UNALLOCATED)
        if own.size:
            ch = self.alloc_channel[users[own]]
            sub = self.gain[srv[own], users[own]] * self.power[users[own]]
            # Same subtract-then-clamp as the per-user path (negative residue
            # from float cancellation only).
            w[own, ch] = np.maximum(w[own, ch] - sub, 0.0)
        return w

    def batch_best_responses(self, users: np.ndarray | None = None) -> BatchBestResponse:
        """Benefit-maximising moves for a user batch in one vectorised pass.

        Per user this matches :meth:`candidates` followed by
        ``CandidateView.best("benefit")`` — including argmax tie-breaking,
        because the padded grid preserves candidate order and masks padding
        to ``-inf`` — plus :meth:`user_benefit` for ``current_benefit``.
        Users without a covering server get ``server == channel ==
        UNALLOCATED``.
        """
        tables = self._tables
        if users is None:
            users = np.arange(self.scenario.n_users)
        else:
            users = np.asarray(users, dtype=np.int64)
        u = users.shape[0]
        if u == 0:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=float)
            return BatchBestResponse(
                users=users.astype(np.int64),
                server=empty_i,
                channel=empty_i.copy(),
                benefit=empty_f,
                current_benefit=empty_f.copy(),
            )
        w = self.batch_interference(users)  # (U, X)
        signal = tables.signal[users]  # (U, Smax)
        # 0/0 on padded slots only (signal is exactly 0 there); masked below.
        with np.errstate(invalid="ignore"):
            benefit = signal[:, :, None] / (w[:, None, :] + signal[:, :, None])
        masked = np.where(tables.valid[users], benefit, -np.inf)
        flat = masked.reshape(u, -1)
        arg = np.argmax(flat, axis=1)
        rows = np.arange(u)
        s_idx, x_idx = np.divmod(arg, self.n_channels)
        has_candidate = tables.mask[users].any(axis=1)
        best_server = np.where(
            has_candidate, tables.cov[users][rows, s_idx], UNALLOCATED
        ).astype(np.int64)
        best_channel = np.where(has_candidate, x_idx, UNALLOCATED).astype(np.int64)
        best_benefit = np.where(has_candidate, flat[rows, arg], 0.0)
        # Current benefits, Eq. (12) at the standing allocation.
        srv = self.alloc_server[users]
        current = np.zeros(u, dtype=float)
        own = np.flatnonzero(srv != UNALLOCATED)
        if own.size:
            ch = self.alloc_channel[users[own]]
            own_signal = self.gain[srv[own], users[own]] * self.power[users[own]]
            current[own] = own_signal / (w[own, ch] + own_signal)
        return BatchBestResponse(
            users=users,
            server=best_server,
            channel=best_channel,
            benefit=best_benefit,
            current_benefit=current,
        )

    def best_response(self, j: int) -> tuple[int, int, float, float] | None:
        """User ``j``'s benefit-maximising move, fused into one evaluation.

        Returns ``(server, channel, benefit, current_benefit)``, or ``None``
        when no server covers the user.  Bit-for-bit the result of
        :meth:`candidates` → ``best("benefit")`` plus :meth:`user_benefit`
        (and of the user's row of :meth:`batch_best_responses`).

        Only the interference aggregate stays numpy: the same padded
        ``einsum`` as every other path, so ``W_j`` is bitwise theirs.  The
        rest is a handful of IEEE operations on Python floats, read from
        the user's :class:`UserRow`: the own-signal subtraction and clamp,
        the current benefit, and a first-occurrence scan of the valid
        candidates (``b > best`` from ``-inf``), which picks exactly the
        candidate ``np.argmax`` picks on the masked grid.  A turn has a
        few candidates, so building and reducing a masked grid would cost
        more than the scan.
        """
        self._check_user(j)
        tables = self._tables
        servers, signal, channels = tables.rows[j]
        if not servers:
            return None
        # ``take`` is the gather ``channel_power[cov[j]]`` at a fraction of
        # fancy indexing's per-call cost; the copy it returns is the same.
        w = np.einsum(
            "s,sx->x", tables.cov_gain[j], self.channel_power.take(tables.cov[j], axis=0)
        ).tolist()
        current = 0.0
        i = self.alloc_server.item(j)
        if i != UNALLOCATED:
            x = self.alloc_channel.item(j)
            own = signal[servers.index(i)]
            # Same subtract-then-clamp as interference_profile.
            w[x] = max(w[x] - own, 0.0)
            current = own / (w[x] + own)
        best, slot, channel = -np.inf, 0, 0
        for s, sig in enumerate(signal):
            for x in channels[s]:
                b = sig / (w[x] + sig)
                if b > best:
                    best, slot, channel = b, s, x
        return servers[slot], channel, best, current

    def candidates(self, j: int) -> CandidateView:
        """Evaluate every candidate ``(server, channel)`` for user ``j``."""
        servers, w = self.interference_profile(j)
        s = len(servers)
        if s == 0:
            empty = np.empty((0, self.n_channels))
            return CandidateView(
                servers=servers,
                valid=np.empty((0, self.n_channels), dtype=bool),
                sinr=empty,
                rate=empty,
                benefit=empty,
            )
        signal = (self.gain[servers, j] * self.power[j])[:, None]  # (S, 1)
        den = w[None, :] + self.noise  # (1, X) broadcast to (S, X)
        sinr = signal / den
        rate = capped_rate(self.bandwidth, sinr, self.scenario.rmax[j])
        benefit = signal / (w[None, :] + signal)
        valid = self._channel_valid[servers, : self.n_channels]
        return CandidateView(servers=servers, valid=valid, sinr=sinr, rate=rate, benefit=benefit)

    def user_sinr(self, j: int) -> float:
        """SINR of user ``j`` at its current allocation (0 if unallocated)."""
        self._check_user(j)
        i, x = self.alloc_server[j], self.alloc_channel[j]
        if i == UNALLOCATED:
            return 0.0
        _, w = self.interference_profile(j)
        return float(self.gain[i, j] * self.power[j] / (w[x] + self.noise))

    def user_rate(self, j: int) -> float:
        """Eq. (4) data rate of user ``j`` at its current allocation."""
        self._check_user(j)
        i = self.alloc_server[j]
        if i == UNALLOCATED:
            return 0.0
        return float(
            capped_rate(self.bandwidth, np.asarray(self.user_sinr(j)), self.scenario.rmax[j])
        )

    def user_benefit(self, j: int) -> float:
        """Eq. (12) benefit of user ``j`` at its current allocation."""
        self._check_user(j)
        i, x = self.alloc_server[j], self.alloc_channel[j]
        if i == UNALLOCATED:
            return 0.0
        _, w = self.interference_profile(j)
        signal = self.gain[i, j] * self.power[j]
        return float(signal / (w[x] + signal))

    def rates(self) -> np.ndarray:
        """Vectorised Eq. (4) rates for all users (``(M,)``, MB/s).

        Unallocated users contribute zero, matching the indicator in
        Eq. (4).
        """
        m = self.scenario.n_users
        out = np.zeros(m)
        alloc = np.flatnonzero(self.alloc_server != UNALLOCATED)
        if len(alloc) == 0:
            return out
        a = self.alloc_server[alloc]
        x = self.alloc_channel[alloc]
        # Gain-weighted channel power from every server to each user, on the
        # user's own channel index: (N, Ma) gather then a masked reduction
        # over the covering servers only.
        gw = self.gain[:, alloc] * self.coverage[:, alloc]  # (N, Ma)
        p_sel = self.channel_power[:, x]  # (N, Ma)
        w = np.einsum("nm,nm->m", gw, p_sel)
        own = self.gain[a, alloc] * self.power[alloc]
        w = np.maximum(w - own, 0.0)
        sinr = own / (w + self.noise)
        out[alloc] = capped_rate(self.bandwidth, sinr, self.scenario.rmax[alloc])
        return out

    def average_rate(self) -> float:
        """Eq. (5): mean over **all** M users (unallocated count as zero)."""
        m = self.scenario.n_users
        if m == 0:
            return 0.0
        return float(self.rates().sum() / m)

    # ------------------------------------------------------------------
    def _check_user(self, j: int) -> None:
        _check_index(j, self._n_users, "user")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        allocated = int((self.alloc_server != UNALLOCATED).sum())
        return (
            f"SinrEngine(N={self.scenario.n_servers}, M={self.scenario.n_users}, "
            f"allocated={allocated})"
        )


def index_arrays(server: np.ndarray, channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``int64`` copies of a profile's index arrays.

    An array of any other dtype kind than integer raises
    :class:`AllocationError`: a cast would load server 2.7 as 2 and
    ``True`` as 1.
    """
    server, channel = np.asarray(server), np.asarray(channel)
    if server.dtype.kind not in "iu" or channel.dtype.kind not in "iu":
        raise AllocationError(
            f"profile indices must have an integer dtype, got {server.dtype}/{channel.dtype}"
        )
    return server.astype(np.int64), channel.astype(np.int64)


def check_eq1(
    scenario: Scenario,
    server: np.ndarray,
    channel: np.ndarray,
    *,
    detach: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (1) over a whole profile, the rule's one vectorised statement.

    Both arrays must have shape ``(M,)``; an allocated user needs a server
    in ``[0, N)`` that covers it and a channel in ``[0, |C_i|)``.  The
    lowest offending user raises what :meth:`SinrEngine.assign` would.
    With ``detach`` only a bad shape or server index raises: an uncovered
    user or a missing channel, what a changed scenario does to a standing
    profile, is returned for detaching instead.

    Returns the allocated users, ascending, and the mask of those to detach.
    """
    m = scenario.n_users
    if server.shape != (m,) or channel.shape != (m,):
        raise AllocationError(f"profile arrays must both have shape (M,) = ({m},)")
    users = np.flatnonzero(server != UNALLOCATED)
    srv, ch = server[users], channel[users]
    in_range = (srv >= 0) & (srv < scenario.n_servers)
    safe = np.where(in_range, srv, 0)
    uncovered = ~scenario.coverage[safe, users]
    n_ch = scenario.channels[safe]
    broken = uncovered | (ch < 0) | (ch >= n_ch)
    bad = ~in_range if detach else ~in_range | broken
    if bad.any():
        pos = int(np.argmax(bad))
        j, i, x = int(users[pos]), int(srv[pos]), int(ch[pos])
        if not in_range[pos]:
            raise AllocationError(f"server {i} out of range for user {j}")
        if uncovered[pos]:
            raise CoverageError(f"server {i} does not cover user {j}")
        raise AllocationError(
            f"channel {x} out of range for server {i} ({int(n_ch[pos])} "
            f"channels) for user {j}"
        )
    return users, broken


def _check_index(value: int, bound: int, what: str) -> None:
    """Raise :class:`AllocationError` unless ``value`` is an integer in ``[0, bound)``.

    A ``bool`` or a float is refused, not coerced: numpy would index with
    it or fail with a bare ``IndexError``.  A Python ``int`` takes the one
    ``type`` test, so the check stays cheap on the hot path.
    """
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, np.integer)
    ):
        raise AllocationError(f"{what} index must be an integer, got {value!r}")
    if not 0 <= value < bound:
        raise AllocationError(f"{what} index {value} out of range [0, {bound})")
