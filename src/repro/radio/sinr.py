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
The engine also exposes a *batched* path (:meth:`SinrEngine.batch_candidates`
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RadioConfig
from ..errors import AllocationError, CoverageError
from ..obs.tracer import NULL_TRACER, Tracer
from ..types import Scenario
from .channel import gain_matrix
from .rate import capped_rate, shannon_rate

__all__ = [
    "SinrEngine",
    "RadioTables",
    "CandidateView",
    "BatchCandidateView",
    "BatchBestResponse",
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
class BatchCandidateView:
    """Candidate grids for a batch of users, on the padded server axis.

    Attributes
    ----------
    users : ``(U,)`` the user indices evaluated.
    servers : ``(U, Smax)`` covering server indices, padded with 0.
    server_mask : ``(U, Smax)`` True where the padded slot is a real
        covering server (the paper's ``V_j``).
    valid : ``(U, Smax, X)`` mask of real covering server × existing channel.
    sinr : ``(U, Smax, X)`` SINR per candidate (garbage where invalid).
    rate : ``(U, Smax, X)`` capped data rate per candidate (MB/s).
    benefit : ``(U, Smax, X)`` Eq. (12) benefit per candidate.

    For any user the valid entries are bit-for-bit identical to the
    corresponding :class:`CandidateView` from :meth:`SinrEngine.candidates`.
    """

    users: np.ndarray
    servers: np.ndarray
    server_mask: np.ndarray
    valid: np.ndarray
    sinr: np.ndarray
    rate: np.ndarray
    benefit: np.ndarray


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


@dataclass(frozen=True)
class RadioTables:
    """The read-only radio structure of one scenario.

    Coverage, powers and gains never change under allocation moves, so
    this is built once (:meth:`build`) and shared by every engine over the
    same scenario; every array is marked ``write=False``.
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
        cover = scenario.coverage
        count = cover.sum(axis=0, dtype=np.int64)
        smax = max(int(count.max(initial=0)), 1)
        mask = np.arange(smax)[None, :] < count[:, None]
        cov = np.zeros((m, smax), dtype=np.int64)
        # Row-major nonzeros of the (M, N) transpose: users ascending, each
        # user's servers ascending — exactly the fill order of ``mask``.
        cov[mask] = np.nonzero(cover.T)[1]
        cov_gain = np.where(mask, gain[cov, np.arange(m)[:, None]], 0.0)
        signal = cov_gain * scenario.power[:, None]
        x = max(scenario.max_channels, 1)
        valid = scenario.channel_mask[cov, :x] & mask[:, :, None]
        tables = cls(
            gain=gain,
            count=count,
            cov=cov,
            mask=mask,
            cov_gain=cov_gain,
            signal=signal,
            valid=valid,
        )
        for array in (gain, count, cov, mask, cov_gain, signal, valid):
            array.setflags(write=False)
        return tables


class SinrEngine:
    """Mutable interference state over a fixed :class:`Scenario`.

    The engine owns the allocation arrays (``server[j]``, ``channel[j]``,
    with −1 meaning unallocated) and the per-channel power table, and
    exposes: single-user evaluation (the fused :meth:`best_response` and
    the full grid of :meth:`candidates`), batched evaluation
    (:meth:`batch_best_responses`), global rate evaluation (:meth:`rates`),
    and incremental mutation (:meth:`assign`, :meth:`unassign`,
    :meth:`move`, :meth:`load_profile`).

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
        #: total allocated power per (server, channel)
        self.channel_power = np.zeros((n, x), dtype=float)
        #: number of users per (server, channel)
        self.channel_count = np.zeros((n, x), dtype=np.int64)
        self.alloc_server = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
        self.alloc_channel = np.full(scenario.n_users, UNALLOCATED, dtype=np.int64)
        self._channel_valid = scenario.channel_mask
        #: IDDE-Trace hook; the owning game attaches its tracer so kernel
        #: selection (scalar vs batched) and evaluation volume are observable.
        self.tracer: Tracer = NULL_TRACER
        self._scalar_kernel_seen = False
        self._batch_kernel_seen = False

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Attach an IDDE-Trace tracer (``None`` restores the no-op)."""
        self.tracer = NULL_TRACER if tracer is None else tracer

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, j: int, server: int, channel: int) -> None:
        """Allocate user ``j`` to ``(server, channel)``.

        Enforces Eq. (1): the server must cover the user, and the channel
        must exist on the server.  The user must currently be unallocated
        (use :meth:`move` to relocate).
        """
        self._check_user(j)
        if self.alloc_server[j] != UNALLOCATED:
            raise AllocationError(f"user {j} is already allocated; use move()")
        if not self.coverage[server, j]:
            raise CoverageError(f"server {server} does not cover user {j}")
        if not (0 <= channel < self.scenario.channels[server]):
            raise AllocationError(
                f"channel {channel} out of range for server {server} "
                f"({self.scenario.channels[server]} channels)"
            )
        self.alloc_server[j] = server
        self.alloc_channel[j] = channel
        self.channel_power[server, channel] += self.power[j]
        self.channel_count[server, channel] += 1

    def unassign(self, j: int) -> None:
        """Deallocate user ``j`` (no-op if already unallocated)."""
        self._check_user(j)
        i, x = self.alloc_server[j], self.alloc_channel[j]
        if i == UNALLOCATED:
            return
        self.channel_power[i, x] -= self.power[j]
        self.channel_count[i, x] -= 1
        # Guard against float drift accumulating across many moves.
        if self.channel_count[i, x] == 0:
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
        (raising the :class:`CoverageError` / :class:`AllocationError` that
        :meth:`assign` would raise for the lowest offending user), so a bad
        profile leaves the engine untouched.  The load itself accumulates
        the channel powers in ascending user order, the float additions of
        an :meth:`assign` loop, so the state is bitwise the same.
        """
        server = np.asarray(server, dtype=np.int64)
        channel = np.asarray(channel, dtype=np.int64)
        if server.shape != (self.scenario.n_users,) or channel.shape != server.shape:
            raise AllocationError("profile arrays must both have shape (M,)")
        users = np.flatnonzero(server != UNALLOCATED)
        srv, ch = server[users], channel[users]
        in_range = (srv >= 0) & (srv < self.scenario.n_servers)
        safe = np.where(in_range, srv, 0)
        uncovered = in_range & ~self.coverage[safe, users]
        n_ch = self.scenario.channels[safe]
        bad_channel = in_range & ((ch < 0) | (ch >= n_ch))
        bad = ~in_range | uncovered | bad_channel
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

    def batch_candidates(self, users: np.ndarray | None = None) -> BatchCandidateView:
        """Evaluate every candidate ``(server, channel)`` for a user batch.

        The padded-axis equivalent of calling :meth:`candidates` per user:
        valid entries carry bit-identical SINR / rate / benefit values.
        """
        tables = self._tables
        if users is None:
            users = np.arange(self.scenario.n_users)
        else:
            users = np.asarray(users, dtype=np.int64)
        w = self.batch_interference(users)  # (U, X)
        signal = tables.signal[users][:, :, None]  # (U, Smax, 1)
        den = w[:, None, :] + self.noise  # (U, 1, X)
        sinr = signal / den
        rate = capped_rate(self.bandwidth, sinr, self.scenario.rmax[users][:, None, None])
        # Padded slots have signal exactly 0; with zero interference that is
        # 0/0, which the valid mask hides — silence the hardware flag only.
        with np.errstate(invalid="ignore"):
            benefit = signal / (w[:, None, :] + signal)
        return BatchCandidateView(
            users=users,
            servers=tables.cov[users],
            server_mask=tables.mask[users],
            valid=tables.valid[users],
            sinr=sinr,
            rate=rate,
            benefit=benefit,
        )

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
        if self.tracer.enabled:
            self.tracer.count("sinr.batch_rounds")
            if not self._batch_kernel_seen:
                self._batch_kernel_seen = True
                self.tracer.event("sinr.kernel", kernel="batched", batch_size=int(u))
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

    def _trace_scalar_eval(self, j: int) -> None:
        """Count one single-user evaluation; name the kernel the first time."""
        self.tracer.count("sinr.scalar_evals")
        if not self._scalar_kernel_seen:
            self._scalar_kernel_seen = True
            self.tracer.event("sinr.kernel", kernel="scalar", user=int(j))

    def best_response(self, j: int) -> tuple[int, int, float, float] | None:
        """User ``j``'s benefit-maximising move, fused into one evaluation.

        Returns ``(server, channel, benefit, current_benefit)``, or ``None``
        when no server covers the user.  Bit-for-bit the result of
        :meth:`candidates` → ``best("benefit")`` plus :meth:`user_benefit`
        (and of the user's row of :meth:`batch_best_responses`): the same
        padded einsum, the current benefit read off the same ``W_j``, and
        no SINR or rate grid.
        """
        if self.tracer.enabled:
            self._trace_scalar_eval(j)
        servers, w = self.interference_profile(j)
        s = len(servers)
        if s == 0:
            return None
        i = self.alloc_server[j]
        current = 0.0
        if i != UNALLOCATED:
            own = self.gain[i, j] * self.power[j]
            current = float(own / (w[self.alloc_channel[j]] + own))
        tables = self._tables
        signal = tables.signal[j, :s, None]  # (S, 1): the real covering slots
        masked = np.where(tables.valid[j, :s], signal / (w + signal), -np.inf)
        row, col = divmod(int(masked.argmax()), self.n_channels)
        return int(servers[row]), col, float(masked[row, col]), current

    def candidates(self, j: int) -> CandidateView:
        """Evaluate every candidate ``(server, channel)`` for user ``j``."""
        if self.tracer.enabled:
            self._trace_scalar_eval(j)
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

    def uncapped_rates(self) -> np.ndarray:
        """Shannon rates without the ``R_max`` cap (diagnostics)."""
        m = self.scenario.n_users
        out = np.zeros(m)
        for j in range(m):
            i = self.alloc_server[j]
            if i == UNALLOCATED:
                continue
            out[j] = float(shannon_rate(self.bandwidth, np.asarray(self.user_sinr(j))))
        return out

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def overlap_components(self) -> np.ndarray:
        """Connected components of the coverage-overlap graph (``(N,)`` labels).

        Two servers are adjacent iff some user's covering set ``V_j``
        contains both — exactly the coupling structure of the IDDE-U game:
        a user's benefit (Eq. 12) depends only on the channel powers of its
        covering servers, so users whose covering sets fall in different
        components never interact and the game decomposes into independent
        sub-games (the basis of :mod:`repro.sharding`).

        Labels are dense, start at 0, and are ordered by each component's
        smallest server index (deterministic for a fixed scenario).
        """
        n = self.scenario.n_servers
        parent = np.arange(n, dtype=np.int64)

        def find(a: int) -> int:
            root = a
            while parent[root] != root:
                root = int(parent[root])
            while parent[a] != root:  # path compression
                parent[a], a = root, int(parent[a])
            return root

        for servers in self.scenario.covering_servers:
            if len(servers) < 2:
                continue
            first = find(int(servers[0]))
            for s in servers[1:]:
                parent[find(int(s))] = first
                first = find(first)
        labels = np.empty(n, dtype=np.int64)
        seen: dict[int, int] = {}
        for i in range(n):
            root = find(i)
            labels[i] = seen.setdefault(root, len(seen))
        return labels

    # ------------------------------------------------------------------
    def users_on(self, server: int, channel: int) -> np.ndarray:
        """Indices of users allocated to ``(server, channel)``."""
        return np.flatnonzero(
            (self.alloc_server == server) & (self.alloc_channel == channel)
        )

    def _check_user(self, j: int) -> None:
        if not (0 <= j < self.scenario.n_users):
            raise AllocationError(f"user index {j} out of range [0, {self.scenario.n_users})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        allocated = int((self.alloc_server != UNALLOCATED).sum())
        return (
            f"SinrEngine(N={self.scenario.n_servers}, M={self.scenario.n_users}, "
            f"allocated={allocated})"
        )
