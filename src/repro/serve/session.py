"""The stateful heart of IDDE-Serve: one long-lived :class:`SolverSession`.

A session owns everything a sequence of related solves can reuse — the
base :class:`~repro.core.instance.IDDEInstance`, the instance of the last
committed epoch (each epoch projects from it, so the topology's path cost,
coverage and the radio tables stay resident, the last two patched only
for the users who moved), the mutable
:class:`~repro.workload.WorkloadState` that ``idde-events/1`` deltas fold
into, the latest certified :class:`~repro.api.Solution`, and one tracer
(a :class:`~repro.obs.tracer.RecordingTracer` by default) whose snapshots
back the daemon's ``/v1/metrics`` and ``/v1/trace`` endpoints.

The lifecycle:

* :meth:`solve` — run the session's base :class:`~repro.request.SolveRequest`
  on the *current* workload state.  A request whose ``warm_start`` is the
  wire sentinel ``True`` re-enters the game from the session's resident
  solution (this is the only place the sentinel resolves; a direct
  :func:`repro.api.solve` on it raises).
* :meth:`apply_events` — fold a delta batch into the workload state (in a
  ``workload.batch`` span) and re-solve; under ``warm_start=True`` the
  re-solve re-enters from the resident solution, exactly the
  ``warm_start=prev`` + :func:`~repro.core.repair.repair_allocation` path,
  otherwise it is cold.  A batch commits with its certified solution or
  not at all.

The same chain backs ``idde serve`` and
:meth:`~repro.dynamics.DynamicSimulation.run_events` (``idde replay`` /
``idde dynamics``), so every solving epoch of either is certified.

Every IDDE-G response carries one certificate: the game's own verdict
(``sol.game.is_nash``), which :meth:`~repro.core.game.IddeUGame.run`
decides on its own engine, after reloading the final profile into it,
at the tolerance the solve reports
(``sol.game.effective_epsilon``) in its ``game.certify`` span.  A truncated
run (``converged=False``) is never certified.  The session serves no
allocation whose verdict is not ``True``: a failed certificate raises
:class:`~repro.errors.SolverError`, counts ``serve.certificate.failed``,
and the resident solution is *not* replaced.

Thread-safety: two locks with distinct jobs.  Mutators (:meth:`solve`,
:meth:`apply_events`) serialize end-to-end on a private mutate lock, so
the warm-start chain is a strict sequence even without the daemon's own
serialization.  A second, *short-held* state lock guards only input
snapshots, commits, and the read-side helpers (:meth:`stats`,
:meth:`solution_document`) — the solver kernel itself runs outside both
read-visible critical sections, so a health probe from any thread
answers in microseconds while a solve is minutes deep.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

import numpy as np

from ..api import Solution, solve
from ..baselines import resolve_solver_name
from ..core.instance import IDDEInstance
from ..errors import ConfigurationError, SolverError
from ..obs.tracer import RecordingTracer, Tracer
from ..request import SolveRequest
from ..rng import spawn_rng
from ..workload import Event, WorkloadState

__all__ = ["SolverSession"]


class SolverSession:
    """One resident instance + workload state + latest certified solution.

    Parameters
    ----------
    instance:
        The base problem.  Entities other than user positions / activity /
        requests are fixed for the session's lifetime; deltas evolve the
        rest through :class:`~repro.workload.WorkloadState`.
    request:
        The base :class:`~repro.request.SolveRequest` (default: a cold
        ``idde-g`` solve).  Its ``rng`` integer seed (or 0) roots the
        session's deterministic per-epoch RNG streams
        (``spawn_rng(seed, "serve", epoch)``); its ``active`` mask seeds
        the initial workload state.
    tracer:
        The tracer every epoch reports to: the daemon shares a
        :class:`~repro.obs.tracer.RecordingTracer` with its observability
        endpoints, a replay passes its own.  A private recording tracer is
        created when omitted.
    """

    def __init__(
        self,
        instance: IDDEInstance,
        request: SolveRequest | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        #: Serializes mutators (solve/apply_events) end-to-end.
        self._mutate_lock = threading.Lock()
        #: Short-held state lock: snapshots, commits, and read helpers
        #: only — never held across a solver kernel.
        self._lock = threading.RLock()
        self.instance = instance
        #: The instance the last committed solution was served on; the next
        #: epoch projects from it, so only what its events changed is rebuilt.
        self._served = instance
        self.tracer: Tracer = tracer if tracer is not None else RecordingTracer()
        self.state = WorkloadState.from_scenario(
            instance.scenario,
            active=None if request is None else request.active,
        )
        self.request = self._adopt(request or SolveRequest())
        self.solution: Solution | None = None
        #: Epoch counter: -1 before the first solve; each solve/re-solve
        #: advances it and keys that solve's deterministic RNG stream.
        self.epoch = -1
        self.events_applied = 0
        self.solves = 0
        self.warm_solves = 0
        self.certified: bool | None = None

    # ------------------------------------------------------------------
    # request adoption
    # ------------------------------------------------------------------
    def _adopt(self, request: SolveRequest) -> SolveRequest:
        """Normalise an incoming request into the session's base request.

        The session owns runtime state, so the stored base request keeps
        only the run *description*: ``active`` moves into the workload
        state (it seeded construction; later it is server state, not
        request state) and ``rng`` must be a replayable integer seed.
        """
        if request.rng is not None and not (
            isinstance(request.rng, (int, np.integer))
            and not isinstance(request.rng, bool)
        ):
            raise ConfigurationError(
                "a session request's rng must be an integer seed (or None); "
                "live generators are not replayable across re-solves"
            )
        if not isinstance(request.warm_start, (bool, type(None))):
            raise ConfigurationError(
                "a session request's warm_start must be the boolean wire "
                "sentinel; the session owns the resident prior solution"
            )
        return request.with_runtime(
            warm_start=request.warm_start, active=None, rng=request.rng
        )

    @property
    def served(self) -> IDDEInstance:
        """The instance the last committed solution was served on (the
        base instance before the first commit)."""
        return self._served

    @property
    def seed(self) -> int:
        """Root seed for the session's per-epoch RNG streams."""
        return int(self.request.rng or 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def solve(self, request: SolveRequest | None = None) -> Solution:
        """(Re)solve on the current workload state.

        With ``request`` the session adopts it as the new base request
        first (``POST /v1/solve`` semantics); a request-supplied ``active``
        mask replaces the session's churn mask.  ``warm_start=True`` warms
        from the resident solution when one exists; a cold session treats
        the sentinel as a plain cold solve.

        Adoption is transactional: if the new request fails anywhere —
        unknown solver, config rejected by the solver, certificate
        failure — the previous base request and churn mask are restored,
        so one bad ``POST /v1/solve`` can never poison the session for
        every later request.  (Mid-solve, :meth:`stats` may observe the
        tentative mask; a failed adoption rolls it back before raising.)
        """
        with self._mutate_lock:
            if request is None:
                with self._lock:
                    warm = self.solution if self.request.warm_start is True else None
                return self._run(warm)
            with self._lock:
                prev_request, prev_active = self.request, self.state.active.copy()
            try:
                with self._lock:
                    if request.active is not None:
                        if request.active.shape != (self.state.n_users,):
                            raise ConfigurationError(
                                f"request active mask covers "
                                f"{request.active.shape[0]} users, session has "
                                f"{self.state.n_users}"
                            )
                        self.state.active = request.active.copy()
                    self.request = self._adopt(request)
                    warm = self.solution if self.request.warm_start is True else None
                return self._run(warm)
            except Exception:
                with self._lock:
                    self.request = prev_request
                    self.state.active = prev_active
                raise

    def apply_events(self, events: Iterable[Event]) -> Solution:
        """Fold one delta batch into the state, then re-solve.

        The re-solve warms from the resident solution when the base
        request says ``warm_start=True`` (the rule :meth:`solve` follows)
        and is cold otherwise.  Returns the new certified solution.  The
        batch commits whole or not at all: if anything fails — an event
        out of the user universe, a move the instance cannot follow (see
        :meth:`~repro.core.instance.IDDEInstance.project`), the solve, or
        its certificate — the state and ``events_applied`` are restored
        and the resident solution survives.
        """
        with self._mutate_lock:
            batch = tuple(events)
            with self._lock:
                state, count = self.state, self.events_applied
                saved = WorkloadState(state.positions, state.active, state.requests)
                warm = self.solution if self.request.warm_start is True else None
            try:
                with self.tracer.span("workload.batch", events=len(batch)) as span:
                    with self._lock:
                        self.events_applied += state.apply(batch)
                        span.set(active_users=state.n_active)
                return self._run(warm)
            except Exception:
                with self._lock:
                    self.state, self.events_applied = saved, count
                raise

    def _run(self, warm: Solution | None) -> Solution:
        """One epoch: snapshot under the state lock, solve outside it,
        commit under it.  Callers hold ``_mutate_lock``, so the solver
        chain stays strictly sequential; reads never wait on the kernel.
        """
        with self._lock:
            projected = self._served.project(self.state)
            epoch = self.epoch + 1
            # Baselines have no game to re-enter or mask: they see churn
            # only through the projected scenario (inactive users request
            # nothing), exactly how the façade scopes warm_start/active.
            is_g = resolve_solver_name(self.request.solver) == "idde-g"
            request = self.request.with_runtime(
                warm_start=warm if is_g else None,
                active=self.state.active.copy() if is_g else None,
                rng=spawn_rng(self.seed, "serve", epoch),
            )
        solution = solve(projected, request, tracer=self.tracer)
        # Baselines have no game phase, so no certificate to serve.
        certified = None if solution.game is None else solution.game.is_nash
        if certified is False:
            self.tracer.count("serve.certificate.failed")
            game = solution.game
            why = (
                f"admits a profitable deviation at tol={game.effective_epsilon:.3e}"
                if game.converged
                else f"is unconverged after {game.rounds} rounds"
            )
            raise SolverError(
                f"ε-Nash certificate failed on epoch {epoch}: the "
                f"{solution.solver} allocation {why}"
            )
        with self._lock:
            self._served = projected
            self.epoch = epoch
            self.solution = solution
            self.certified = certified
            self.solves += 1
            if warm is not None:
                self.warm_solves += 1
        self.tracer.count("serve.solves")
        if warm is not None:
            self.tracer.count("serve.solves.warm")
        self.tracer.observe("serve.solve_s", solution.wall_time_s)
        return solution

    # ------------------------------------------------------------------
    # read side (safe mid-solve)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Session counters for ``/v1/health``: cheap, lock-consistent."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "solves": self.solves,
                "warm_solves": self.warm_solves,
                "events_applied": self.events_applied,
                "n_users": self.state.n_users,
                "n_active": self.state.n_active,
                "has_solution": self.solution is not None,
                "certified": self.certified,
            }

    def solution_document(self) -> dict[str, Any]:
        """The resident solution as ``idde-solution/5`` + session context.

        Raises :class:`~repro.errors.SolverError` when nothing has been
        solved yet (the daemon maps that to a structured 409).
        """
        with self._lock:
            if self.solution is None:
                raise SolverError(
                    "no resident solution yet; POST /v1/solve (or /v1/events) first"
                )
            doc = self.solution.to_dict()
            doc["session"] = {
                "epoch": self.epoch,
                "events_applied": self.events_applied,
                "certified": self.certified,
                "n_active": self.state.n_active,
            }
            return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverSession(epoch={self.epoch}, solves={self.solves}, "
            f"events={self.events_applied}, certified={self.certified})"
        )
