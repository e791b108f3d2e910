"""The IDDE-Serve daemon end to end: routing, admission, timeouts, drain."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError
from repro.request import SolveRequest
from repro.serve import ServeConfig, ServeDaemon, SolverSession
from repro.workload import UserLeave

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def instance() -> IDDEInstance:
    return IDDEInstance.generate(n=5, m=16, k=2, density=1.0, seed=4)


def _session(instance) -> SolverSession:
    return SolverSession(
        instance, SolveRequest(solver="idde-g", warm_start=True, rng=2)
    )


async def _http(
    port: int, method: str, path: str, body: object = None, *, raw: bytes | None = None
) -> tuple[int, bytes]:
    """One request against the daemon; returns (status, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = raw if raw is not None else (
        b"" if body is None else json.dumps(body).encode()
    )
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    head += "\r\n"
    writer.write(head.encode() + payload)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_raw, _, body_raw = response.partition(b"\r\n\r\n")
    status = int(head_raw.split(b" ", 2)[1])
    return status, body_raw


def _drive(daemon: ServeDaemon, scenario) -> tuple[object, int]:
    """Run the daemon, execute ``scenario(daemon)``, drain, return its result."""

    async def main():
        await daemon.start()
        run_task = asyncio.create_task(daemon.run(install_signal_handlers=False))
        try:
            result = await scenario(daemon)
        finally:
            daemon.request_shutdown()
            exit_code = await asyncio.wait_for(run_task, timeout=30)
        return result, exit_code

    return asyncio.run(main())


class TestEndpoints:
    def test_full_lifecycle(self, instance):
        daemon = ServeDaemon(_session(instance))

        async def scenario(d):
            out = {}
            status, body = await _http(d.port, "GET", "/v1/health")
            out["health0"] = (status, json.loads(body))
            out["cold_solution"] = await _http(d.port, "GET", "/v1/solution")
            out["solve"] = await _http(d.port, "POST", "/v1/solve")
            events = [UserLeave(t=1.0, user=0).to_dict()]
            out["events"] = await _http(d.port, "POST", "/v1/events", {"events": events})
            status, body = await _http(d.port, "GET", "/v1/solution")
            out["solution"] = (status, json.loads(body))
            status, body = await _http(d.port, "GET", "/v1/metrics")
            out["metrics"] = (status, json.loads(body))
            out["trace"] = await _http(d.port, "GET", "/v1/trace")
            return out

        out, exit_code = _drive(daemon, scenario)
        assert exit_code == 0

        status, health = out["health0"]
        assert status == 200
        assert health["status"] == "ok"
        assert health["session"]["epoch"] == -1

        status, body = out["cold_solution"]
        assert status == 409
        assert json.loads(body)["error"]["type"] == "SolverError"

        status, body = out["solve"]
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == "idde-solution/3"
        assert doc["session"] == {
            "epoch": 0, "events_applied": 0, "certified": True,
            "n_active": instance.scenario.n_users,
        }

        status, body = out["events"]
        assert status == 200
        doc = json.loads(body)
        assert doc["session"]["epoch"] == 1
        assert doc["session"]["events_applied"] == 1
        assert doc["session"]["certified"] is True

        status, doc = out["solution"]
        assert status == 200 and doc["session"]["epoch"] == 1

        status, metrics = out["metrics"]
        assert status == 200
        assert metrics["counters"]["serve.solves"] == 2
        assert metrics["counters"]["serve.solves.warm"] == 1

        status, ndjson = out["trace"]
        assert status == 200
        records = [json.loads(line) for line in ndjson.splitlines() if line]
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == "idde-trace/1"
        assert records[0]["meta"]["source"] == "idde-serve"
        assert records[-1]["kind"] == "metrics"
        assert any(r.get("name") == "serve.certify" for r in records)

    def test_solve_accepts_request_document(self, instance):
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver="idde-g", rng=5).to_dict()

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve", doc)

        (status, body), exit_code = _drive(daemon, scenario)
        assert exit_code == 0 and status == 200
        served = json.loads(body)
        # the document embeds the producing request (lenient wire form:
        # the per-epoch generator degrades to a null seed)
        assert served["request"]["schema"] == "idde-request/2"
        assert served["request"]["solver"] == "idde-g"
        assert served["session"]["epoch"] == 0


class TestErrorPaths:
    def test_unknown_solver_is_structured_400(self, instance):
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver="idde-g").to_dict()
        doc["solver"] = "ide-g"

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve", doc)

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "SolverLookupError"
        assert "idde-g" in error["message"]  # did-you-mean survives the wire

    def test_malformed_json_body_is_400(self, instance):
        daemon = ServeDaemon(_session(instance))

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve", raw=b"{nope")

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_unknown_request_key_is_400(self, instance):
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver="idde-g").to_dict()
        doc["warmstart"] = True

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve", doc)

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        assert "warmstart" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize("section", ["game", "delivery"])
    def test_kernel_key_is_structured_400(self, instance, section):
        """A pre-v2 client still sending a kernel switch gets a structured
        400 naming the key, never a 500, and the session keeps serving."""
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver="idde-g").to_dict()
        doc[section] = {"kernel": "batched"}

        async def scenario(d):
            return (
                await _http(d.port, "POST", "/v1/solve", doc),
                await _http(d.port, "POST", "/v1/solve"),
            )

        (rejected, after), _ = _drive(daemon, scenario)
        assert rejected[0] == 400
        error = json.loads(rejected[1])["error"]
        assert error["type"] == "ConfigurationError"
        assert error["status"] == 400
        assert f"unknown {section} key" in error["message"]
        assert "kernel" in error["message"]
        assert after[0] == 200

    @pytest.mark.parametrize("solver", ["idde-g", "cdp"])
    def test_unknown_solver_option_is_structured_400(self, instance, solver):
        """An option the solver's constructor does not take is a 400 naming
        it and the solver — never a 500, never silently dropped — and the
        session's base request survives for the next request."""
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver=solver).to_dict()
        doc["solver_options"] = {"bogus": 1}

        async def scenario(d):
            return (
                await _http(d.port, "POST", "/v1/solve", doc),
                await _http(d.port, "POST", "/v1/solve"),
            )

        (rejected, after), _ = _drive(daemon, scenario)
        assert rejected[0] == 400
        error = json.loads(rejected[1])["error"]
        assert error["type"] == "ConfigurationError"
        assert "bogus" in error["message"] and solver in error["message"]
        assert after[0] == 200
        request = json.loads(after[1])["request"]
        assert request["solver"] == "idde-g"
        assert request["solver_options"] == {}

    def test_unknown_endpoint_and_wrong_method(self, instance):
        daemon = ServeDaemon(_session(instance))

        async def scenario(d):
            return (
                await _http(d.port, "GET", "/v1/nope"),
                await _http(d.port, "GET", "/v1/solve"),
                await _http(d.port, "POST", "/v1/health"),
            )

        (unknown, wrong_get, wrong_post), _ = _drive(daemon, scenario)
        assert unknown[0] == 400
        assert wrong_get[0] == 405
        assert "allowed: POST" in json.loads(wrong_get[1])["error"]["message"]
        assert wrong_post[0] == 405
        assert "allowed: GET" in json.loads(wrong_post[1])["error"]["message"]

    def test_ragged_active_is_structured_400(self, instance):
        daemon = ServeDaemon(_session(instance))
        doc = SolveRequest(solver="idde-g").to_dict()
        doc["active"] = [[1], [0, 1]]  # ragged: numpy cannot coerce this

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve", doc)

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "ConfigurationError"
        assert "active" in error["message"]

    def test_unexpected_exception_is_structured_500(self, instance):
        session = _session(instance)

        def boom(request=None):
            raise RuntimeError("kaboom")

        session.solve = boom  # type: ignore[method-assign]
        daemon = ServeDaemon(session)

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve")

        (status, body), exit_code = _drive(daemon, scenario)
        assert exit_code == 0
        assert status == 500
        error = json.loads(body)["error"]
        assert error["type"] == "RuntimeError"
        assert error["message"] == "kaboom"

    def test_empty_events_body_is_400(self, instance):
        daemon = ServeDaemon(_session(instance))

        async def scenario(d):
            return (
                await _http(d.port, "POST", "/v1/events", {"events": []}),
                await _http(d.port, "POST", "/v1/events", {"evts": [1]}),
            )

        (empty, misnamed), _ = _drive(daemon, scenario)
        assert empty[0] == 400 and misnamed[0] == 400

    def test_bad_event_universe_is_400(self, instance):
        daemon = ServeDaemon(_session(instance))
        events = [{"kind": "leave", "t": 0.0, "user": 10_000}]

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/events", {"events": events})

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "ScenarioError"
        assert "out of range" in error["message"]

    def test_malformed_event_names_its_position(self, instance):
        daemon = ServeDaemon(_session(instance))
        events = [{"kind": "leave", "t": 0.0}]  # missing the user field

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/events", {"events": events})

        (status, body), _ = _drive(daemon, scenario)
        assert status == 400
        assert "events[0]" in json.loads(body)["error"]["message"]


class TestReadsDuringSolve:
    def test_health_answers_during_real_session_solve(self, instance, monkeypatch):
        """Regression: reads must not block on the session lock mid-solve.

        Unlike the admission tests this keeps the real
        :class:`SolverSession` (its locking included) and slows only the
        façade ``solve`` call, so a held-across-the-kernel lock would stall
        the event loop and fail the latency assertion below.
        """
        import repro.serve.session as session_module

        session = _session(instance)
        entered = threading.Event()
        release = threading.Event()
        real_solve = session_module.solve

        def slow_solve(inst, request, *, tracer=None):
            entered.set()
            assert release.wait(timeout=10), "reads deadlocked behind the solve"
            return real_solve(inst, request, tracer=tracer)

        monkeypatch.setattr(session_module, "solve", slow_solve)
        daemon = ServeDaemon(session)

        async def scenario(d):
            solve_task = asyncio.create_task(_http(d.port, "POST", "/v1/solve"))
            await asyncio.to_thread(entered.wait, 10)
            t0 = time.monotonic()
            health = await _http(d.port, "GET", "/v1/health")
            cold = await _http(d.port, "GET", "/v1/solution")
            metrics = await _http(d.port, "GET", "/v1/metrics")
            elapsed = time.monotonic() - t0
            release.set()
            return health, cold, metrics, elapsed, await solve_task

        (health, cold, metrics, elapsed, solved), exit_code = _drive(daemon, scenario)
        assert exit_code == 0
        # All three reads answered while the solve was mid-kernel —
        # far under the 10s the kernel was held open.
        assert elapsed < 5.0
        assert health[0] == 200
        body = json.loads(health[1])
        assert body["admitted"] == 1
        assert body["session"]["has_solution"] is False
        assert cold[0] == 409  # resident solution not committed yet
        assert metrics[0] == 200
        assert solved[0] == 200
        assert json.loads(solved[1])["session"]["certified"] is True


class TestAdmissionControl:
    def test_queue_overflow_sheds_429(self, instance):
        session = _session(instance)
        release = threading.Event()

        def slow_solve(request=None):
            release.wait(timeout=10)

        session.solve = slow_solve  # type: ignore[method-assign]
        session.solution_document = lambda: {"ok": True}  # type: ignore[method-assign]
        daemon = ServeDaemon(session, ServeConfig(queue_limit=1))

        async def scenario(d):
            first = asyncio.create_task(_http(d.port, "POST", "/v1/solve"))
            await asyncio.sleep(0.2)  # let the first request occupy the slot
            shed = await _http(d.port, "POST", "/v1/solve")
            health = await _http(d.port, "GET", "/v1/health")
            release.set()
            return await first, shed, health

        (first, shed, health), exit_code = _drive(daemon, scenario)
        assert exit_code == 0
        assert first[0] == 200
        assert shed[0] == 429
        assert json.loads(shed[1])["error"]["type"] == "QueueFullError"
        # reads bypass admission entirely: health answered mid-solve
        assert health[0] == 200
        assert json.loads(health[1])["admitted"] == 1

    def test_timeout_is_504_and_job_completes(self, instance):
        session = _session(instance)
        done = threading.Event()

        def slow_solve(request=None):
            time.sleep(0.5)
            done.set()

        session.solve = slow_solve  # type: ignore[method-assign]
        session.solution_document = lambda: {"ok": True}  # type: ignore[method-assign]
        daemon = ServeDaemon(session, ServeConfig(request_timeout_s=0.1))

        async def scenario(d):
            return await _http(d.port, "POST", "/v1/solve")

        (status, body), exit_code = _drive(daemon, scenario)
        # drain waited for the abandoned job: state landed consistently
        assert exit_code == 0
        assert status == 504
        error = json.loads(body)["error"]
        assert error["type"] == "RequestTimeoutError"
        assert "poll GET /v1/solution" in error["message"]
        assert done.is_set()
        assert daemon.tracer.counters["serve.timeouts"] == 1

    def test_draining_daemon_sheds_new_work(self, instance):
        # Start the listener without the run() loop so setting the drain
        # flag exercises only the admission gate, not the socket close.
        daemon = ServeDaemon(_session(instance))

        async def main():
            await daemon.start()
            daemon.request_shutdown()
            result = await _http(daemon.port, "POST", "/v1/solve")
            daemon._server.close()
            await daemon._server.wait_closed()
            return result

        status, body = asyncio.run(main())
        assert status == 429
        assert "draining" in json.loads(body)["error"]["message"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="request_timeout_s"):
            ServeConfig(request_timeout_s=0)
        with pytest.raises(ConfigurationError, match="queue_limit"):
            ServeConfig(queue_limit=0)


class TestCliSigterm:
    def test_serve_subprocess_drains_on_sigterm(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--n", "4", "--m", "12", "--k", "2", "--seed", "1",
            ],
            env=env,
            cwd=REPO_ROOT,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            port = int(match.group(1))
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/solve", method="POST"
                ),
                timeout=60,
            ) as response:
                doc = json.load(response)
            assert doc["session"]["certified"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
