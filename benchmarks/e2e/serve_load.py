"""The serve-http workload: the real ``idde serve`` daemon, driven open-loop.

One client process, two threads, one connection each (the daemon closes a
connection after every response, so each request opens a fresh one):

* the writer POSTs 25-event ``/v1/events`` batches on a fixed 50/s
  schedule; a write due while the previous one is in flight goes out when
  the connection frees and is still timed from its due time;
* the reader GETs ``/v1/health`` on a fixed 40/s schedule.

A run is several daemon lifetimes back to back, each on its own seeded
instance: the set-up time is sampled once per daemon, and the latency and
quality samples cover more than one instance.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.instance import IDDEInstance
from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

from stats import timing_summary
from workloads import BenchmarkFailure, Outcome, instance_seed, memory_mb, stream_rng

#: The daemon's instance flags (``--n 10 --m 60 --k 3``); all else default.
SERVE_SHAPE = dict(n=10, m=60, k=3)
WRITE_RATE = 50.0
READ_RATE = 40.0
EVENTS_PER_WRITE = 25
#: Daemon lifetimes per run: one instance alone moves the medians by ~10%.
DAEMONS = 12
BOOT_TIMEOUT_S = 60.0


@dataclass
class Call:
    """One request: when it was due, sent and answered, and the answer."""

    due: float
    ready: float  # when the connection was free to send it
    sent: float
    done: float
    status: int
    body: bytes


class Daemon:
    """One ``python -m repro serve --port 0`` subprocess."""

    def __init__(self, root: Path, seed: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        flags = [f"--{k}={v}" for k, v in SERVE_SHAPE.items()]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags,
             "--seed", str(seed)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._drain: threading.Thread | None = None
        try:
            ready, _, _ = select.select([self.proc.stderr], [], [], BOOT_TIMEOUT_S)
            line = self.proc.stderr.readline() if ready else ""
            found = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if found is None:
                raise BenchmarkFailure(f"daemon did not come up: {line.strip()!r}")
            self.port = int(found.group(1))
        except BaseException:
            self.close()
            raise
        # Keep reading stderr so a chatty daemon can never block on the pipe.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method: str, path: str, body: bytes | None = None) -> dict[str, Any]:
        status, data = self.call(method, path, body)
        if status != 200:
            raise BenchmarkFailure(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stderr.close()


def _schedule(daemon: Daemon, method: str, path: str, bodies: list[bytes | None],
              rate: float, t0: float, calls: list[Call], errors: list[BaseException]) -> None:
    """Send ``bodies`` on a fixed-rate schedule over one connection slot."""
    try:
        free = t0
        for i, body in enumerate(bodies):
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, data = daemon.call(method, path, body)
            done = time.perf_counter()
            calls.append(Call(due, max(due, free), sent, done, status, data))
            free = done
    except BaseException as exc:  # reported by the caller after join
        errors.append(exc)


@dataclass
class Phase:
    """One daemon lifetime: its inputs and everything it answered."""

    seed: int
    wire: list[list[dict]]
    setup_s: float = 0.0
    writes: list[Call] = field(default_factory=list)
    reads: list[Call] = field(default_factory=list)
    docs: list[dict] = field(default_factory=list)
    daemon_metrics: dict = field(default_factory=dict)
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    peak_rss_mb: float = 0.0


def phase_inputs(seed: int, index: int, seconds: float) -> Phase:
    """The instance seed and wire batches of one daemon lifetime."""
    s = instance_seed("serve-http", seed, index)
    instance = IDDEInstance.generate(seed=s, **SERVE_SHAPE)
    n_writes = max(1, round(seconds * WRITE_RATE))
    stream = poisson_zipf_stream(
        instance.scenario, stream_rng("serve-http", seed, index), StreamConfig(),
        n_events=n_writes * EVENTS_PER_WRITE,
    )
    wire = [[ev.to_dict() for ev in b.events] for b in batch_by_count(stream, EVENTS_PER_WRITE)]
    return Phase(seed=s, wire=wire)


def run_phase(root: Path, phase: Phase, seconds: float) -> None:
    """Boot a daemon, drive it for ``seconds``, check every answer."""
    bodies: list[bytes | None] = [
        json.dumps({"events": docs}).encode("utf-8") for docs in phase.wire
    ]
    t0 = time.perf_counter()
    daemon = Daemon(root, phase.seed)
    try:
        first = daemon.json("POST", "/v1/solve", b"")
        phase.setup_s = time.perf_counter() - t0
        session = first["session"]
        if session["certified"] is not True or session["epoch"] != 0:
            raise BenchmarkFailure(f"first solve not certified: {session}")
        phase.rss_start_mb = memory_mb("VmRSS", daemon.proc.pid)
        errors: list[BaseException] = []
        start = time.perf_counter() + 0.05
        n_reads = max(1, round(seconds * READ_RATE))
        threads = [
            threading.Thread(target=_schedule, args=(
                daemon, "POST", "/v1/events", bodies, WRITE_RATE, start, phase.writes, errors)),
            threading.Thread(target=_schedule, args=(
                daemon, "GET", "/v1/health", [None] * n_reads, READ_RATE, start,
                phase.reads, errors)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        phase.daemon_metrics = daemon.json("GET", "/v1/metrics")
        phase.rss_end_mb = memory_mb("VmRSS", daemon.proc.pid)
        phase.peak_rss_mb = memory_mb("VmHWM", daemon.proc.pid)
    finally:
        daemon.close()


def check_phase(phase: Phase) -> None:
    """Every write certified, epochs and event counts advancing in step;
    every read healthy."""
    for i, call in enumerate(phase.writes):
        if call.status != 200:
            raise BenchmarkFailure(f"write {i} answered {call.status}: {call.body[:200]!r}")
        doc = json.loads(call.body)
        session = doc["session"]
        if session["certified"] is not True:
            raise BenchmarkFailure(f"write {i} certificate is {session['certified']!r}")
        if session["epoch"] != i + 1 or session["events_applied"] != (i + 1) * EVENTS_PER_WRITE:
            raise BenchmarkFailure(f"write {i} did not advance the session: {session}")
        phase.docs.append(doc)
    for i, call in enumerate(phase.reads):
        if call.status != 200 or json.loads(call.body)["status"] != "ok":
            raise BenchmarkFailure(f"read {i} answered {call.status}: {call.body[:200]!r}")


def run_serve(root: Path, seed: int, seconds: float) -> tuple[Outcome, list[Phase]]:
    """The timed serve-http run: :data:`DAEMONS` daemon lifetimes."""
    out = Outcome("serve-http")
    phases: list[Phase] = []
    per_phase = seconds / DAEMONS
    where = "start"
    try:
        for index in range(DAEMONS):
            where = f"daemon {index}"
            phase = phase_inputs(seed, index, per_phase)
            phases.append(phase)
            run_phase(root, phase, per_phase)
            out.attempted += len(phase.writes) + len(phase.reads)
            check_phase(phase)
            out.setup_s.append(phase.setup_s)
            for call, doc in zip(phase.writes, phase.docs):
                escalated = doc["game"]["effective_epsilon"] > doc["config"]["epsilon"]
                out.record(call.done - call.due, doc["r_avg"], doc["l_avg_ms"], escalated)
    except Exception as exc:  # every failure mode of the program counts
        out.fail(where, exc)
    reads = [c.done - c.due for p in phases for c in p.reads]
    lags = [c.sent - c.ready for p in phases for c in p.writes]
    if reads:
        out.extra.update(timing_summary("read", reads))
        out.extra.update(timing_summary("loadgen_lag", lags))
    done = [p for p in phases if p.peak_rss_mb]
    if done:
        out.peak_rss_mb = statistics.median(p.peak_rss_mb for p in done)
    return out, phases
