#!/usr/bin/env python3
"""CI smoke for IDDE-Serve: boot `idde serve`, drive the API, drain it.

Stdlib-only, mirrors the lifecycle in docs/SERVING.md:

1. boot the daemon as a subprocess on an ephemeral port and parse the
   listen banner;
2. POST /v1/solve (empty body = the session's base request) and check
   the idde-solution/3 document certifies;
3. POST /v1/events delta batches and check each warm re-solve advances
   the epoch with a verified certificate;
4. read /v1/health, /v1/metrics and /v1/solution concurrently with a
   solve in flight (reads must never queue);
5. check the structured error contract (unknown solver -> 400 with a
   SolverLookupError payload, cold-read semantics via a fresh path);
6. stream /v1/trace and validate the NDJSON frame;
7. SIGTERM and require a graceful exit 0.

Exit status: 0 on success, 1 on any failed check (with a message).
Usage: python tools/serve_smoke.py [--events N] [--batches B]
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


class SmokeFailure(AssertionError):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)


def request(
    port: int, method: str, path: str, body: object = None, timeout: float = 120.0
) -> tuple[int, dict]:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.load(exc)


def stream_trace(port: int, timeout: float = 60.0) -> list[dict]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/trace", timeout=timeout
    ) as response:
        return [json.loads(line) for line in response if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=40, help="events per batch")
    parser.add_argument("--batches", type=int, default=3, help="delta batches")
    args = parser.parse_args()

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--n", "10", "--m", "60", "--k", "4",
            "--seed", "7",
        ],
        cwd=REPO_ROOT,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        check(bool(match), f"no listen banner, got {banner!r}")
        port = int(match.group(1))
        print(f"serve_smoke: daemon up on port {port}")

        # -- 1. base solve certifies --------------------------------------
        status, doc = request(port, "POST", "/v1/solve")
        check(status == 200, f"solve returned {status}: {doc}")
        check(doc["schema"] == "idde-solution/3", f"bad schema {doc['schema']}")
        check(doc["session"]["certified"] is True, "epoch 0 not certified")
        check(doc["game"]["is_nash"], "epoch 0 solve is not an ε-Nash")
        print(f"serve_smoke: epoch 0 certified (eps={doc['game']['effective_epsilon']:.2e})")

        # -- 2. delta batches warm re-solve with verified certificates ----
        rng_state = 12345
        for batch_index in range(args.batches):
            events = []
            for i in range(args.events):
                rng_state = (1103515245 * rng_state + 12345) % 2**31
                user = rng_state % 60
                t = float(batch_index * args.events + i)
                if i % 3 == 0:
                    events.append({"kind": "leave", "t": t, "user": user})
                elif i % 3 == 1:
                    events.append({"kind": "join", "t": t, "user": user})
                else:
                    events.append(
                        {"kind": "move", "t": t, "user": user,
                         "x": float(rng_state % 500), "y": float(rng_state % 400)}
                    )
            status, doc = request(port, "POST", "/v1/events", {"events": events})
            check(status == 200, f"events batch {batch_index} -> {status}: {doc}")
            check(
                doc["session"]["epoch"] == batch_index + 1,
                f"epoch {doc['session']['epoch']} != {batch_index + 1}",
            )
            check(
                doc["session"]["certified"] is True,
                f"batch {batch_index} re-solve not certified",
            )
        print(f"serve_smoke: {args.batches} warm re-solves certified")

        # -- 3. reads answer while a solve is in flight -------------------
        read_results: list[tuple[str, int]] = []

        def reader() -> None:
            for path in ("/v1/health", "/v1/metrics", "/v1/solution"):
                status, _ = request(port, "GET", path, timeout=30)
                read_results.append((path, status))

        solver = threading.Thread(
            target=lambda: request(port, "POST", "/v1/solve", timeout=120)
        )
        solver.start()
        probe = threading.Thread(target=reader)
        probe.start()
        probe.join(timeout=30)
        solver.join(timeout=120)
        check(
            [s for _, s in read_results] == [200, 200, 200],
            f"reads failed mid-solve: {read_results}",
        )
        print("serve_smoke: health/metrics/solution answered mid-solve")

        # -- 4. structured errors -----------------------------------------
        bad = {"schema": "idde-request/2", "solver": "ide-g"}
        status, doc = request(port, "POST", "/v1/solve", bad)
        check(status == 400, f"unknown solver -> {status}, want 400")
        check(
            doc["error"]["type"] == "SolverLookupError",
            f"error type {doc['error']['type']}",
        )
        check("idde-g" in doc["error"]["message"], "did-you-mean lost on the wire")
        status, doc = request(port, "GET", "/v1/nope")
        check(status == 400, f"unknown endpoint -> {status}")
        print("serve_smoke: structured errors OK")

        # -- 5. metrics + trace frame -------------------------------------
        status, metrics = request(port, "GET", "/v1/metrics")
        solves = metrics["counters"]["serve.solves"]
        warm = metrics["counters"]["serve.solves.warm"]
        check(solves == args.batches + 2, f"serve.solves={solves}")
        check(warm >= args.batches, f"serve.solves.warm={warm}")
        records = stream_trace(port)
        check(records[0]["kind"] == "header", "trace does not start with a header")
        check(records[0]["schema"] == "idde-trace/1", "bad trace schema")
        check(records[-1]["kind"] == "metrics", "trace does not end with metrics")
        check(
            any(r.get("name") == "serve.certify" for r in records),
            "no serve.certify span in the trace",
        )
        print(f"serve_smoke: trace streamed ({len(records)} records)")

        # -- 6. graceful drain --------------------------------------------
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        check(code == 0, f"SIGTERM drain exited {code}, want 0")
        print("serve_smoke: SIGTERM drain exit 0 — all checks passed")
        return 0
    except SmokeFailure as exc:
        print(f"serve_smoke: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()


if __name__ == "__main__":
    sys.exit(main())
