#!/usr/bin/env python3
"""End-to-end benchmark of IDDE-G: served days, catalogue churn, the paper's
static solve and the HTTP daemon.  See README.md in this directory.

One workload, one process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload day-mobility --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (``--trace 0``: every end-to-end
metric; ``--trace 1``: every per-layer metric from the traced walk).  A
human-readable report goes to standard error.  The exit code is non-zero
when an op failed or an output did not check out.

Every workload, each in a fresh process, with a table of every metric::

    python3 benchmarks/e2e/run.py all --seeds 0 0 0 [--out results.json]
    python3 benchmarks/e2e/run.py trace --seed 0 [--trace-dir DIR] [--out results.json]
    python3 benchmarks/e2e/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Longest a single workload process may take before ``all`` gives up on it.
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the path and make sure the
    program is imported from there, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"e2e: repro imported from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def end_to_end(out) -> dict[str, float]:
    """The end-to-end metrics of one timed run, by name."""
    from stats import percentile

    return {
        "setup_s": statistics.median(out.setup_s),
        "latency_p50_ms": percentile(out.latency_s, 50.0) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
        "r_avg_mbps": statistics.fmean(out.r_avg),
    }


def report(workload: str, metrics: dict[str, float], units: dict[str, str],
           extra: dict[str, float]) -> None:
    print(f"== {workload}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}", file=sys.stderr)
    for name, value in extra.items():
        print(f"  ({name}){'':{max(0, 32 - len(name))}s} {value:14.6g}", file=sys.stderr)


def timed_run(workload: str, seed: int, seconds: float):
    """One untraced run; returns the outcome and its human-report extras."""
    from stats import timing_summary
    from workloads import run_day, run_static

    if workload == "serve-http":
        from serve_load import run_serve

        out, _ = run_serve(ROOT, seed, seconds)
    elif workload == "paper-static":
        out = run_static(seed, seconds)
    else:
        out = run_day(workload, seed, seconds)
    extra = dict(out.extra)
    if out.latency_s:
        extra.update(timing_summary("latency", out.latency_s))
    if out.r_avg:
        extra["l_avg_ms"] = statistics.fmean(out.l_avg_ms)
        extra["eps_escalated_frac"] = sum(out.escalated) / len(out.escalated)
    return out, extra


def run_one(args: argparse.Namespace) -> int:
    import_program()
    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    failure = None
    if args.trace:
        from walk import per_layer, save_walk, trace_workload
        from workloads import BenchmarkFailure

        try:
            run = trace_workload(ROOT, args.workload, args.seed, args.seconds)
        except BenchmarkFailure as exc:
            failure = str(exc)
            computed, attempted, extra = {}, 1, {}
        else:
            computed, attempted, extra = per_layer(run), run.ops, run.extra
            if args.trace_out:
                save_walk(run, Path(args.trace_out), args.seed)
    else:
        out, extra = timed_run(args.workload, args.seed, args.seconds)
        failure = out.failure
        attempted = max(out.attempted, 1)
        computed = end_to_end(out) if failure is None else {}
    metrics = {name: float(computed.get(name, 0.0)) for name in units}
    report(args.workload, metrics, units, extra)
    correct = failure is None
    if not correct:
        print(f"e2e: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh process
# ----------------------------------------------------------------------
def host_block() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def child(workload: str, seed: int, seconds: float, trace: bool,
          trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"e2e: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def print_table(title: str, section: list[dict], values: dict[str, dict[str, list[float]]]) -> None:
    from stats import quartiles

    print(f"\n{title}")
    print(f"{'metric':34s} {'unit':>7s} " + " ".join(f"{w:>22s}" for w in values))
    for m in section:
        cells = []
        for w in values:
            runs = values[w][m["name"]]
            q1, med, q3 = quartiles(runs)
            cells.append(f"{med:11.5g} [{(q3 - q1) / abs(med) if med else 0:5.1%}]"
                         if len(runs) > 1 else f"{med:22.6g}")
        print(f"{m['name']:34s} {m['unit']:>7s} " + " ".join(f"{c:>22s}" for c in cells))


def run_all(args: argparse.Namespace) -> int:
    import_program()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    doc = {"schema": "idde-e2e-results/1", "host": host_block(), "seconds": seconds,
           "seeds": args.seeds, "end_to_end": {}, "per_layer": {}}
    started = time.perf_counter()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.command == "all":
        # Seed-major order: a slow spell of a shared host then lands on a
        # few runs of every workload instead of on all runs of one.
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for s in args.seeds:
            for w in workloads:
                runs[w].append(child(w, s, seconds, False)["metrics"])
        for w in workloads:
            doc["end_to_end"][w] = {m["name"]: [r[m["name"]]["value"] for r in runs[w]]
                                    for m in spec["end_to_end"]}
        print_table("end-to-end (median [IQR / median] over runs)", spec["end_to_end"],
                    doc["end_to_end"])
    if args.command == "trace" or args.trace:
        for w in workloads:
            out = None
            if args.trace_dir:
                Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
                out = Path(args.trace_dir) / f"{w}.jsonl"
            metrics = child(w, args.seeds[0], seconds, True, out)["metrics"]
            doc["per_layer"][w] = {name: [v["value"]] for name, v in metrics.items()}
        print_table(f"per-layer (traced walk, seed {args.seeds[0]})", spec["per_layer"],
                    doc["per_layer"])
    print(f"\n{time.perf_counter() - started:.0f} s; host {doc['host']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def run_compare(args: argparse.Namespace) -> int:
    """Median and quartiles of each side per metric and workload, and the
    verdict against the bound ``BENCHMARK.json`` fixes."""
    from stats import quartiles, verdict

    spec = load_spec()
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'metric':20s} {'workload':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'bound':>6s}  verdict")
    worst = 0
    for m in spec["end_to_end"]:
        for w in workloads:
            if w not in a["end_to_end"] or w not in b["end_to_end"]:
                continue
            va, vb = a["end_to_end"][w][m["name"]], b["end_to_end"][w][m["name"]]
            cells = []
            for v in (va, vb):
                q1, med, q3 = quartiles(v)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            v = verdict(va, vb, better=m["better"], bound=m["bound"])
            worst = max(worst, v == "REGRESSED")
            print(f"{m['name']:20s} {w:14s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{m['bound']:6.0%}  {v}")
    # Per-layer metrics have no bound; side by side they show which layer moved.
    for w in workloads:
        if w not in a["per_layer"] or w not in b["per_layer"]:
            continue
        print(f"\nper-layer, {w}: A median -> B median")
        for m in spec["per_layer"]:
            ma = statistics.median(a["per_layer"][w][m["name"]])
            mb = statistics.median(b["per_layer"][w][m["name"]])
            print(f"  {m['name']:34s} {ma:12.5g} -> {mb:12.5g} {m['unit']}")
    return 1 if worst else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("all", "trace", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            p.add_argument("a")
            p.add_argument("b")
            return run_compare(p.parse_args(argv[1:]))
        p.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="one run per seed; repeat a seed to repeat a run")
        p.add_argument("--seed", type=int, dest="seeds", nargs=1,
                       help="shorthand for a single seed")
        p.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default: BENCHMARK.json)")
        p.add_argument("--trace", action="store_true", help="add one traced run per workload")
        p.add_argument("--trace-dir", default=None,
                       help="write each walk's idde-trace/1 document here")
        p.add_argument("--out", default=None, help="write the results document here")
        args = p.parse_args(argv[1:])
        args.command = argv[0]
        return run_all(args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in load_spec()["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None, help="idde-trace/1 path for the walk")
    return run_one(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
