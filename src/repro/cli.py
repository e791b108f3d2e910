"""Command-line interface: ``idde`` / ``python -m repro``.

Subcommands
-----------
``solve``      Solve one generated instance with one or all approaches.
``sweep``      Run one Table 2 experiment set and print its tables.
``reproduce``  Run every set and emit the full markdown report (optionally
               writing CSV/JSON artifacts with ``--output``).
``fig1``       Run the Fig. 1 latency probe.
``theory``     Print the theoretical bounds for a generated instance.
``dynamics``   Run the mobility extension: warm/cold/static re-solve
               policies over moving users.
``replay``     Run the streaming workload engine: a Poisson/Zipf event
               stream (or a saved ``idde-events/1`` trace) batched into
               epochs, each re-solved through the façade under a
               warm/cold/static policy; ``--verify`` re-certifies the
               warm and cold end-states at ``effective_epsilon``
               (see docs/STREAMING.md).
``gap``        Measure the Phase 2 greedy's optimality gap against the
               exact MILP delivery oracle.
``lint``       Run IDDE-Lint, the AST invariant checker guarding RNG
               discipline, unit honesty, determinism and layering
               (see docs/STATIC_ANALYSIS.md).
``bench``      Run IDDE-Bench, the statistical microbenchmark suite over
               the IDDE-G hot paths, or compare two benchmark documents
               with the noise-aware regression gate
               (see docs/BENCHMARKING.md).
``trace``      Inspect IDDE-Trace documents: ``idde trace summarize``
               renders the span tree, top counters and event mix of an
               ``idde-trace/1`` JSONL file (see docs/OBSERVABILITY.md).
``serve``      Boot IDDE-Serve, the long-lived async solver daemon: a
               stateful session behind a schema-versioned HTTP/JSON API
               (``idde-request/2`` in, ``idde-solution/3`` out,
               ``idde-events/1`` deltas re-solved warm; see
               docs/SERVING.md).

``solve``, ``sweep`` and ``reproduce`` accept ``--trace out.jsonl`` to
record a full execution trace; ``solve``/``sweep`` accept ``--shards
auto|N`` to route IDDE-G through the interference-domain decomposition
solver (see docs/SHARDING.md).
All solving routes through :func:`repro.api.solve`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.bounds import theory_report
from .core.instance import IDDEInstance
from .experiments.figures import PAPER, shape_checks
from .experiments.latency_probe import run_latency_probe
from .experiments.report import render_advantage_markdown, render_sweep_markdown
from .experiments.settings import ALL_SETS
from .experiments.sweep import run_sweep
from .parallel import ParallelConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idde",
        description="IDDE: interference-aware data delivery in edge storage systems",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for INFO, -vv for DEBUG diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one generated instance")
    _add_instance_args(p_solve)
    p_solve.add_argument(
        "--solver",
        default="all",
        help="solver name (idde-g, idde-ip, saa, cdp, dup-g, random, nearest) or 'all'",
    )
    p_solve.add_argument("--ip-budget", type=float, default=3.0, help="IDDE-IP seconds")
    p_solve.add_argument(
        "--map", action="store_true", help="draw the scenario and IDDE-G allocation"
    )
    _add_shards_arg(p_solve)
    _add_trace_arg(p_solve)
    p_solve.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text table or the idde-solution/3 JSON document",
    )

    p_sweep = sub.add_parser("sweep", help="run one Table 2 experiment set")
    p_sweep.add_argument("set", choices=["1", "2", "3", "4"], help="Table 2 set number")
    _add_sweep_args(p_sweep)
    _add_shards_arg(p_sweep)
    _add_trace_arg(p_sweep)

    p_rep = sub.add_parser("reproduce", help="run every set; emit the markdown report")
    _add_sweep_args(p_rep)
    p_rep.add_argument(
        "--output", default=None, help="directory for CSV/JSON/markdown artifacts"
    )
    _add_trace_arg(p_rep)

    p_fig1 = sub.add_parser("fig1", help="run the Fig. 1 latency probe")
    p_fig1.add_argument("--seed", type=int, default=0)
    p_fig1.add_argument("--days", type=int, default=7)

    p_theory = sub.add_parser("theory", help="theoretical bounds for an instance")
    _add_instance_args(p_theory)

    p_dyn = sub.add_parser("dynamics", help="mobility extension simulation")
    _add_instance_args(p_dyn)
    p_dyn.add_argument("--epochs", type=int, default=8)
    p_dyn.add_argument("--dt", type=float, default=30.0, help="seconds per epoch")
    p_dyn.add_argument("--speed", type=float, default=10.0, help="mean user speed m/s")
    p_dyn.add_argument(
        "--policy",
        default="all",
        choices=["warm", "cold", "static", "all"],
        help="re-solve policy",
    )

    p_replay = sub.add_parser(
        "replay", help="streaming workload replay with incremental re-solve"
    )
    _add_instance_args(p_replay)
    p_replay.add_argument(
        "--events", type=int, default=1000, help="events to generate"
    )
    p_replay.add_argument(
        "--epoch-events", type=int, default=100, help="events per epoch batch"
    )
    p_replay.add_argument(
        "--policy",
        default="warm",
        choices=["warm", "cold", "static"],
        help="re-solve policy",
    )
    p_replay.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="replay a saved idde-events/1 JSONL trace instead of generating",
    )
    p_replay.add_argument(
        "--save-events",
        default=None,
        metavar="PATH",
        help="save the generated stream as idde-events/1 JSONL",
    )
    p_replay.add_argument(
        "--verify",
        action="store_true",
        help="run warm AND cold over the same batches; re-certify both "
        "end-states as ε-Nash on the final instance (exit 1 on failure)",
    )
    _add_shards_arg(p_replay)
    _add_trace_arg(p_replay)

    p_gap = sub.add_parser("gap", help="greedy vs exact MILP delivery gap")
    _add_instance_args(p_gap)
    p_gap.add_argument("--trials", type=int, default=5)

    p_lint = sub.add_parser(
        "lint", help="run IDDE-Lint, the repo's AST invariant checker"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: .idde-lint-baseline.json if present)",
    )
    p_lint.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    p_lint.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail if any baseline entry is stale (the baseline may "
        "only ever shrink; run --prune-baseline to fix)",
    )
    p_lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="clamp baseline counts to the current findings and exit",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    p_lint.add_argument(
        "--explain",
        default=None,
        metavar="IDDE0NN",
        help="print the long-form documentation for one rule code and exit",
    )
    p_lint.add_argument(
        "--graph",
        choices=["dot", "json"],
        default=None,
        help="export the project call graph instead of linting",
    )
    p_lint.add_argument(
        "--doc-check",
        action="store_true",
        help="also fail if docs/STATIC_ANALYSIS.md drifted from the registry",
    )
    p_lint.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="incremental cache file (default: .idde-lint-cache.json)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true", help="disable the incremental cache"
    )

    p_bench = sub.add_parser(
        "bench", help="run the IDDE-Bench microbenchmarks or compare two documents"
    )
    p_bench.add_argument(
        "--filter", default=None, help="run only benchmarks whose name contains this"
    )
    p_bench.add_argument(
        "--scale", choices=["S", "M", "M_k64", "L", "XL"], default="S", help="fixture scale"
    )
    p_bench.add_argument("--repeats", type=int, default=5, help="timed runs per bench")
    p_bench.add_argument("--warmup", type=int, default=1, help="discarded warmup runs")
    p_bench.add_argument("--seed", type=int, default=0, help="fixture root seed")
    p_bench.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_bench.add_argument(
        "--output", default=None, help="write the JSON document here (e.g. BENCH_<rev>.json)"
    )
    p_bench.add_argument(
        "--list", action="store_true", dest="list_benches",
        help="print the benchmark registry and exit",
    )
    p_bench.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two benchmark documents; exit 1 on regression",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None,
        help="regression gate ratio for --compare (default 2.0)",
    )

    p_serve = sub.add_parser(
        "serve", help="boot the IDDE-Serve async solver daemon"
    )
    _add_instance_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--solver",
        default="idde-g",
        help="base solver for the session (idde-g, idde-ip, saa, cdp, dup-g, ...)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=300.0,
        help="per-request wall-clock budget in seconds (504 past it)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="max mutating requests admitted at once (429 past it)",
    )
    _add_shards_arg(p_serve)

    p_trace = sub.add_parser(
        "trace", help="inspect IDDE-Trace (idde-trace/1) JSONL documents"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize", help="render the span tree, top counters and event mix"
    )
    p_sum.add_argument("path", help="idde-trace/1 JSONL file")
    p_sum.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    return parser


def _shards_value(text: str) -> int | str:
    """Parse ``--shards``: the literal ``auto`` or a positive shard count."""
    if text == "auto":
        return "auto"
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {text!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"shard count must be >= 1, got {n}")
    return n


def _add_shards_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--shards",
        type=_shards_value,
        default=None,
        metavar="auto|N",
        help="solve IDDE-G by interference-domain decomposition: 'auto' "
        "(natural coverage domains) or a target shard count",
    )


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an idde-trace/1 JSONL execution trace to PATH",
    )


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=30, help="edge servers")
    p.add_argument("--m", type=int, default=200, help="users")
    p.add_argument("--k", type=int, default=5, help="data items")
    p.add_argument("--density", type=float, default=1.0, help="link density")
    p.add_argument("--seed", type=int, default=0)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=5, help="repetitions per point (paper: 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ip-budget", type=float, default=3.0, help="IDDE-IP seconds per trial")
    p.add_argument("--workers", type=int, default=None, help="worker processes")


def _shard_config(shards: int | str | None):
    """Map a parsed ``--shards`` value to a :class:`ShardConfig` (or None)."""
    if shards is None:
        return None
    from .sharding import ShardConfig

    return ShardConfig() if shards == "auto" else ShardConfig(n_shards=int(shards))


def _make_tracer(args: argparse.Namespace):
    """A recording tracer when ``--trace`` was given, else ``None``."""
    if getattr(args, "trace", None):
        from .obs import RecordingTracer

        return RecordingTracer()
    return None


def _save_trace(tracer, args: argparse.Namespace, **meta) -> None:
    if tracer is None:
        return
    from .obs import save_trace

    path = save_trace(tracer, args.trace, meta=meta)
    print(f"wrote trace {path}", file=sys.stderr)


def _request_for(args: argparse.Namespace, name: str):
    """One canonical :class:`~repro.request.SolveRequest` from CLI flags.

    The single flag→request mapping ``idde solve`` and ``idde serve``
    share, so both front-ends describe identical runs identically.
    """
    from .request import SolveRequest

    return SolveRequest(
        solver=name,
        sharding=_shard_config(args.shards) if name == "idde-g" else None,
        ip_time_budget_s=getattr(args, "ip_budget", None),
        rng=args.seed,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    import json

    from .api import SOLUTION_SCHEMA, solve
    from .baselines import CANONICAL_SOLVERS, resolve_solver_name
    from .errors import SolverLookupError

    names = list(CANONICAL_SOLVERS) if args.solver == "all" else [args.solver]
    try:
        names = [resolve_solver_name(n) for n in names]
    except SolverLookupError as exc:
        print(f"idde solve: error: {exc.args[0]}", file=sys.stderr)
        return 2

    instance = IDDEInstance.generate(
        n=args.n, m=args.m, k=args.k, density=args.density, seed=args.seed
    )
    tracer = _make_tracer(args)
    solutions = [
        solve(instance, _request_for(args, name), tracer=tracer) for name in names
    ]
    _save_trace(
        tracer, args, command="solve", solver=args.solver, seed=args.seed,
        shards=args.shards,
    )

    if args.format == "json":
        doc = {
            "schema": SOLUTION_SCHEMA,
            "instance": {
                "n": args.n,
                "m": args.m,
                "k": args.k,
                "density": args.density,
                "seed": args.seed,
            },
            "solutions": [sol.to_dict() for sol in solutions],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print(f"instance: {instance}")
    print(f"{'solver':>10} | {'R_avg (MB/s)':>12} | {'L_avg (ms)':>10} | {'time (s)':>9}")
    last = None
    for sol in solutions:
        print(
            f"{sol.solver:>10} | {sol.r_avg:12.2f} | {sol.l_avg_ms:10.2f} | "
            f"{sol.wall_time_s:9.4f}"
        )
        if sol.solver == "IDDE-G":
            last = sol
    if getattr(args, "map", False):
        from .viz import scenario_map

        alloc = last.allocation if last is not None else None
        print()
        print(scenario_map(instance.scenario, alloc))
        print("# = server, digits = users (glyph = allocated server mod 36)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = ALL_SETS[int(args.set) - 1]
    tracer = _make_tracer(args)
    result = run_sweep(
        settings,
        reps=args.reps,
        seed=args.seed,
        ip_time_budget_s=args.ip_budget,
        parallel=ParallelConfig(n_workers=args.workers),
        shards=args.shards,
        tracer=tracer,
    )
    _save_trace(
        tracer, args, command="sweep", set=args.set, seed=args.seed,
        shards=args.shards,
    )
    for metric in ("r_avg", "l_avg_ms", "time_s"):
        print(render_sweep_markdown(result, metric))
    print(render_advantage_markdown(result))
    print(f"shape checks: {shape_checks(result)}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.paper import reproduce_all

    tracer = _make_tracer(args)
    report = reproduce_all(
        reps=args.reps,
        seed=args.seed,
        ip_time_budget_s=args.ip_budget,
        workers=args.workers,
        output_dir=args.output,
        tracer=tracer,
    )
    _save_trace(tracer, args, command="reproduce", seed=args.seed)
    print(report.markdown)
    print("paper overall advantages:", dict(PAPER["overall_advantage_pct"]["r_avg"]))
    print(f"all headline shapes hold: {report.all_shapes_hold()}")
    if report.artifacts:
        print("artifacts:")
        for path in report.artifacts:
            print(f"  {path}")
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    from .datasets.melbourne import CBD_REGION
    from .dynamics import DynamicSimulation, RandomWaypoint, mobility_batches

    instance = IDDEInstance.generate(
        n=args.n, m=args.m, k=args.k, density=args.density, seed=args.seed
    )
    policies = ["warm", "cold", "static"] if args.policy == "all" else [args.policy]
    speed = (max(args.speed * 0.5, 0.1), args.speed * 1.5)
    print(f"instance: {instance}; {args.epochs} epochs x {args.dt}s, speeds {speed} m/s")
    print(
        f"{'policy':>7} | {'R_avg':>7} | {'L_avg':>7} | {'realloc':>7} | "
        f"{'moves':>6} | {'migr MB':>8} | {'solve s':>8}"
    )
    for policy in policies:
        mobility = RandomWaypoint(
            instance.scenario.user_xy, CBD_REGION, rng=args.seed, speed_range=speed
        )
        records = DynamicSimulation(instance, policy=policy).run_events(
            mobility_batches(mobility, args.epochs, args.dt), rng=args.seed
        )
        s = DynamicSimulation.summarize(records)
        print(
            f"{policy:>7} | {s['mean_r_avg']:7.2f} | {s['mean_l_avg_ms']:7.2f} | "
            f"{s['mean_realloc']:7.1f} | {s['mean_moves']:6.1f} | "
            f"{s['mean_migration_mb']:8.1f} | {s['mean_solve_time_s']:8.4f}"
        )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .errors import ReproError

    try:
        return _replay_impl(args)
    except ReproError as exc:
        print(f"idde replay: error: {exc}", file=sys.stderr)
        return 2


def _replay_impl(args: argparse.Namespace) -> int:
    from .dynamics import DynamicSimulation
    from .workload import (
        WorkloadState,
        batch_by_count,
        load_events,
        poisson_zipf_stream,
        save_events,
    )

    instance = IDDEInstance.generate(
        n=args.n, m=args.m, k=args.k, density=args.density, seed=args.seed
    )
    shard_cfg = _shard_config(args.shards)
    tracer = _make_tracer(args)

    def _events():
        if args.input:
            return load_events(
                args.input,
                expect_users=instance.n_users,
                expect_data=instance.n_data,
            )
        return poisson_zipf_stream(
            instance.scenario, rng=args.seed, n_events=args.events
        )

    if args.save_events:
        n = save_events(
            _events(),
            args.save_events,
            n_users=instance.n_users,
            n_data=instance.n_data,
        )
        print(f"wrote {n} events to {args.save_events}", file=sys.stderr)
        args.input = args.save_events

    def _run(policy: str) -> list:
        sim = DynamicSimulation(
            instance,
            policy=policy,
            sharding=shard_cfg,
            tracer=tracer,
        )
        return sim.run_events(
            batch_by_count(_events(), args.epoch_events), rng=args.seed
        )

    header = (
        f"{'policy':>7} | {'epochs':>6} | {'events':>6} | {'moves':>6} | "
        f"{'R_avg':>7} | {'L_avg':>7} | {'solve s':>8} | {'cert':>4}"
    )

    if args.verify:
        # One materialised batch list would hold every event; instead each
        # policy re-reads/re-generates the identical deterministic stream.
        print(header)
        all_ok = True
        results = {}
        for policy in ("warm", "cold"):
            records = _run(policy)
            results[policy] = records
            # Re-derive the final instance/mask and certify the end-state
            # at the tolerance its own run claims.
            state = WorkloadState.from_scenario(instance.scenario)
            for batch in batch_by_count(_events(), args.epoch_events):
                state.apply(batch)
            final_instance = IDDEInstance(
                state.scenario(instance.scenario), instance.topology, instance.radio
            )
            sol = records[-1].solution
            from .core.game import IddeUGame

            certified = IddeUGame(final_instance).is_nash(
                sol.allocation,
                tol=sol.game.effective_epsilon,
                active=state.active,
            )
            all_ok &= certified
            s = DynamicSimulation.summarize(records)
            print(
                f"{policy:>7} | {len(records):>6} | "
                f"{sum(r.n_events for r in records):>6} | "
                f"{sum(r.game_moves for r in records):>6} | "
                f"{s['mean_r_avg']:7.2f} | {s['mean_l_avg_ms']:7.2f} | "
                f"{sum(r.solve_time_s for r in records):8.3f} | "
                f"{'ok' if certified else 'FAIL':>4}"
            )
        warm_t = sum(r.solve_time_s for r in results["warm"][1:])
        cold_t = sum(r.solve_time_s for r in results["cold"][1:])
        if warm_t > 0:
            print(f"warm/cold re-solve speedup: {cold_t / warm_t:.1f}x", file=sys.stderr)
        _save_trace(tracer, args, command="replay", seed=args.seed, verify=True)
        if not all_ok:
            print("ε-Nash certification FAILED", file=sys.stderr)
            return 1
        return 0

    records = _run(args.policy)
    print(header)
    certs = [
        r.solution.game.is_nash
        for r in records
        if r.solution is not None and r.solution.game is not None
    ]
    s = DynamicSimulation.summarize(records)
    print(
        f"{args.policy:>7} | {len(records):>6} | "
        f"{sum(r.n_events for r in records):>6} | "
        f"{sum(r.game_moves for r in records):>6} | "
        f"{s['mean_r_avg']:7.2f} | {s['mean_l_avg_ms']:7.2f} | "
        f"{sum(r.solve_time_s for r in records):8.3f} | "
        f"{'ok' if all(certs) and certs else '—':>4}"
    )
    _save_trace(tracer, args, command="replay", seed=args.seed, policy=args.policy)
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from .core.delivery import greedy_delivery
    from .core.game import IddeUGame
    from .core.objectives import average_delivery_latency_ms
    from .solvers import optimal_delivery_milp

    print(f"{'seed':>5} | {'greedy (ms)':>11} | {'optimal (ms)':>12} | {'gap %':>6}")
    gaps = []
    for trial in range(args.trials):
        seed = args.seed + trial
        instance = IDDEInstance.generate(
            n=args.n, m=args.m, k=args.k, density=args.density, seed=seed
        )
        alloc = IddeUGame(instance).run(rng=seed).profile
        greedy = greedy_delivery(instance, alloc)
        l_greedy = average_delivery_latency_ms(instance, alloc, greedy.profile)
        milp = optimal_delivery_milp(instance, alloc)
        gap = (
            100.0 * (l_greedy - milp.l_avg_ms) / milp.l_avg_ms
            if milp.l_avg_ms > 0
            else 0.0
        )
        gaps.append(gap)
        print(f"{seed:>5} | {l_greedy:11.3f} | {milp.l_avg_ms:12.3f} | {gap:6.2f}")
    print(f"mean gap over {args.trials} trials: {sum(gaps) / len(gaps):.2f}%")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    probe = run_latency_probe(args.seed, days=args.days)
    means = probe.mean_ms()
    print(f"{'target':>10} | {'mean (ms)':>9} | {'p95 (ms)':>9} | paper (ms)")
    p95 = probe.percentile_ms(95)
    for target in probe.targets:
        ref = PAPER["fig1_latency_ms"].get(target, float("nan"))
        print(f"{target:>10} | {means[target]:9.1f} | {p95[target]:9.1f} | {ref:.0f}")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    instance = IDDEInstance.generate(
        n=args.n, m=args.m, k=args.k, density=args.density, seed=args.seed
    )
    report = theory_report(instance)
    print(f"instance: {instance}")
    print(f"Theorem 4 iteration bound: {report.iteration_bound:.3e}")
    print(f"Theorem 5 PoA interval: [{report.poa_interval[0]:.4f}, {report.poa_interval[1]:.1f}]")
    print(f"Theorems 6-7 greedy factor: {report.greedy_factor:.4f}")
    print(f"cloud-only latency: {report.cloud_only_latency_ms:.2f} ms")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis import (
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )
    from .analysis.baseline import DEFAULT_BASELINE_NAME
    from .analysis.registry import explain_code
    from .analysis.report import doc_catalog_problems, render_rule_table
    from .analysis.semantic.cache import DEFAULT_CACHE_NAME

    if args.list_rules:
        print(render_rule_table())
        return 0
    if args.explain:
        text = explain_code(args.explain)
        if text is None:
            print(f"idde lint: error: unknown rule code {args.explain!r}", file=sys.stderr)
            return 2
        print(text)
        return 0
    if args.graph:
        try:
            graph = _build_call_graph(args.paths)
        except FileNotFoundError as exc:
            print(f"idde lint: error: {exc}", file=sys.stderr)
            return 2
        print(graph.to_dot() if args.graph == "dot" else json.dumps(graph.to_dict(), indent=2))
        return 0

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    baseline = None
    if not args.no_baseline and not args.write_baseline and baseline_path.exists():
        baseline = load_baseline(baseline_path)

    cache = None if args.no_cache else (args.cache or DEFAULT_CACHE_NAME)
    try:
        findings = lint_paths(args.paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"idde lint: error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        written = write_baseline(baseline_path, findings)
        print(f"wrote {len(written)} finding(s) to {baseline_path}")
        return 0
    if args.prune_baseline:
        if baseline is None:
            print("idde lint: no baseline to prune", file=sys.stderr)
            return 2
        pruned = baseline.pruned(findings)
        baseline_path.write_text(pruned.to_json(), encoding="utf-8")
        print(
            f"pruned baseline {baseline_path}: {len(baseline)} -> {len(pruned)} entries"
        )
        return 0

    failures = 0
    if args.check_baseline and baseline is not None:
        stale = baseline.stale_entries(findings)
        if stale:
            for fp, n in sorted(stale.items()):
                print(f"stale baseline entry (x{n}): {fp}", file=sys.stderr)
            print(
                f"idde lint: {sum(stale.values())} stale baseline count(s); the "
                "baseline may only ever shrink — run `idde lint --prune-baseline`",
                file=sys.stderr,
            )
            failures = 1
    if args.doc_check:
        docs = Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"
        if docs.exists():
            problems = doc_catalog_problems(docs.read_text(encoding="utf-8"))
        else:
            problems = [f"docs file not found: {docs}"]
        for problem in problems:
            print(f"doc drift: {problem}", file=sys.stderr)
        if problems:
            failures = 1

    baselined = 0
    if baseline is not None:
        kept = baseline.filter(findings)
        baselined = len(findings) - len(kept)
        findings = kept
    render = render_json if args.format == "json" else render_text
    print(render(findings, baselined=baselined))
    return 1 if findings or failures else 0


def _build_call_graph(paths):
    """Parse ``paths`` and build the project call graph (for ``--graph``)."""
    import ast as _ast

    from .analysis.engine import FileContext, _display_path, iter_python_files
    from .analysis.semantic import Project

    contexts = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        try:
            tree = _ast.parse(source, filename=str(file))
        except SyntaxError:
            continue
        contexts.append(
            FileContext(path=_display_path(file), source=source, tree=tree)
        )
    return Project.build(contexts).graph


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench import (
        BenchRunConfig,
        all_benchmarks,
        build_document,
        compare_documents,
        load_document,
        render_compare_text,
        render_text,
        run_benchmarks,
        save_document,
    )
    from .bench.compare import DEFAULT_THRESHOLD
    from .errors import ReproError

    if args.list_benches:
        print(f"{'benchmark':<28} | description")
        print(f"{'-' * 28}-+-{'-' * 48}")
        for bench in all_benchmarks():
            print(f"{bench.name:<28} | {bench.description}")
        return 0

    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    try:
        if args.compare is not None:
            old_path, new_path = args.compare
            result = compare_documents(
                load_document(old_path), load_document(new_path), threshold=threshold
            )
            if args.format == "json":
                print(
                    json.dumps(
                        {
                            "threshold": result.threshold,
                            "noise_floor_s": result.noise_floor_s,
                            "exit_code": result.exit_code,
                            "deltas": [
                                {
                                    "name": d.name,
                                    "status": d.status,
                                    "ratio": d.ratio,
                                    "old_median_s": d.old_median_s,
                                    "new_median_s": d.new_median_s,
                                }
                                for d in result.deltas
                            ],
                        },
                        indent=2,
                    )
                )
            else:
                print(render_compare_text(result))
            return result.exit_code

        config = BenchRunConfig(
            scale=args.scale,
            seed=args.seed,
            repeats=args.repeats,
            warmup=args.warmup,
            filter=args.filter,
        )
        results = run_benchmarks(config)
        doc = build_document(results, config)
        if args.output:
            path = save_document(doc, args.output)
            print(f"wrote {path}", file=sys.stderr)
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_text(doc))
        return 0
    except ReproError as exc:
        print(f"idde bench: error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ReproError, SolverLookupError
    from .baselines import resolve_solver_name

    try:
        name = resolve_solver_name(args.solver)
    except SolverLookupError as exc:
        print(f"idde serve: error: {exc.args[0]}", file=sys.stderr)
        return 2

    from dataclasses import replace

    from .serve import ServeConfig, ServeDaemon, SolverSession

    instance = IDDEInstance.generate(
        n=args.n, m=args.m, k=args.k, density=args.density, seed=args.seed
    )
    # warm_start=True: once a resident solution exists, bare POST
    # /v1/solve re-solves warm from it (events always re-solve warm).
    request = replace(_request_for(args, name), warm_start=True)
    try:
        daemon = ServeDaemon(
            SolverSession(instance, request),
            ServeConfig(
                host=args.host,
                port=args.port,
                request_timeout_s=args.request_timeout,
                queue_limit=args.queue_limit,
            ),
        )
    except ReproError as exc:
        print(f"idde serve: error: {exc}", file=sys.stderr)
        return 2

    async def _run() -> int:
        await daemon.start()
        print(
            f"idde serve: listening on http://{args.host}:{daemon.port} "
            f"({instance}; solver {name}); SIGTERM drains gracefully",
            file=sys.stderr,
            flush=True,
        )
        return await daemon.run()

    return asyncio.run(_run())


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .obs import load_trace, render_summary

    try:
        doc = load_trace(args.path)
    except ReproError as exc:
        print(f"idde trace: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(doc.summary_dict(), indent=2, sort_keys=True))
    else:
        print(render_summary(doc))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "fig1": _cmd_fig1,
    "theory": _cmd_theory,
    "dynamics": _cmd_dynamics,
    "replay": _cmd_replay,
    "gap": _cmd_gap,
    "lint": _cmd_lint,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .logging_util import configure_logging

    configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # report piped into `head` and the like: a closed pipe is not an
        # error worth a traceback, but stdout is unusable — detach it so
        # interpreter shutdown does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
