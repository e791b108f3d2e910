"""Fig. 7 — computation time per approach across all four sets.

Two views:

* the sweep-measured per-set average solve times (the figure's content),
  printed against the paper's reported averages;
* direct pytest-benchmark timings of each approach on the default
  instance (N=30, M=200, K=5, density=1.0), which is what the benchmark
  table of this module shows.
"""

from io import StringIO

import pytest

from repro.baselines import build_solver
from repro.core.instance import IDDEInstance
from repro.experiments.figures import PAPER
from repro.experiments.report import render_timing_markdown

from conftest import write_artifact, BENCH_IP_BUDGET


def test_fig7_timing_table(benchmark, set1_sweep, set2_sweep, set3_sweep, set4_sweep):
    results = [set1_sweep, set2_sweep, set3_sweep, set4_sweep]
    benchmark(render_timing_markdown, results)
    out = StringIO()
    out.write("## Fig. 7 — computation time (s)\n\n")
    out.write(render_timing_markdown(results))
    out.write("\n### Cross-set averages vs paper\n\n")
    out.write("| approach | measured (s) | paper (s) |\n|---|---|---|\n")
    for name in results[0].solver_names:
        measured = sum(r.average(name, "time_s") for r in results) / len(results)
        out.write(
            f"| {name} | {measured:.4f} | {PAPER['computation_time_s'][name]:.4f} |\n"
        )
    out.write(
        "\n(The IDDE-IP budget is scaled down from the paper's 100 s cap "
        f"to {BENCH_IP_BUDGET} s; its *relative* cost ordering is the claim "
        "under test.)\n"
    )
    report = out.getvalue()
    write_artifact("fig7_computation_time.md", report)
    print("\n" + report)

    # The figure's orderings: IDDE-IP far slowest; CDP fastest of all;
    # SAA the slowest pure heuristic.
    for result in results:
        times = {s: result.average(s, "time_s") for s in result.solver_names}
        assert max(times, key=times.get) == "IDDE-IP", times
        heuristics = {s: t for s, t in times.items() if s != "IDDE-IP"}
        assert min(heuristics, key=heuristics.get) in ("CDP", "DUP-G"), times


@pytest.mark.parametrize("name", ["IDDE-G", "SAA", "CDP", "DUP-G"])
def test_fig7_heuristic_benchmark(benchmark, name):
    """Direct timing of each heuristic on the default instance."""
    instance = IDDEInstance.generate(n=30, m=200, k=5, density=1.0, seed=0)
    solver = build_solver(name)
    strategy = benchmark.pedantic(
        solver.solve, args=(instance,), kwargs={"rng": 0}, rounds=3, iterations=1
    )
    assert strategy.r_avg > 0


def test_fig7_idde_ip_benchmark(benchmark):
    """IDDE-IP's cost is its budget by construction — one round suffices."""
    instance = IDDEInstance.generate(n=30, m=200, k=5, density=1.0, seed=0)
    solver = build_solver("IDDE-IP", time_budget_s=BENCH_IP_BUDGET)
    strategy = benchmark.pedantic(
        solver.solve, args=(instance,), kwargs={"rng": 0}, rounds=1, iterations=1
    )
    assert strategy.wall_time_s >= BENCH_IP_BUDGET * 0.9
