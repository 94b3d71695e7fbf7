"""S1 — raw serving speed: analytic cost models vs the simulate-everything oracle.

The T1 workload (heterogeneous mesh, replicated documents, closed-loop
admission) served three times, identical except for how the optimizer
prices candidate plans:

* ``oracle``  — every candidate is clone-and-simulated (the historical
  default: perfectly informed, and ~all of the serving wall time);
* ``analytic`` — every candidate is priced statically from sampled
  catalog statistics; nothing is simulated;
* ``hybrid``  — the frontier is priced analytically, only the chosen
  plan (plus the original) is oracle-checked.

The claim under test: estimation *avoids simulation*, and never changes
*what the optimizer answers*.  Every mode must produce byte-identical
answers and byte-identical virtual-time metrics (makespan, latency
percentiles) on the served stream, while hybrid *plans* the scenario's
distinct queries cold with <=1/5 of the oracle's simulations
(:func:`repro.core.cost.measure` calls — an exact count, so the gate
does not move when simulating gets cheaper or the host gets noisy).
The cold-planning wall ratio is reported beside it, not gated.

Both are taken on cold planning (``Session.explain`` of each distinct
query on a fresh session), not on the served stream: a served job that
repeats an already-planned query skips the search under every cost
model (the prepared-plan table), so the longer the stream, the less of
it any cost model touches.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, emit_json, format_table, timed_run  # noqa: E402

from repro.core import costmodel  # noqa: E402
from repro.engine import LoadGenerator  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads import ScenarioGenerator, ScenarioSpec  # noqa: E402

BENCH_ID = "S1"
JSON_NAME = "BENCH_speed"

#: The T1 scenario, verbatim: same mesh, same replicas, same queries —
#: so speedups here compose with the throughput numbers over there.
SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1,
    items=20, services=2, replicas=2, queries=6,
)

COST_MODELS = ("oracle", "analytic", "hybrid")
CONCURRENCY = 4
JOBS = 32
QUICK_JOBS = 16

#: The acceptance floor: planning the workload's distinct queries cold,
#: the oracle must simulate >=5x as many plans as hybrid does.
MIN_MEASURE_RATIO = 5.0
#: Cold-planning repetitions per mode (fresh session each; fastest kept).
PLAN_REPS = 3


def serve_mode(mode: str, seed: int, jobs: int):
    """One closed-loop run priced by ``mode``; returns (report, seconds).

    Scenario and load are regenerated per mode from the same seeds, so
    every mode admits byte-identical requests over byte-identical Σ.
    """
    scenario = ScenarioGenerator(seed=seed, spec=SPEC).scenario(0)
    load = LoadGenerator(scenario, seed=seed + 1)
    session = Session(scenario.system, cost_model=mode)
    feed = load.closed_loop(jobs, CONCURRENCY)
    return timed_run(lambda: session.serve(feed=feed, seed=seed))


def plan_mode(mode: str, seed: int):
    """Plan every distinct query cold under ``mode``.

    Returns ``(wall seconds, simulations)``: the fastest repetition's
    wall time and the number of ``measure`` calls one repetition makes
    (the same in each — asserted).
    """
    best = float("inf")
    counts = set()
    measure = costmodel.measure
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return measure(*args, **kwargs)

    costmodel.measure = counting
    try:
        for _ in range(PLAN_REPS):
            calls = 0
            scenario = ScenarioGenerator(seed=seed, spec=SPEC).scenario(0)
            session = Session(scenario.system, cost_model=mode)
            _, seconds = timed_run(
                lambda: [
                    session.explain(q.source, q.at, q.bindings, q.name)
                    for q in scenario.queries
                ]
            )
            best = min(best, seconds)
            counts.add(calls)
    finally:
        costmodel.measure = measure
    assert len(counts) == 1, f"measure calls varied across repetitions: {counts}"
    return best, counts.pop()


def run_modes(seed: int, jobs: int):
    rows = []
    modes = {}
    answers = {}
    vtime = {}
    for mode in COST_MODELS:
        report, seconds = serve_mode(mode, seed, jobs)
        metrics = report.metrics
        assert metrics.failed == 0, f"{metrics.failed} jobs failed under {mode}"
        wall_qps = metrics.jobs / max(1e-9, seconds)
        plan_seconds, simulations = plan_mode(mode, seed)
        rows.append((
            mode, plan_seconds * 1000, simulations, metrics.jobs,
            seconds * 1000, wall_qps,
            metrics.makespan * 1000, metrics.latency_p50 * 1000,
            metrics.latency_p95 * 1000,
        ))
        modes[mode] = {
            "cold_plan_seconds": round(plan_seconds, 4),
            "cold_plan_measure_calls": simulations,
            "jobs": metrics.jobs,
            "wall_seconds": round(seconds, 4),
            "wall_qps": round(wall_qps, 2),
            "makespan_ms": round(metrics.makespan * 1000, 3),
            "latency_p50_ms": round(metrics.latency_p50 * 1000, 3),
            "latency_p95_ms": round(metrics.latency_p95 * 1000, 3),
        }
        answers[mode] = sorted(
            (job.name, tuple(job.answers)) for job in report.jobs
        )
        vtime[mode] = (
            metrics.makespan, metrics.latency_p50,
            metrics.latency_p95, metrics.latency_p99,
        )
    return rows, modes, answers, vtime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller run for CI's perf-smoke job")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    jobs = args.jobs or (QUICK_JOBS if args.quick else JOBS)
    rows, modes, answers, vtime = run_modes(args.seed, jobs)

    emit(
        BENCH_ID,
        f"cold planning and serving speed by cost model, {jobs} jobs at "
        f"concurrency {CONCURRENCY}",
        format_table(
            ["model", "cold plan ms", "simulations", "jobs", "wall ms", "wall qps",
             "makespan ms", "p50 ms", "p95 ms"],
            rows,
        ),
    )

    oracle_plan = modes["oracle"]["cold_plan_seconds"]
    hybrid_speedup = oracle_plan / max(1e-9, modes["hybrid"]["cold_plan_seconds"])
    analytic_speedup = oracle_plan / max(
        1e-9, modes["analytic"]["cold_plan_seconds"]
    )
    oracle_measures = modes["oracle"]["cold_plan_measure_calls"]
    hybrid_measures = modes["hybrid"]["cold_plan_measure_calls"]
    measure_ratio = oracle_measures / max(1, hybrid_measures)
    answers_identical = all(
        answers[mode] == answers["oracle"] for mode in COST_MODELS
    )
    vtime_identical = all(
        vtime[mode] == vtime["oracle"] for mode in COST_MODELS
    )

    payload = {
        "bench": BENCH_ID,
        "seed": args.seed,
        "quick": args.quick,
        "jobs": jobs,
        "concurrency": CONCURRENCY,
        "modes": modes,
        "oracle_vs_hybrid_measure_ratio": round(measure_ratio, 3),
        "hybrid_vs_oracle_planning_speedup": round(hybrid_speedup, 3),
        "analytic_vs_oracle_planning_speedup": round(analytic_speedup, 3),
        "identical_answers_across_models": answers_identical,
        "identical_virtual_time_across_models": vtime_identical,
    }
    emit_json(JSON_NAME, payload, quick=args.quick)

    print(
        f"\ncold planning: hybrid simulates {hybrid_measures} plans vs oracle "
        f"{oracle_measures} (x{measure_ratio:.2f}), analytic "
        f"{modes['analytic']['cold_plan_measure_calls']}; wall: hybrid "
        f"{modes['hybrid']['cold_plan_seconds'] * 1000:.0f} ms vs oracle "
        f"{oracle_plan * 1000:.0f} ms (x{hybrid_speedup:.2f}), "
        f"analytic x{analytic_speedup:.2f}"
    )

    # regression gates: estimation must avoid simulation without touching
    # a single observable — answers and virtual time are the contract
    if not answers_identical:
        print("FAIL: answers diverged across cost models")
        return 1
    if not vtime_identical:
        print("FAIL: virtual-time metrics diverged across cost models")
        return 1
    if modes["analytic"]["cold_plan_measure_calls"]:
        print("FAIL: the analytic model simulated a plan")
        return 1
    if measure_ratio < MIN_MEASURE_RATIO:
        print(
            f"FAIL: oracle/hybrid simulation ratio x{measure_ratio:.2f} fell "
            f"below the x{MIN_MEASURE_RATIO:.1f} floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
