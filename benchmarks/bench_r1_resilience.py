#!/usr/bin/env python3
"""R1 — resilience: availability and latency under seeded chaos.

One generated chaos scenario (``CHAOS_SPEC``: mesh of heterogeneous
peers, plain + AXML documents, a declarative service, fragments) serves
the same request stream three ways on identical virtual hardware:

* **fault-free** — no fault plan installed: the availability and
  latency reference;
* **faults + recovery** — a seeded :class:`~repro.faults.FaultPlan`
  (link drops, degrades, corruption, service failures/hangs, peer
  stalls, one crash/rejoin cycle) with the full recovery stack armed:
  exponential-backoff retries with seeded jitter, per-kind timeouts
  cancelling hung calls, replica failover, and graceful partial
  answers;
* **faults, no recovery** — the same fault plan with the recovery
  stack disarmed: the first typed fault a job meets fails it.

Availability counts a job as served when it drains ``done`` — a full
answer or a well-formed partial one (partials are reported separately;
the differential harness separately proves every partial is a multiset
subset of the fault-free answer, never a silent wrong one).

Claimed shape (asserted):

* availability under faults with recovery >= 0.95;
* the unprotected run visibly degrades: at least 15 points below the
  recovered run (lands around 0.6 on the full stream);
* recovered p95 latency stays within 3x the fault-free p95.

Emits ``benchmarks/results/BENCH_resilience.json`` (headline:
``availability_under_faults``; CI's perf-smoke gates on it).

Run:  python benchmarks/bench_r1_resilience.py [--quick] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from dataclasses import replace  # noqa: E402

from common import emit, emit_json, format_table  # noqa: E402

from repro.engine import JobRequest  # noqa: E402
from repro.faults import FaultActor, FaultPlan, FaultSpec, RetryPolicy  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads import CHAOS_SPEC, ScenarioGenerator  # noqa: E402

BENCH_ID = "R1"
JSON_NAME = "BENCH_resilience"

#: The chaos scenario, scaled up from the sweep default: heavier items
#: and payloads so transfers carry real weight — fault windows then cost
#: a bounded *fraction* of a job instead of dwarfing it, which is what
#: makes the 3x-p95 bar meaningful.
BENCH_SPEC = replace(CHAOS_SPEC, items=40, payload_words=12)

#: The bench's chaos mix: dense transient windows across every fault
#: family.  Tuned so the unprotected run visibly fails (~0.6
#: availability) while every fault stays transient — short enough that a
#: bounded retry budget clears it.
CHAOS_LOAD = FaultSpec(
    link_drops=24,
    link_degrades=2,
    corruptions=4,
    service_failures=3,
    service_hangs=1,
    peer_stalls=2,
    peer_crashes=1,
    horizon=0.6,
    min_window=0.02,
    max_window=0.05,
    crash_downtime=0.05,
)

#: The armed recovery stack: enough attempts to outlast the longest
#: window, backoff short relative to window width so retries land while
#: the fault is still worth dodging, timeouts that cancel hung calls.
RECOVERY = RetryPolicy(max_attempts=8, backoff=0.005, call_timeout=0.02)


def _requests(scenario, rounds: int, partial: bool):
    """``rounds`` passes over the scenario's query mix, arrivals spread
    across the fault horizon so every window sees live traffic."""
    total = rounds * len(scenario.queries)
    gap = CHAOS_LOAD.horizon / total
    requests = []
    for r in range(rounds):
        for query in scenario.queries:
            kwargs = query.kwargs()
            kwargs["name"] = f"{kwargs['name']}-r{r}"
            requests.append(
                JobRequest(
                    arrival=len(requests) * gap, partial=partial, **kwargs
                )
            )
    return requests


def _p95(values):
    if not values:
        return float("inf")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def run_mode(seed: int, fault_seed, rounds: int, recover: bool):
    """Serve the stream on a fresh copy of the scenario; return stats.

    ``fault_seed=None`` is the fault-free reference.  The scenario is
    regenerated per mode (the generator is deterministic), so the three
    runs start from byte-identical systems.
    """
    scenario = ScenarioGenerator(seed=seed, spec=BENCH_SPEC).scenario(0)
    plan = None
    if fault_seed is not None:
        plan = FaultPlan.generate(fault_seed, scenario.system, CHAOS_LOAD)
    session = Session(
        scenario.system,
        retry=RECOVERY if recover else None,
        fault_plan=plan,
    )
    requests = _requests(scenario, rounds, partial=recover)
    report = session.serve(
        requests, actor=FaultActor(plan) if plan is not None else None
    )
    done = [job for job in report.jobs if job.status == "done"]
    latencies = [job.finished_at - job.arrival for job in done]
    return {
        "jobs": len(report.jobs),
        "done": len(done),
        "partials": sum(1 for job in done if job.partial is not None),
        "failed": sum(1 for job in report.jobs if job.status == "failed"),
        "availability": len(done) / max(1, len(report.jobs)),
        "p95": _p95(latencies),
        "faults": {
            dict(counter.labels)["kind"]: counter.value
            for counter in report.registry.counters("faults")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller run for CI's perf-smoke job")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fault-seed", type=int, default=1)
    args = parser.parse_args(argv)

    rounds = 4 if args.quick else 10

    clean = run_mode(args.seed, None, rounds, recover=True)
    recovered = run_mode(args.seed, args.fault_seed, rounds, recover=True)
    exposed = run_mode(args.seed, args.fault_seed, rounds, recover=False)

    p95_ratio = recovered["p95"] / max(1e-9, clean["p95"])
    modes = (
        ("fault-free", clean),
        ("faults+recovery", recovered),
        ("faults, no recovery", exposed),
    )
    rows = [
        (
            label,
            stats["jobs"],
            stats["done"],
            stats["partials"],
            stats["failed"],
            stats["availability"],
            stats["p95"] * 1000,
        )
        for label, stats in modes
    ]
    emit(
        BENCH_ID,
        "availability & p95 under seeded chaos: recovery armed vs disarmed",
        format_table(
            ["mode", "jobs", "done", "partial", "failed", "avail",
             "p95 vms"],
            rows,
        ),
    )
    fired = ", ".join(
        f"{key}={value}" for key, value in sorted(recovered["faults"].items())
    )
    print(f"\nfault counters (recovered run): {fired}")

    payload = {
        "bench": BENCH_ID,
        "seed": args.seed,
        "fault_seed": args.fault_seed,
        "jobs": recovered["jobs"],
        "availability_fault_free": round(clean["availability"], 4),
        "availability_under_faults": round(recovered["availability"], 4),
        "availability_no_recovery": round(exposed["availability"], 4),
        "partial_answers": recovered["partials"],
        "p95_fault_free_s": round(clean["p95"], 4),
        "p95_under_faults_s": round(recovered["p95"], 4),
        "p95_ratio": round(p95_ratio, 2),
        "retries": recovered["faults"].get("retries", 0),
    }
    emit_json(JSON_NAME, payload, quick=args.quick)

    print(
        f"\navailability: {recovered['availability']:.2f} with recovery vs "
        f"{exposed['availability']:.2f} without "
        f"(fault-free {clean['availability']:.2f}); "
        f"p95 x{p95_ratio:.2f} vs fault-free"
    )

    if recovered["availability"] < 0.95:
        print(
            f"FAIL: availability under faults "
            f"{recovered['availability']:.2f} fell below the 0.95 bar"
        )
        return 1
    if exposed["availability"] > recovered["availability"] - 0.15:
        print(
            f"FAIL: unprotected availability {exposed['availability']:.2f} "
            "is not visibly worse than the recovered run"
        )
        return 1
    if p95_ratio > 3.0:
        print(
            f"FAIL: recovered p95 is x{p95_ratio:.2f} the fault-free p95 "
            "(bar: 3x)"
        )
        return 1
    print("PASS: recovery holds availability >= 0.95 within 3x p95")
    return 0


if __name__ == "__main__":
    sys.exit(main())
