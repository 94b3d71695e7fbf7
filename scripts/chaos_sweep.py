#!/usr/bin/env python3
"""Sweep generated scenarios under seeded chaos; assert the fault invariant.

For every (scenario seed x fault seed x strategy) cell, the scenario's
queries are served fault-free (the reference answers) and again with a
seeded :class:`~repro.faults.FaultPlan` installed plus the full recovery
stack (retry/backoff/timeouts, replica failover, graceful partial
answers).  Every faulted job must land in one of exactly three buckets:

* answer canonically **identical** to the fault-free run;
* a well-formed partial answer that is a provable multiset **subset**;
* a **typed** error.

Silent wrong answers and hangs have no bucket — any such job is a
violation and the sweep exits 1.

Examples:

    # the default sweep: 3 scenario seeds x 2 fault seeds, beam + greedy
    python scripts/chaos_sweep.py

    # a deeper hunt with per-job verdicts
    python scripts/chaos_sweep.py --seeds 3 7 11 19 --fault-seeds 1 2 3 -v

    # no recovery: faults surface as typed errors on first occurrence
    python scripts/chaos_sweep.py --max-attempts 1

Run:  python scripts/chaos_sweep.py --help
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.faults import FaultSpec, RetryPolicy  # noqa: E402
from repro.workloads import (  # noqa: E402
    CHAOS_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11],
                        help="scenario seeds to sweep (default: 3 7 11)")
    parser.add_argument("--fault-seeds", type=int, nargs="+", default=[1, 2],
                        help="fault-plan seeds per scenario (default: 1 2)")
    parser.add_argument("--index", type=int, default=0,
                        help="scenario index under each seed")
    parser.add_argument("--strategies", nargs="+",
                        default=["beam", "greedy"],
                        help="optimizer strategies to cross (default: beam greedy)")
    parser.add_argument("--max-attempts", type=int, default=4,
                        help="retry budget; 1 disables retries (default 4)")
    parser.add_argument("--backoff", type=float, default=0.005,
                        help="base retry backoff in virtual seconds")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-job deadline in virtual seconds (optional)")
    parser.add_argument("--drops", type=int, default=3,
                        help="link-drop windows per fault plan")
    parser.add_argument("--crashes", type=int, default=1,
                        help="peer crash/rejoin cycles per fault plan")
    parser.add_argument("--hangs", type=int, default=1,
                        help="service-hang windows per fault plan")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="additionally serve the first (scenario, fault "
                             "seed) cell with span tracing on and write the "
                             "trace to FILE (JSON-lines; inspect with "
                             "scripts/trace_view.py)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every per-job verdict, not just violations")
    args = parser.parse_args(argv)

    if len(args.strategies) < 2:
        parser.error(
            "the differential harness needs at least two strategies to "
            "cross-check (e.g. --strategies beam greedy)"
        )

    spec = FaultSpec(
        link_drops=args.drops,
        link_degrades=1,
        corruptions=1,
        service_failures=1,
        service_hangs=args.hangs,
        peer_stalls=1,
        peer_crashes=args.crashes,
        horizon=0.3,
    )
    retry = RetryPolicy(max_attempts=args.max_attempts, backoff=args.backoff)
    harness = DifferentialHarness(tuple(args.strategies), repro_dir=None)
    scenarios = [
        ScenarioGenerator(seed=seed, spec=CHAOS_SPEC).scenario(args.index)
        for seed in args.seeds
    ]

    report = harness.sweep(
        "fault",
        scenarios,
        fault_seeds=tuple(args.fault_seeds),
        spec=spec,
        retry=retry,
        deadline=args.deadline,
    )

    print(report.describe())  # the summary line, then every violating job
    if args.verbose:
        for cell in report.cells:
            runs = ", ".join(o.describe() for o in cell.outcomes.values())
            print(f"  scenario {cell.scenario.seed} job {cell.query.name!r} "
                  f"[{cell.strategy}]: {runs}")

    if args.trace is not None:
        # one extra traced serving run of the first sweep cell: span
        # trees for every job (retry backoffs, stalls, fault windows
        # included), written as JSON-lines for scripts/trace_view.py
        from repro.engine.jobs import JobRequest
        from repro.faults import FaultPlan
        from repro.obs import Tracer, write_jsonl
        from repro.session import Session

        scenario = scenarios[0]
        plan = FaultPlan.generate(args.fault_seeds[0], scenario.system, spec)
        tracer = Tracer()
        session = Session(
            scenario.system, strategy=args.strategies[0],
            retry=retry, fault_plan=plan, tracer=tracer,
        )
        traced = session.serve(
            [JobRequest(arrival=i * 0.01, partial=True,
                        deadline=args.deadline, **q.kwargs())
             for i, q in enumerate(scenario.queries)]
        )
        write_jsonl(traced.trace, args.trace)
        print(f"\ntrace: {len(traced.trace.jobs)} job span trees "
              f"(scenario seed {args.seeds[0]}, fault seed "
              f"{args.fault_seeds[0]}) -> {args.trace}")
    if not report.ok:
        print(f"\nFAIL: {len(report.failures)} jobs violate the fault invariant")
        return 1
    print("\nPASS: every faulted job answered identically, partially "
          "(provable subset), or failed typed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
