#!/usr/bin/env python3
"""Serve a generated query stream through the concurrent engine.

Builds a seeded multi-peer scenario (`repro.workloads`), generates an
arrival process over its queries (`repro.engine.LoadGenerator`), drains
it through the multi-query scheduler, and prints the fleet metrics —
makespan, latency percentiles, queries/sec, per-peer utilization.

Examples:

    # closed loop: 8 in-flight slots over 32 requests
    python scripts/serve_load.py --seed 7 --jobs 32 --concurrency 8

    # open loop: Poisson arrivals at 200 queries/sec of virtual time
    python scripts/serve_load.py --seed 7 --jobs 32 --rate 200

    # show every served job and the event trace
    python scripts/serve_load.py --seed 7 --jobs 8 --concurrency 4 -v

Run:  python scripts/serve_load.py --help
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.engine import LoadGenerator  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads import ScenarioGenerator, ScenarioSpec, TOPOLOGIES  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario + stream seed (default 7)")
    parser.add_argument("--index", type=int, default=0,
                        help="scenario index under the seed")
    parser.add_argument("--peers", type=int, default=6)
    parser.add_argument("--topology", default="mesh",
                        choices=sorted(TOPOLOGIES) + ["any"])
    parser.add_argument("--replicas", type=int, default=2,
                        help="documents mirrored as @any replicas")
    parser.add_argument("--jobs", type=int, default=32,
                        help="requests in the stream")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="closed loop: in-flight slots")
    parser.add_argument("--rate", type=float, default=None,
                        help="open loop: arrivals per virtual second")
    parser.add_argument("--strategy", default="beam",
                        help="optimizer strategy planning each job")
    parser.add_argument("--admission", default="queue-depth",
                        help="pick policy for @any replicas")
    parser.add_argument("--engine-seed", type=int, default=0,
                        help="scheduler tie-breaking seed")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record a virtual-clock span trace of the run "
                             "to FILE (JSON-lines; inspect with "
                             "scripts/trace_view.py)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print per-job lines and the event trace")
    args = parser.parse_args(argv)

    if (args.concurrency is None) == (args.rate is None):
        parser.error("pick exactly one of --concurrency (closed loop) "
                     "or --rate (open loop)")

    spec = ScenarioSpec(
        peers=args.peers, topology=args.topology, documents=4,
        axml_documents=1, items=20, services=2,
        replicas=min(args.replicas, 4), queries=6,
    )
    scenario = ScenarioGenerator(seed=args.seed, spec=spec).scenario(args.index)
    load = LoadGenerator(scenario, seed=args.seed + 1)
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    session = Session(scenario.system, strategy=args.strategy, tracer=tracer)

    print(scenario.describe())
    if args.concurrency is not None:
        print(f"closed loop: {args.jobs} requests, "
              f"{args.concurrency} in-flight slots")
        report = session.serve(
            feed=load.closed_loop(args.jobs, args.concurrency),
            seed=args.engine_seed, admission=args.admission,
        )
    else:
        print(f"open loop: {args.jobs} requests at {args.rate:g} q/s")
        report = session.serve(
            load.open_loop(args.jobs, args.rate),
            seed=args.engine_seed, admission=args.admission,
        )

    if args.trace is not None:
        from repro.obs import write_jsonl

        write_jsonl(report.trace, args.trace)
        print(f"trace: {len(report.trace.jobs)} job span trees -> "
              f"{args.trace} (view: python scripts/trace_view.py {args.trace})")

    print()
    if args.verbose:
        print(report.describe())
        print("events:")
        for line in report.events:
            print(f"  {line}")
    else:
        print(report.metrics.describe())
    planning = session.plan_cache.stats
    print(f"planning: {planning.prepared_misses} searches run, "
          f"{planning.prepared_hits} prepared hits "
          f"({planning.prepared_evictions} evicted)")
    return 1 if report.metrics.failed else 0


if __name__ == "__main__":
    sys.exit(main())
