#!/usr/bin/env python3
"""Generate seeded workload scenarios and (optionally) differential-check them.

Examples:

    # summarize 10 scenarios from seed 7
    python scripts/generate_workloads.py --seed 7 --count 10

    # write the canonical scenario dumps to a directory
    python scripts/generate_workloads.py --seed 7 --count 10 --out /tmp/w

    # the conformance gate: every strategy must agree on every query
    python scripts/generate_workloads.py --seed 7 --count 50 --check

A mismatch writes a minimized repro script (named
``repro-seed<seed>-idx<index>-<query>.py``) under ``--repro-dir`` and
exits non-zero; run the script directly to reproduce, and re-run it
after a fix to confirm it exits 0.

Run:  python scripts/generate_workloads.py --help
"""

from __future__ import annotations

import argparse
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.workloads import (  # noqa: E402
    DEFAULT_STRATEGIES,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
    TOPOLOGIES,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--count", type=int, default=10, help="number of scenarios")
    parser.add_argument("--start", type=int, default=0, help="first scenario index")
    parser.add_argument("--peers", type=int, default=4)
    parser.add_argument("--documents", type=int, default=3)
    parser.add_argument("--axml-documents", type=int, default=1)
    parser.add_argument("--items", type=int, default=12, help="items per document")
    parser.add_argument("--services", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--queries", type=int, default=5, help="queries per scenario")
    parser.add_argument(
        "--topology",
        choices=list(TOPOLOGIES) + ["any"],
        default="any",
        help="fixed topology, or 'any' to rotate per index",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write each scenario's canonical dump to DIR/scenario-<idx>.txt",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run the differential harness over the generated scenarios",
    )
    parser.add_argument(
        "--strategies", nargs="+", default=list(DEFAULT_STRATEGIES),
        help="strategies to cross-check (with --check)",
    )
    parser.add_argument(
        "--repro-dir", default="workload-repros", metavar="DIR",
        help="where mismatch repro scripts are written (with --check)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = ScenarioSpec(
        peers=args.peers,
        topology=args.topology,
        documents=args.documents,
        axml_documents=args.axml_documents,
        items=args.items,
        services=args.services,
        replicas=min(args.replicas, args.documents),
        queries=args.queries,
    )
    generator = ScenarioGenerator(seed=args.seed, spec=spec)
    scenarios = list(generator.scenarios(args.count, start=args.start))

    for scenario in scenarios:
        print(scenario.describe())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for scenario in scenarios:
            path = os.path.join(args.out, f"scenario-{scenario.index}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(scenario.serialize())
        print(f"wrote {len(scenarios)} scenario dumps to {args.out}")

    if not args.check:
        return 0

    harness = DifferentialHarness(
        strategies=tuple(args.strategies), repro_dir=args.repro_dir
    )
    started = time.perf_counter()
    report = harness.sweep("differential", scenarios)
    elapsed = time.perf_counter() - started
    print(f"\n{report.describe()}")
    print(f"checked in {elapsed:.1f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
