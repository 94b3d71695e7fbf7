#!/usr/bin/env python3
"""Collect bench results into the repo-root perf trajectory.

Every perf bench writes ``benchmarks/results/BENCH_*.json`` — ephemeral
by default.  This script turns them into a CI-tracked trajectory:

* each ``BENCH_<name>.json`` is normalized into a stable root-level
  schema (bench name, date, git SHA, quick flag, one *headline metric*,
  full metrics payload) and written to repo-root ``BENCH_<name>.json``;
* when a root baseline already exists, the new headline value is
  compared against it: a regression of more than ``--threshold``
  (default 25%) in the metric's bad direction fails the run (exit 1) —
  the perf-smoke CI gate;
* the written root files are one coherent set, uploaded together as a
  single CI artifact, and committed as the next PR's baseline.

Quick (``--quick``) and full runs are never compared to each other —
a baseline with a different ``quick`` flag is replaced, not gated on.

Run:  python scripts/collect_bench.py [--threshold 0.25] [--no-write]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: bench file stem -> (headline metric key, direction).  ``higher`` means
#: larger values are better (a drop is a regression), ``lower`` the
#: opposite.  Benches without an entry are still collected, just not
#: gated.
HEADLINES = {
    "BENCH_throughput": ("top_concurrency_qps", "higher"),
    "BENCH_fragmentation": ("selective_bytes_ratio", "higher"),
    "BENCH_placement": ("adaptive_vs_static_qps_ratio", "higher"),
    "BENCH_writes": ("incremental_vs_rebuild_speedup", "higher"),
    "BENCH_resilience": ("availability_under_faults", "higher"),
    "BENCH_observe": ("tracing_overhead_ratio", "lower"),
    "BENCH_speed": ("oracle_vs_hybrid_measure_ratio", "higher"),
}

#: Rolling per-bench history: how many ``{sha, date, headline}`` points a
#: root baseline carries.  Enough to eyeball a trajectory across PRs
#: without the files growing forever.
HISTORY_CAP = 20


def normalize(name: str, payload: dict) -> dict:
    """The stable root-file schema for one bench result."""
    headline = None
    entry = HEADLINES.get(name)
    if entry is not None:
        metric, direction = entry
        value = payload.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            headline = {
                "metric": metric,
                "value": value,
                "direction": direction,
            }
    return {
        "bench": name,
        "date": payload.get("generated_at", "unknown"),
        "git_sha": payload.get("git_sha", "unknown"),
        "quick": payload.get("quick"),
        "headline": headline,
        "metrics": payload,
    }


def extend_history(baseline, fresh: dict, cap: int = HISTORY_CAP) -> dict:
    """Carry the baseline's rolling history forward onto ``fresh``.

    Each gated bench accumulates one ``{sha, date, quick, headline}``
    point per recorded run (deduplicated by ``(sha, quick)`` — re-running
    the same mode on the same commit replaces the point, but a quick run
    never clobbers the full-run point for that commit, or vice versa),
    capped to the most recent ``cap`` entries.  The gate itself still
    compares only the latest baseline headline; the history is the
    CI-tracked trajectory.  A bench whose headline was re-pointed at
    another metric starts a new trajectory: points carry no metric name.
    """
    history = list((baseline or {}).get("history", ()))
    old = (baseline or {}).get("headline")
    new = fresh.get("headline")
    if old and new and old.get("metric") != new.get("metric"):
        history = []
    if fresh.get("headline"):
        point = {
            "sha": fresh.get("git_sha", "unknown"),
            "date": fresh.get("date", "unknown"),
            "quick": fresh.get("quick"),
            "headline": fresh["headline"]["value"],
        }
        history = [
            p for p in history
            if not (
                p.get("sha") == point["sha"]
                and p.get("quick") == point["quick"]
            )
        ]
        history.append(point)
    fresh["history"] = history[-cap:]
    return fresh


def regression(baseline: dict, fresh: dict, threshold: float):
    """``(is_regression, note)`` comparing two normalized root files."""
    old = baseline.get("headline")
    new = fresh.get("headline")
    if not old or not new or old.get("metric") != new.get("metric"):
        return False, "no comparable headline metric"
    if baseline.get("quick") != fresh.get("quick"):
        return False, (
            f"baseline quick={baseline.get('quick')} vs new "
            f"quick={fresh.get('quick')}: not comparable, baseline replaced"
        )
    old_value, new_value = old["value"], new["value"]
    if not old_value:
        return False, "baseline headline is zero; nothing to gate"
    if new.get("direction", "higher") == "higher":
        change = (old_value - new_value) / abs(old_value)
    else:
        change = (new_value - old_value) / abs(old_value)
    note = (
        f"{new['metric']}: {old_value} -> {new_value} "
        f"({-change:+.1%} in the good direction)"
    )
    return change > threshold, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative headline regression that fails the run (default 0.25)",
    )
    parser.add_argument(
        "--results-dir", default=RESULTS_DIR,
        help="where the benches wrote BENCH_*.json",
    )
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="where trajectory baselines live (repo root)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="compare only; leave root baselines untouched",
    )
    parser.add_argument(
        "--force-baseline", action="store_true",
        help="replace a baseline even when the new run regressed against it",
    )
    args = parser.parse_args()

    sources = sorted(glob.glob(os.path.join(args.results_dir, "BENCH_*.json")))
    if not sources:
        print(f"no BENCH_*.json under {args.results_dir}; run the benches first")
        return 1

    failures = []
    for source in sources:
        name = os.path.splitext(os.path.basename(source))[0]
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        fresh = normalize(name, payload)
        root_path = os.path.join(args.root, f"{name}.json")
        regressed = False
        baseline = None
        if os.path.exists(root_path):
            with open(root_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            regressed, note = regression(baseline, fresh, args.threshold)
            print(f"{name}: {note}")
            if regressed:
                failures.append(f"{name}: {note}")
        else:
            print(f"{name}: no baseline at {root_path}; recording first point")
        extend_history(baseline, fresh)
        if args.no_write:
            continue
        if regressed and not args.force_baseline:
            # never ratchet a regression in: a re-run must still compare
            # against the last good baseline (pass --force-baseline to
            # accept the new level deliberately)
            print(f"  kept {root_path} (regressed run not recorded)")
            continue
        with open(root_path, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {root_path}")

    if failures:
        print(
            f"\nFAIL: {len(failures)} bench(es) regressed more than "
            f"{args.threshold:.0%} on their headline metric:"
        )
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\ntrajectory ok: {len(sources)} bench(es) collected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
