#!/usr/bin/env python3
"""The benchmark workloads' exact results, pinned in ``tests/golden/workloads.json``.

For each workload of ``bench/workloads.py`` at content seeds 7 and 11,
one pass over the first quarter of its stream (the part ``bench/run.py``
counts calls on, at full sizes) yields what repeats exactly per commit:

* every ``virt_*`` metric the benchmark bounds (makespan, p95 latency,
  bytes moved);
* the number of operations that failed;
* a digest of the sorted ``(key, answers)`` pairs;
* for the two serving workloads, a digest of ``ServingReport.events``.

A change that moves one message byte, one virtual instant or one answer
changes the file.  ``tests/test_golden.py`` compares against it.

Run:  python scripts/golden.py            # print the table
      python scripts/golden.py --write    # regenerate the file
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import percentile  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "golden" / "workloads.json"
CONTENT_SEEDS = (7, 11)
#: The operation-order seed ``bench/run.py`` defaults to.
SEED = 7


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO_ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record(workload) -> dict:
    """One counted-quarter pass of ``workload``, reduced to its exact results."""
    result = workload.run(workload.setup(SEED, quarter=True))
    entry = {
        "virt_makespan_s": result.virt_makespan,
        "virt_latency_ms_p95": percentile(result.virt_latency, 95) * 1000.0,
        "virt_bytes_moved": result.virt_bytes,
        "failed": len(result.errors),
        "answers": _digest(sorted([list(key), list(answers)] for key, answers in result.answers)),
    }
    if result.serving is not None:
        entry["events"] = _digest(result.serving.events)
    return entry


def compute() -> dict:
    workloads = _workloads()
    return {
        f"{name}@{content_seed}": record(workloads.make(name, workloads.FULL, content_seed))
        for name in workloads.WORKLOADS
        for content_seed in CONTENT_SEEDS
    }


def render(table: dict) -> str:
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the file")
    args = parser.parse_args(argv)
    text = render(compute())
    if not args.write:
        sys.stdout.write(text)
        return 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
