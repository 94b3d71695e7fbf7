#!/usr/bin/env python3
"""Exact results pinned in ``tests/golden/``: the benchmark workloads and the plan searches.

``tests/golden/workloads.json`` pins the benchmark workloads.  For each
workload of ``bench/workloads.py`` at content seeds 7 and 11,
one pass over the first quarter of its stream (the part ``bench/run.py``
counts calls on, at full sizes) yields what repeats exactly per commit:

* every ``virt_*`` metric the benchmark bounds (makespan, p95 latency,
  bytes moved);
* the number of operations that failed;
* a digest of the sorted ``(key, answers)`` pairs;
* for the two serving workloads, a digest of ``ServingReport.events``.

A change that moves one message byte, one virtual instant or one answer
changes the file.

``tests/golden/searches.json`` pins what the planner chooses.  Protocol:
for each of ``ScenarioSpec()``, ``bench/workloads.py``'s ``SERVE_SPEC``
and ``WRITE_MIX_SPEC``, all at 60 items, content seeds 7 and 11 and
scenarios 0-7, every generated query is explained (planned, not run, no
write applied) by a fresh ``Session(system, plan_cache=None,
trace=True)``: 272 searches.  Per search it records a sha256 of the
chosen plan's XML form (``serialize(to_xml(plan.expr))``, Section 3.1)
and its site, the best and original ``Cost`` and the rule that produced
the chosen plan (``"original"`` when the search kept it).  The full text
names a plan independently of how the planner keys plans internally, so
a change to ``expression_fingerprint`` leaves the file as it is.  198 of
the 272 keep the original, whether counted by that rule, by plan and
site, by cost or by ``plan.describe()`` text
(the count ROADMAP's (M4) gives); 40 are won by rule (10), 34 by (14).

``tests/test_golden.py`` compares both files.

Run:  python scripts/golden.py            # print both tables
      python scripts/golden.py --write    # regenerate both files
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

from dataclasses import replace  # noqa: E402

from repro import Session  # noqa: E402
from repro.core import to_xml  # noqa: E402
from repro.engine import percentile  # noqa: E402
from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec  # noqa: E402
from repro.xmlcore import serialize  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "golden" / "workloads.json"
SEARCHES = REPO_ROOT / "tests" / "golden" / "searches.json"
CONTENT_SEEDS = (7, 11)
#: The operation-order seed ``bench/run.py`` defaults to.
SEED = 7
#: Items per document and scenarios per family of the search protocol.
SEARCH_ITEMS = 60
SEARCH_SCENARIOS = range(8)


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


def _cost(cost) -> list:
    return [cost.bytes, cost.messages, cost.time]


def record_search(report) -> dict:
    """The chosen plan of one explained query, its costs and its rule."""
    rule = next(rule for plan, _, rule in report.trace if plan is report.plan)
    return {
        "plan": hashlib.sha256(
            serialize(to_xml(report.plan.expr)).encode("utf-8")
        ).hexdigest(),
        "site": report.plan.site,
        "best": _cost(report.best_cost),
        "original": _cost(report.original_cost),
        "rule": rule,
    }


def search_protocol():
    """``(key, session, query)`` for each of the protocol's 272 searches,
    in order; ``session`` is fresh per search."""
    families = {
        "default": ScenarioSpec(items=SEARCH_ITEMS),
        "serve": replace(_workloads().SERVE_SPEC, items=SEARCH_ITEMS),
        "write-mix": replace(WRITE_MIX_SPEC, items=SEARCH_ITEMS),
    }
    for family, spec in families.items():
        for content_seed in CONTENT_SEEDS:
            generator = ScenarioGenerator(content_seed, spec)
            for index in SEARCH_SCENARIOS:
                scenario = generator.scenario(index)
                for query in scenario.queries:
                    session = Session(scenario.system, plan_cache=None, trace=True)
                    yield f"{family}@{content_seed}#{index}/{query.name}", session, query


def explain(session, query):
    return session.explain(query.source, at=query.at, bind=query.bindings, name=query.name)


def compute_searches() -> dict:
    return {
        key: record_search(explain(session, query))
        for key, session, query in search_protocol()
    }


def render(table: dict) -> str:
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the file")
    args = parser.parse_args(argv)
    for path, table in ((GOLDEN, compute()), (SEARCHES, compute_searches())):
        text = render(table)
        if not args.write:
            sys.stdout.write(text)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
