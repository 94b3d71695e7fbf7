"""W1 — generated workloads: the differential harness as a scale sweep.

Workload: seeded scenarios from `repro.workloads` at growing sizes
(documents and peers), each differential-checked across all registered
strategies.  This is the conformance gate every scaling PR runs: the
optimizer and evaluator cross-check each other on procedurally generated
configurations, so correctness regressions show up as mismatches rather
than as silently wrong hand-picked examples.

Expected shape: all strategies agree at every size (zero mismatches),
plans scored grows with scenario size, and per-scenario check time stays
sub-second at the default sizes.
"""

import time

from common import emit, format_table

from repro.workloads import DifferentialHarness, ScenarioGenerator, ScenarioSpec

SIZES = (
    ("tiny", ScenarioSpec(peers=3, documents=2, axml_documents=0, items=6,
                          services=1, replicas=0, queries=3)),
    ("small", ScenarioSpec(peers=4, documents=3, axml_documents=1, items=12,
                           services=2, replicas=1, queries=5)),
    ("medium", ScenarioSpec(peers=6, documents=4, axml_documents=1, items=30,
                            services=2, replicas=2, queries=6)),
    ("large", ScenarioSpec(peers=8, documents=6, axml_documents=2, items=60,
                           services=3, replicas=2, queries=8)),
)
SCENARIOS_PER_SIZE = 4
SEED = 99


def check_size(spec: ScenarioSpec):
    generator = ScenarioGenerator(seed=SEED, spec=spec)
    harness = DifferentialHarness(repro_dir=None)
    started = time.perf_counter()
    report = harness.sweep(
        "differential", generator.scenarios(SCENARIOS_PER_SIZE)
    )
    elapsed = (time.perf_counter() - started) * 1000
    return report, elapsed


def run_sweep():
    rows = []
    reports = []
    for label, spec in SIZES:
        report, elapsed = check_size(spec)
        reports.append(report)
        rows.append(
            (
                label,
                spec.peers,
                spec.documents + spec.axml_documents,
                spec.items,
                report.notes["queries"],
                report.notes["plans scored"],
                len(report.mismatches),
                elapsed / SCENARIOS_PER_SIZE,
            )
        )
    return rows, reports


def test_w1_generated(benchmark):
    rows, reports = run_sweep()
    emit(
        "W1",
        "generated-workload differential sweep by scenario size",
        format_table(
            ["size", "peers", "docs", "items", "queries", "plans scored",
             "mismatches", "ms/scenario"],
            rows,
        ),
    )

    # the conformance claim: every strategy agrees at every size
    assert all(report.ok for report in reports)
    assert all(row[6] == 0 for row in rows)
    # bigger scenarios genuinely exercise a bigger search space
    plans = [row[5] for row in rows]
    assert plans[-1] > plans[0]

    generator = ScenarioGenerator(seed=SEED, spec=SIZES[1][1])
    harness = DifferentialHarness(repro_dir=None)
    scenario = generator.scenario(0)
    benchmark.pedantic(
        lambda: harness.sweep("differential", [scenario]),
        rounds=3,
        iterations=1,
    )
