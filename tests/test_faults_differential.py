"""Three-way fault invariant over generated (scenario, plan, strategy) triples.

Every faulted run must end in one of exactly three states per job —
answer canonically identical to the fault-free run, a graceful
:class:`~repro.faults.PartialAnswer` that is a provable multiset subset
of it, or a typed error — and the whole run must settle in bounded
virtual time.  Silent wrong answers have no bucket, by construction.

The fast subset (5 triples) runs in tier-1; the full 25-triple sweep is
marked ``generated`` and runs on demand:

    python -m pytest -m generated tests/test_faults_differential.py
"""

import pytest

from repro.engine import JobRequest
from repro.errors import DifferentialMismatchError
from repro.faults import FaultActor, FaultPlan, FaultSpec, RetryPolicy
from repro.session import Session
from repro.workloads import (
    CHAOS_SPEC,
    DifferentialHarness,
    FaultSweepReport,
    ScenarioGenerator,
)
from repro.workloads.harness import FAULT_OK_VERDICTS

#: The chaos mix the sweeps inject: all transient fault families at
#: once, including a hung service and one crash/rejoin cycle.
SWEEP_SPEC = FaultSpec(
    link_drops=3,
    link_degrades=1,
    corruptions=1,
    service_failures=1,
    service_hangs=1,
    peer_stalls=1,
    peer_crashes=1,
    horizon=0.3,
)

RETRY = RetryPolicy(max_attempts=4, backoff=0.005)


def _harness():
    return DifferentialHarness(("beam", "greedy"), repro_dir=None)


def _sweep(seeds, fault_seeds, strategies=("beam", "greedy")):
    harness = DifferentialHarness(strategies, repro_dir=None)
    scenarios = [
        ScenarioGenerator(seed=seed, spec=CHAOS_SPEC).scenario(0)
        for seed in seeds
    ]
    return harness.check_faults(
        scenarios, fault_seeds=fault_seeds, spec=SWEEP_SPEC, retry=RETRY
    )


class TestFaultInvariantTier1:
    """Fast subset: 5 (scenario, fault plan, strategy-pair) triples."""

    def test_invariant_over_five_triples(self):
        # 5 triples: scenario seeds x fault seeds, under both strategies
        report = _sweep(seeds=(3, 7), fault_seeds=(1, 2))
        extra = _sweep(seeds=(11,), fault_seeds=(5,))
        assert report.ok, report.describe()
        assert extra.ok, extra.describe()
        assert report.cells + extra.cells >= 5
        # the verdict mix never leaves the allowed buckets
        for sweep in (report, extra):
            assert set(sweep.verdicts) <= FAULT_OK_VERDICTS

    def test_raise_on_violation_passes_clean_sweeps(self):
        harness = _harness()
        scenario = ScenarioGenerator(seed=3, spec=CHAOS_SPEC).scenario(0)
        report = harness.check_faults(
            [scenario],
            fault_seeds=(1,),
            spec=SWEEP_SPEC,
            retry=RETRY,
            raise_on_violation=True,
        )
        assert isinstance(report, FaultSweepReport)
        assert report.ok

    def test_sweep_report_describe_summarizes(self):
        report = _sweep(seeds=(3,), fault_seeds=(1,))
        text = report.describe()
        assert "fault sweep:" in text
        assert "-> ok" in text

    def test_same_seed_faulted_serving_is_byte_identical(self):
        scenario = ScenarioGenerator(seed=7, spec=CHAOS_SPEC).scenario(0)
        plan = FaultPlan.generate(6, scenario.system, SWEEP_SPEC)

        def serve_events():
            session = Session(
                scenario.system, retry=RETRY, fault_plan=plan
            )
            requests = [
                JobRequest(arrival=k * 0.01, partial=True, **q.kwargs())
                for k, q in enumerate(scenario.queries)
            ]
            report = session.serve(requests, actor=FaultActor(plan))
            faults = {
                counter.labels: counter.value
                for counter in report.registry.counters("faults")
            }
            return list(report.events), faults

        first_events, first_faults = serve_events()
        second_events, second_faults = serve_events()
        # determinism-by-construction: the whole event trace, timestamps
        # included, and every fault counter reproduce byte for byte
        assert first_events == second_events
        assert first_faults == second_faults
        assert first_faults  # the plan actually fired


@pytest.mark.generated
@pytest.mark.slow
class TestFaultInvariantGenerated:
    """The full sweep: 25 triples across seeds, plans, and strategies."""

    def test_invariant_over_twentyfive_triples(self):
        # 5 scenario seeds x 2 fault seeds = 10 cells per strategy pair,
        # plus a 5-seed sweep under the three-strategy default: >= 25
        # (scenario, fault plan, strategy) triples in total.
        report = _sweep(seeds=(3, 7, 11, 19, 23), fault_seeds=(1, 2))
        assert report.ok, report.describe()
        harness = DifferentialHarness(repro_dir=None)  # beam/greedy/exhaustive
        scenarios = [
            ScenarioGenerator(seed=seed, spec=CHAOS_SPEC).scenario(1)
            for seed in (5, 13)
        ]
        second = harness.check_faults(
            scenarios, fault_seeds=(4,), spec=SWEEP_SPEC, retry=RETRY
        )
        assert second.ok, second.describe()
        assert report.cells + second.cells >= 25

    def test_violations_raise_when_requested(self):
        harness = _harness()
        scenarios = [
            ScenarioGenerator(seed=seed, spec=CHAOS_SPEC).scenario(0)
            for seed in (3, 7, 11)
        ]
        try:
            harness.check_faults(
                scenarios,
                fault_seeds=(1, 2, 3),
                spec=SWEEP_SPEC,
                retry=RETRY,
                raise_on_violation=True,
            )
        except DifferentialMismatchError as exc:  # pragma: no cover
            pytest.fail(f"fault invariant violated: {exc}")
