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

from types import SimpleNamespace

import pytest

from repro.engine import JobRequest
from repro.engine.jobs import DONE, FAILED, RUNNING, QueryJob
from repro.errors import DifferentialMismatchError, TransferTimeoutError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    LostPart,
    PartialAnswer,
    RecoveringEvaluator,
    RetryPolicy,
)
from repro.session import Session
from repro.workloads import (
    CHAOS_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
    SweepReport,
)
from repro.workloads.harness import (
    OK_VERDICTS,
    _canonical_answers,
    _classify_fault_job,
)
from repro.xmlcore import element

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
    return harness.sweep(
        "fault", scenarios, fault_seeds=fault_seeds, spec=SWEEP_SPEC, retry=RETRY
    )


class TestFaultInvariantTier1:
    """Fast subset: 5 (scenario, fault plan, strategy-pair) triples."""

    def test_invariant_over_five_triples(self):
        # 5 triples: scenario seeds x fault seeds, under both strategies
        report = _sweep(seeds=(3, 7), fault_seeds=(1, 2))
        extra = _sweep(seeds=(11,), fault_seeds=(5,))
        assert report.ok, report.describe()
        assert extra.ok, extra.describe()
        assert (
            report.notes["faulted runs"] + extra.notes["faulted runs"] >= 5
        )
        # the verdict mix never leaves the allowed buckets
        for sweep in (report, extra):
            assert set(sweep.verdicts) <= OK_VERDICTS

    def test_raise_on_failure_passes_clean_sweeps(self):
        harness = _harness()
        scenario = ScenarioGenerator(seed=3, spec=CHAOS_SPEC).scenario(0)
        report = harness.sweep(
            "fault",
            [scenario],
            fault_seeds=(1,),
            spec=SWEEP_SPEC,
            retry=RETRY,
            raise_on_failure=True,
        )
        assert isinstance(report, SweepReport)
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
            report = session.serve(requests)
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


def _job(status, items=None, error=None, partial=None):
    """A hand-built settled (or not) job, as the classifier reads one."""
    return QueryJob(
        job_id=0,
        request=JobRequest("", "p0", name="q"),
        status=status,
        report=None if items is None else SimpleNamespace(items=items),
        error=error,
        partial=partial,
    )


A, B, C = element("a"), element("b"), element("c")
REFERENCE = _canonical_answers([A, B])
LOSS = PartialAnswer((LostPart("fragment", "d#0", ("p1",), "PeerDownError"),))


class TestFaultClassifier:
    """Every verdict of the three-way invariant, from hand-built jobs."""

    @pytest.mark.parametrize(
        "verdict, job, reference",
        [
            ("identical", _job(DONE, [B, A]), REFERENCE),  # order-blind
            ("partial-subset", _job(DONE, [A], partial=LOSS), REFERENCE),
            (
                "typed-error",
                _job(FAILED, error=TransferTimeoutError("gave up", at=0.1)),
                REFERENCE,
            ),
            ("silent-mismatch", _job(DONE, [A]), REFERENCE),
            ("partial-superset", _job(DONE, [A, C], partial=LOSS), REFERENCE),
            ("untyped-error", _job(FAILED, error=KeyError("boom")), REFERENCE),
            ("unsettled", _job(RUNNING), REFERENCE),
            ("baseline-missing", _job(DONE, [A]), None),
        ],
    )
    def test_verdict(self, verdict, job, reference):
        result = _classify_fault_job(job, reference, "fault-seed=1")
        assert result.verdict == verdict
        assert result.ok == (verdict in OK_VERDICTS)

    def test_ok_verdicts_are_exactly_the_three_way_invariant(self):
        assert OK_VERDICTS == {"identical", "partial-subset", "typed-error"}


class TestFaultSweepCanFail:
    """The fault sweep's baseline runs under the *same* strategy, so the
    planted bug sits where a faulted run leaves its fault-free twin: a
    recovery layer that tolerates a lost part without recording it."""

    NO_RETRY = RetryPolicy(max_attempts=1, backoff=0.005)

    def _sweep(self, **kwargs):
        # seed 11 / fault seed 1 without retries genuinely loses a part
        scenario = ScenarioGenerator(seed=11, spec=CHAOS_SPEC).scenario(0)
        return _harness().sweep(
            "fault", [scenario], fault_seeds=(1,), spec=SWEEP_SPEC,
            retry=self.NO_RETRY, **kwargs,
        )

    def test_honest_recovery_degrades_to_a_provable_subset(self):
        report = self._sweep()
        assert report.ok, report.describe()
        assert report.verdicts.get("partial-subset", 0) >= 1

    def test_forgotten_loss_is_a_silent_mismatch(self, monkeypatch):
        def forgetful(self, kind, name, peers, exc):
            if not self.partial:
                raise exc

        monkeypatch.setattr(RecoveringEvaluator, "_lost", forgetful)
        report = self._sweep()
        assert not report.ok
        assert {
            outcome.verdict for cell in report.failures for outcome in cell.failures
        } == {"silent-mismatch"}
        assert "FAILURES" in report.describe()
        assert "silent-mismatch" in report.describe()
        with pytest.raises(DifferentialMismatchError, match="silent-mismatch"):
            self._sweep(raise_on_failure=True)


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
        second = harness.sweep(
            "fault", scenarios, fault_seeds=(4,), spec=SWEEP_SPEC, retry=RETRY
        )
        assert second.ok, second.describe()
        assert (
            report.notes["faulted runs"] + second.notes["faulted runs"] >= 25
        )

    def test_violations_raise_when_requested(self):
        harness = _harness()
        scenarios = [
            ScenarioGenerator(seed=seed, spec=CHAOS_SPEC).scenario(0)
            for seed in (3, 7, 11)
        ]
        try:
            harness.sweep(
                "fault",
                scenarios,
                fault_seeds=(1, 2, 3),
                spec=SWEEP_SPEC,
                retry=RETRY,
                raise_on_failure=True,
            )
        except DifferentialMismatchError as exc:  # pragma: no cover
            pytest.fail(f"fault invariant violated: {exc}")
