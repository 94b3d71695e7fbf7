"""Deterministic fault injection & recovery (repro.faults).

Covers the fault-plan generator (seeded, byte-stable), the passive
injection windows on the network and evaluator hot paths, the
retry/backoff/timeout recovery machinery, deadlines and graceful partial
answers, the churn traffic-cancellation regression, the untyped-exception
audit of the failure paths, the byte-identity contract of every new
knob at its zero setting, and availability under a dense chaos schedule
with and without recovery.
"""

import math
from dataclasses import replace

import pytest

from repro import Session, connect
from repro.axml.document import make_service_call
from repro.core import (
    ANY,
    DocExpr,
    ExpressionEvaluator,
    GenericDoc,
    ServiceCallExpr,
)
from repro.core.expressions import FragmentedDoc
from repro.engine import JobRequest, LoadGenerator
from repro.errors import (
    DeadlineExceededError,
    FaultError,
    GenericResolutionError,
    MessageLostError,
    ServiceCallError,
    ServiceCallFaultError,
    TransferCorruptionError,
    TransferTimeoutError,
    WorkloadError,
)
from repro.faults import (
    CORRUPT,
    LINK_DEGRADE,
    LINK_DROP,
    PEER_CRASH,
    PEER_STALL,
    SERVICE_FAIL,
    SERVICE_HANG,
    FaultActor,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultState,
    PartialAnswer,
    RecoveringEvaluator,
    RetryPolicy,
)
from repro.net import Message, MessageKind, Network
from repro.peers import AXMLSystem, NativeService
from repro.placement.churn import ChurnController
from repro.workloads import CHAOS_SPEC, ScenarioGenerator, ScenarioSpec
from repro.xmlcore import Element, parse


def catalog_doc(n=10):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


@pytest.fixture()
def system():
    sys = AXMLSystem.with_peers(["p0", "p1", "p2"])
    sys.peer("p1").install_document("cat", catalog_doc())
    sys.peer("p1").install_query_service(
        "pick",
        "declare variable $d external; "
        "<picked>{for $i in $d//item where $i/price > 7 return $i}</picked>",
        params=("d",),
    )
    return sys


def install(system, *events):
    state = FaultState(FaultPlan(seed=99, events=tuple(events)))
    system.network.faults = state
    return state


# ---------------------------------------------------------------------------
# FaultPlan: seeded generation, serialization, validation
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_is_byte_identical(self, system):
        spec = FaultSpec(service_hangs=1, peer_crashes=1)
        a = FaultPlan.generate(5, system, spec)
        b = FaultPlan.generate(5, system, spec)
        assert a.serialize() == b.serialize()
        assert a.events == b.events

    def test_different_seeds_differ(self, system):
        assert (
            FaultPlan.generate(1, system).serialize()
            != FaultPlan.generate(2, system).serialize()
        )

    def test_empty_plan_is_falsy_and_noop(self):
        assert not FaultPlan(seed=3)
        assert FaultPlan(seed=3).events == ()

    def test_generated_counts_match_spec(self, system):
        spec = FaultSpec(
            link_drops=3, link_degrades=2, corruptions=1,
            service_failures=1, service_hangs=1, peer_stalls=2,
            peer_crashes=1,
        )
        plan = FaultPlan.generate(7, system, spec)
        kinds = [event.kind for event in plan.events]
        assert kinds.count(LINK_DROP) == 3
        assert kinds.count(LINK_DEGRADE) == 2
        assert kinds.count(CORRUPT) == 1
        assert kinds.count(SERVICE_FAIL) == 1
        assert kinds.count(SERVICE_HANG) == 1
        assert kinds.count(PEER_STALL) == 2
        # each crash pairs with a rejoin
        assert kinds.count(PEER_CRASH) == 1
        assert kinds.count("peer-rejoin") == 1

    def test_no_services_skips_service_faults(self):
        system = AXMLSystem.with_peers(["a", "b"])
        plan = FaultPlan.generate(0, system, FaultSpec(service_failures=3))
        assert all(e.kind not in (SERVICE_FAIL, SERVICE_HANG) for e in plan.events)

    def test_single_peer_never_crashes(self):
        system = AXMLSystem.with_peers(["solo"])
        plan = FaultPlan.generate(0, system, FaultSpec(peer_crashes=2))
        assert all(e.kind != PEER_CRASH for e in plan.events)

    def test_events_sorted_by_start(self, system):
        plan = FaultPlan.generate(11, system, FaultSpec(link_drops=5))
        starts = [event.start for event in plan.events]
        assert starts == sorted(starts)

    def test_event_validation(self):
        with pytest.raises(WorkloadError):
            FaultEvent("not-a-kind", 0.0, 1.0)
        with pytest.raises(WorkloadError):
            FaultEvent(LINK_DROP, 0.5, 0.1, src="a", dst="b")  # end < start
        with pytest.raises(WorkloadError):
            FaultEvent(LINK_DROP, 0.0, 1.0)  # no hop
        with pytest.raises(WorkloadError):
            FaultEvent(LINK_DEGRADE, 0.0, 1.0, src="a", dst="b", factor=0.5)
        with pytest.raises(WorkloadError):
            FaultEvent(PEER_STALL, 0.0, 1.0)  # no peer

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            FaultSpec(link_drops=-1).validate()
        with pytest.raises(WorkloadError):
            FaultSpec(horizon=0.0).validate()
        with pytest.raises(WorkloadError):
            FaultSpec(min_window=0.5, max_window=0.1).validate()


# ---------------------------------------------------------------------------
# Link faults on the network hot path
# ---------------------------------------------------------------------------

class TestLinkFaults:
    def _net(self):
        net = Network()
        net.add_link("a", "b", latency=0.01, bandwidth=1_000_000.0)
        return net

    def test_drop_inside_window_raises_typed(self):
        net = self._net()
        net.faults = FaultState(FaultPlan(events=(
            FaultEvent(LINK_DROP, 0.0, 0.1, src="a", dst="b"),
        )))
        with pytest.raises(MessageLostError) as err:
            net.deliver(Message("a", "b", MessageKind.DATA, 100), 0.0)
        assert err.value.at > 0.0
        assert net.faults.counters["messages_dropped"] == 1

    def test_drop_outside_window_is_clean(self):
        net = self._net()
        net.faults = FaultState(FaultPlan(events=(
            FaultEvent(LINK_DROP, 0.0, 0.1, src="a", dst="b"),
        )))
        arrival = net.deliver(Message("a", "b", MessageKind.DATA, 1), 0.2)
        assert arrival > 0.2
        assert "messages_dropped" not in net.faults.counters

    def test_degrade_slows_by_factor(self):
        clean = self._net()
        fast = clean.deliver(Message("a", "b", MessageKind.DATA, 10_000), 0.0)
        net = self._net()
        net.faults = FaultState(FaultPlan(events=(
            FaultEvent(LINK_DEGRADE, 0.0, 1.0, src="a", dst="b", factor=5.0),
        )))
        slow = net.deliver(Message("a", "b", MessageKind.DATA, 10_000), 0.0)
        assert slow == pytest.approx(fast * 5.0)
        assert net.faults.counters["hops_degraded"] == 1

    def test_corrupt_charges_bytes_then_raises(self):
        net = self._net()
        net.faults = FaultState(FaultPlan(events=(
            FaultEvent(CORRUPT, 0.0, 0.1, src="a", dst="b"),
        )))
        with pytest.raises(TransferCorruptionError) as err:
            net.deliver(Message("a", "b", MessageKind.DATA, 500), 0.0)
        assert err.value.at > 0.0
        # bytes were charged: the transfer crossed the wire before the
        # fingerprint check rejected it
        assert net.stats.bytes > 0
        assert net.link("a", "b").stats.messages == 1
        assert net.faults.counters["transfers_corrupted"] == 1

    def test_empty_fault_state_is_arithmetically_identical(self):
        clean = self._net()
        faulted = self._net()
        faulted.faults = FaultState(FaultPlan())
        for ready in (0.0, 0.0375, 1.5):
            message = Message("a", "b", MessageKind.DATA, 1234)
            assert clean.deliver(message, ready) == faulted.deliver(
                Message("a", "b", MessageKind.DATA, 1234), ready
            )

    def test_cancel_peer_traffic_clamps_busy_links(self):
        net = self._net()
        net.deliver(Message("a", "b", MessageKind.DATA, 500_000), 0.0)
        assert net.link("a", "b").busy_until > 0.1
        cancelled = net.cancel_peer_traffic("b", now=0.1)
        assert cancelled == 1
        assert net.link("a", "b").busy_until == 0.1
        # idempotent: nothing left to cancel
        assert net.cancel_peer_traffic("b", now=0.1) == 0


# ---------------------------------------------------------------------------
# Evaluator recovery: retries, timeouts, deadlines
# ---------------------------------------------------------------------------

class TestTransferRecovery:
    def test_no_policy_propagates_first_fault(self, system):
        install(system, FaultEvent(LINK_DROP, 0.0, 0.05, src="p1", dst="p0"))
        evaluator = RecoveringEvaluator(system)
        with pytest.raises(MessageLostError):
            evaluator.eval(DocExpr("cat", "p1"), "p0")

    def test_retry_heals_transient_drop(self, system):
        install(system, FaultEvent(LINK_DROP, 0.0, 0.02, src="p1", dst="p0"))
        policy = RetryPolicy(max_attempts=6, backoff=0.02)
        evaluator = RecoveringEvaluator(system, policy=policy)
        outcome = evaluator.eval(DocExpr("cat", "p1"), "p0")
        assert outcome.items[0].tag == "catalog"
        assert evaluator.counters["retries"] >= 1
        # the backoff was charged on the virtual clock: the answer lands
        # after the drop window closed
        assert outcome.completed_at > 0.02

    def test_budget_exhaustion_raises_timeout(self, system):
        install(system, FaultEvent(LINK_DROP, 0.0, 100.0, src="p1", dst="p0"))
        policy = RetryPolicy(max_attempts=3, backoff=0.001)
        evaluator = RecoveringEvaluator(system, policy=policy)
        with pytest.raises(TransferTimeoutError) as err:
            evaluator.eval(DocExpr("cat", "p1"), "p0")
        assert isinstance(err.value.__cause__, MessageLostError)
        assert evaluator.counters["transfer_faults"] == 3

    def test_retry_past_deadline_raises_deadline(self, system):
        install(system, FaultEvent(LINK_DROP, 0.0, 100.0, src="p1", dst="p0"))
        policy = RetryPolicy(max_attempts=10, backoff=0.05)
        evaluator = RecoveringEvaluator(system, policy=policy)
        evaluator.begin_job(deadline_at=0.01)
        with pytest.raises(DeadlineExceededError):
            evaluator.eval(DocExpr("cat", "p1"), "p0")

    def test_corruption_retries_deterministically(self, system):
        install(system, FaultEvent(CORRUPT, 0.0, 0.02, src="p1", dst="p0"))
        policy = RetryPolicy(max_attempts=6, backoff=0.02)

        def run():
            target = system.clone()
            target.network.faults = FaultState(
                FaultPlan(events=(
                    FaultEvent(CORRUPT, 0.0, 0.02, src="p1", dst="p0"),
                ))
            )
            evaluator = RecoveringEvaluator(target, policy=policy)
            outcome = evaluator.eval(DocExpr("cat", "p1"), "p0")
            return outcome.completed_at, dict(evaluator.counters)

        assert run() == run()


class TestServiceFaults:
    CALL = ServiceCallExpr("p1", "pick", (DocExpr("cat", "p1"),))

    def test_fail_without_policy_raises_typed(self, system):
        install(system, FaultEvent(SERVICE_FAIL, 0.0, 1.0, peer="p1", service="pick"))
        evaluator = RecoveringEvaluator(system)
        with pytest.raises(ServiceCallFaultError):
            evaluator.eval(self.CALL, "p0")

    def test_fail_with_policy_retries_past_window(self, system):
        install(system, FaultEvent(SERVICE_FAIL, 0.0, 0.05, peer="p1", service="pick"))
        policy = RetryPolicy(max_attempts=6, backoff=0.05)
        evaluator = RecoveringEvaluator(system, policy=policy)
        outcome = evaluator.eval(self.CALL, "p0")
        assert outcome.items[0].tag == "picked"
        assert evaluator.counters["retries"] >= 1

    def test_fail_exhausts_attempts(self, system):
        install(system, FaultEvent(SERVICE_FAIL, 0.0, 100.0, peer="p1", service="pick"))
        policy = RetryPolicy(max_attempts=2, backoff=0.001)
        evaluator = RecoveringEvaluator(system, policy=policy)
        with pytest.raises(ServiceCallFaultError, match="2 attempts"):
            evaluator.eval(self.CALL, "p0")

    def test_hang_without_policy_waits_window_out(self, system):
        install(system, FaultEvent(SERVICE_HANG, 0.0, 0.3, peer="p1", service="pick"))
        evaluator = RecoveringEvaluator(system)
        outcome = evaluator.eval(self.CALL, "p0")
        assert outcome.items[0].tag == "picked"
        # bounded virtual wait, never a real hang
        assert outcome.completed_at >= 0.3
        assert system.network.faults.counters["calls_hung"] == 1

    def test_hang_with_policy_cancels_at_timeout(self, system):
        install(system, FaultEvent(SERVICE_HANG, 0.0, 0.3, peer="p1", service="pick"))
        policy = RetryPolicy(max_attempts=6, backoff=0.1, call_timeout=0.02)
        evaluator = RecoveringEvaluator(system, policy=policy)
        outcome = evaluator.eval(self.CALL, "p0")
        assert outcome.items[0].tag == "picked"
        assert system.network.faults.counters["calls_cancelled"] >= 1
        assert evaluator.counters["retries"] >= 1


class TestPeerStall:
    def test_stall_pushes_work_past_window(self, system):
        clean = ExpressionEvaluator(system.clone()).eval(
            DocExpr("cat", "p1"), "p0"
        )
        install(system, FaultEvent(PEER_STALL, 0.0, 0.25, peer="p1"))
        evaluator = RecoveringEvaluator(system)
        stalled = evaluator.eval(
            ServiceCallExpr("p1", "pick", (DocExpr("cat", "p1"),)), "p0"
        )
        assert stalled.completed_at >= 0.25 > clean.completed_at
        assert evaluator.counters["stall_waits"] >= 1


class TestPartialActivationIntegrity:
    """A lossy partial-mode activation must never corrupt Σ (regression).

    Activation installs the activated tree as the stored document; under
    graceful degradation a lost sc node is dropped from the answer copy,
    and committing that copy would silently erase the call from the
    stored state — later jobs would read a shrunken document with no
    partial marker.  The generated fault sweep caught exactly this.
    """

    @pytest.fixture()
    def axml_system(self, system):
        system.peer("p1").install_query_service(
            "gen", 'for $i in doc("cat")//item where $i/price > 7 return $i'
        )
        mixed = parse("<mixed><static>kept</static></mixed>")
        mixed.append(make_service_call("p1", "gen"))
        system.peer("p2").install_document("mixed", mixed)
        return system

    @staticmethod
    def _has_sc(tree):
        return any(
            isinstance(child, Element) and child.is_service_call()
            for child in tree.children
        )

    def test_lossy_activation_leaves_stored_document_intact(self, axml_system):
        install(
            axml_system,
            FaultEvent(SERVICE_FAIL, 0.0, 0.05, peer="p1", service="gen"),
        )
        evaluator = RecoveringEvaluator(axml_system)
        evaluator.begin_job(partial=True)
        degraded = evaluator.eval(DocExpr("mixed", "p2"), "p0")
        # this job's answer is degraded and says so in its provenance...
        assert not self._has_sc(degraded.items[0])
        assert degraded.items[0].child_by_tag("results") is None
        assert len(evaluator.losses) == 1
        assert evaluator.losses[0].kind == "service"
        # ...but the stored document still holds the unactivated call
        assert self._has_sc(axml_system.peer("p2").document("mixed"))
        # a later job (fault window closed) activates from the pristine
        # tree and sees the full answer — no silent loss leaks forward
        evaluator.begin_job()
        healed = evaluator.eval(DocExpr("mixed", "p2"), "p0", ready_at=0.1)
        assert healed.items[0].child_by_tag("results") is not None
        assert not evaluator.losses

    def test_complete_activation_still_installs(self, axml_system):
        evaluator = RecoveringEvaluator(axml_system)
        evaluator.begin_job(partial=True)
        outcome = evaluator.eval(DocExpr("mixed", "p2"), "p0")
        assert outcome.items[0].child_by_tag("results") is not None
        # the activated version replaced the stored document, as before
        assert not self._has_sc(axml_system.peer("p2").document("mixed"))


# ---------------------------------------------------------------------------
# Fragment failover across replicas
# ---------------------------------------------------------------------------

class TestFragmentFailover:
    def _fragmented_system(self):
        from repro.dist.fragmenter import Fragmenter

        system = AXMLSystem.with_peers(["client", "h0", "h1", "h2"])
        system.peer("h0").install_document("cat", catalog_doc(12))
        Fragmenter(system).fragment("cat", "h0", ["h1", "h2"], replicas=1)
        return system

    def test_failover_to_surviving_replica(self):
        system = self._fragmented_system()
        # every transfer out of h1 is lost for good: with recovery, the
        # read must fail over to the other copy of h1's fragment
        system.network.faults = FaultState(FaultPlan(events=(
            FaultEvent(LINK_DROP, 0.0, 1_000.0, src="h1", dst="client"),
        )))
        policy = RetryPolicy(max_attempts=2, backoff=0.001)
        evaluator = RecoveringEvaluator(system, policy=policy)
        outcome = evaluator.eval(FragmentedDoc("cat"), "client")
        names = [el.tag for el in outcome.items]
        assert names == ["catalog"]
        assert len(outcome.items[0].children) == 12
        assert evaluator.counters.get("fragment_failovers", 0) >= 1

    def test_partial_mode_records_lost_fragment(self):
        system = self._fragmented_system()
        # both copies of every fragment unreachable from the client
        system.network.faults = FaultState(FaultPlan(events=tuple(
            FaultEvent(LINK_DROP, 0.0, 1_000.0, src=src, dst="client")
            for src in ("h1", "h2")
        )))
        policy = RetryPolicy(max_attempts=2, backoff=0.001)
        evaluator = RecoveringEvaluator(system, policy=policy)
        evaluator.begin_job(partial=True)
        outcome = evaluator.eval(FragmentedDoc("cat"), "client")
        # graceful degradation: the root reassembles from what arrived
        assert outcome.items[0].tag == "catalog"
        assert len(outcome.items[0].children) < 12
        assert evaluator.losses
        assert all(part.kind == "fragment" for part in evaluator.losses)

    def test_strict_mode_raises_instead(self):
        system = self._fragmented_system()
        system.network.faults = FaultState(FaultPlan(events=tuple(
            FaultEvent(LINK_DROP, 0.0, 1_000.0, src=src, dst="client")
            for src in ("h1", "h2")
        )))
        policy = RetryPolicy(max_attempts=2, backoff=0.001)
        evaluator = RecoveringEvaluator(system, policy=policy)
        with pytest.raises(FaultError):
            evaluator.eval(FragmentedDoc("cat"), "client")


# ---------------------------------------------------------------------------
# Session/engine integration: deadlines, partial answers, reports
# ---------------------------------------------------------------------------

class TestSessionFaults:
    QUERY = "for $i in $d//item where $i/price > 7 return $i/name"

    def test_query_deadline_exceeded_is_typed(self, system):
        session = connect(system)
        with pytest.raises(DeadlineExceededError):
            session.query(
                self.QUERY, "p0", bind={"d": "cat@p1"}, deadline=1e-9
            )

    def test_query_partial_flags_deadline(self, system):
        session = connect(system)
        report = session.query(
            self.QUERY, "p0", bind={"d": "cat@p1"},
            deadline=1e-9, partial=True,
        )
        assert isinstance(report.partial, PartialAnswer)
        assert report.partial.deadline_exceeded
        assert len(report.items) == 2  # the answer itself is complete

    def test_session_fault_plan_installs_and_recovers(self, system):
        plan = FaultPlan(seed=4, events=(
            FaultEvent(LINK_DROP, 0.0, 0.02, src="p1", dst="p0"),
        ))
        session = connect(
            system, retry=RetryPolicy(max_attempts=6, backoff=0.02),
            fault_plan=plan,
        )
        report = session.query(self.QUERY, "p0", bind={"d": "cat@p1"})
        assert len(report.items) == 2

    def test_engine_deadline_failure_and_report_counters(self, system):
        plan = FaultPlan(seed=4, events=(
            FaultEvent(LINK_DROP, 0.0, 100.0, src="p1", dst="p0"),
        ))
        session = connect(
            system, retry=RetryPolicy(max_attempts=3, backoff=0.001),
            fault_plan=plan,
        )
        job = session.submit(
            self.QUERY, at="p0", bind={"d": "cat@p1"}, name="doomed"
        )
        report = session.drain()
        assert job.status == "failed"
        assert isinstance(job.error, FaultError)
        registry = report.registry
        assert registry.counter_value("faults", kind="messages_dropped") >= 1
        assert registry.counter_value("faults", kind="transfer_faults") >= 1

    def test_engine_deadline_fails_at_deadline_instant(self, system):
        session = connect(system)
        job = session.submit(
            self.QUERY, at="p0", bind={"d": "cat@p1"},
            name="late", deadline=1e-9,
        )
        session.drain()
        assert job.status == "failed"
        assert isinstance(job.error, DeadlineExceededError)
        assert job.finished_at == pytest.approx(job.arrival + 1e-9)

    def test_engine_partial_answer_on_served_job(self, system):
        session = connect(system)
        job = session.submit(
            self.QUERY, at="p0", bind={"d": "cat@p1"},
            name="soft", deadline=1e-9, partial=True,
        )
        report = session.drain()
        assert job.status == "done"
        assert isinstance(job.partial, PartialAnswer)
        assert job.partial.deadline_exceeded
        assert report.metrics.partials == 1


class TestFaultActor:
    def test_crash_and_rejoin_counted(self):
        spec = ScenarioSpec(
            peers=4, documents=2, axml_documents=0, items=8,
            services=1, replicas=1, queries=4,
        )
        scenario = ScenarioGenerator(seed=3, spec=spec).scenario(0)
        plan = FaultPlan.generate(
            1, scenario.system,
            FaultSpec(link_drops=0, link_degrades=0, corruptions=0,
                      service_failures=0, peer_stalls=0, peer_crashes=1,
                      horizon=0.05, crash_downtime=0.02),
        )
        assert any(e.kind == PEER_CRASH for e in plan.events)
        session = Session(
            scenario.system, retry=RetryPolicy(), fault_plan=plan
        )
        from repro.engine import JobRequest

        requests = [
            JobRequest(arrival=k * 0.02, partial=True, **q.kwargs())
            for k, q in enumerate(scenario.queries)
        ]
        report = session.serve(requests, actor=FaultActor(plan))
        assert report.registry.counter_value("faults", kind="peer_crashes") == 1
        assert report.registry.counter_value("faults", kind="peer_rejoins") == 1
        # the actor's plan note leads the action trace
        assert any("fault plan seed=1" in action for action in report.actions)
        # every job settled: no hangs, no unsettled states
        assert all(job.status in ("done", "failed") for job in report.jobs)

    def test_empty_plan_serving_is_byte_identical(self):
        spec = ScenarioSpec(
            peers=4, documents=2, axml_documents=1, items=10,
            services=1, replicas=1, queries=4,
        )
        scenario = ScenarioGenerator(seed=9, spec=spec).scenario(0)
        from repro.engine import JobRequest

        requests = [
            JobRequest(arrival=k * 0.01, **q.kwargs())
            for k, q in enumerate(scenario.queries)
        ]
        plain = Session(scenario.system).serve(list(requests))
        # empty plan + retry policy installed: the no-op contract says the
        # event trace (timestamps included) stays byte-for-byte identical
        # (no actor attached — any actor, fault or placement, adds its own
        # tick events to the trace)
        guarded = Session(
            scenario.system, retry=RetryPolicy(), fault_plan=FaultPlan()
        ).serve(list(requests))
        assert plain.events == guarded.events
        assert plain.metrics.makespan == guarded.metrics.makespan
        assert guarded.registry.counters("faults") == []


class TestAvailabilityUnderChaos:
    """One chaos scenario serves one stream three ways on identical
    virtual hardware: fault-free, faulted with recovery, faulted without."""

    #: heavier items than the sweep default, so a fault window costs a
    #: bounded fraction of a job instead of dwarfing it
    SPEC = replace(CHAOS_SPEC, items=40, payload_words=12)
    #: dense transient windows in every fault family, each short enough
    #: for a bounded retry budget to clear it
    LOAD = FaultSpec(
        link_drops=24, link_degrades=2, corruptions=4, service_failures=3,
        service_hangs=1, peer_stalls=2, peer_crashes=1, horizon=0.6,
        min_window=0.02, max_window=0.05, crash_downtime=0.05,
    )
    RECOVERY = RetryPolicy(max_attempts=8, backoff=0.005, call_timeout=0.02)

    def serve(self, faulted, recover):
        """(availability, p95 latency) of four rounds over the query mix,
        arrivals spread across the fault horizon; a job is available
        when it drains done, with a full or a partial answer."""
        scenario = ScenarioGenerator(seed=7, spec=self.SPEC).scenario(0)
        plan = FaultPlan.generate(1, scenario.system, self.LOAD) if faulted else None
        session = Session(
            scenario.system, retry=self.RECOVERY if recover else None, fault_plan=plan
        )
        gap = self.LOAD.horizon / (4 * len(scenario.queries))
        requests = []
        for r in range(4):
            for query in scenario.queries:
                kwargs = dict(query.kwargs(), name=f"{query.name}-r{r}")
                requests.append(JobRequest(
                    arrival=len(requests) * gap, partial=recover, **kwargs
                ))
        report = session.serve(
            requests, actor=FaultActor(plan) if plan is not None else None
        )
        done = sorted(j.finished_at - j.arrival for j in report.jobs if j.status == "done")
        p95 = done[min(len(done) - 1, int(0.95 * len(done)))] if done else float("inf")
        return len(done) / len(report.jobs), p95

    def test_recovery_holds_availability_within_three_times_p95(self):
        _, clean_p95 = self.serve(faulted=False, recover=True)
        recovered, recovered_p95 = self.serve(faulted=True, recover=True)
        exposed, _ = self.serve(faulted=True, recover=False)
        assert recovered >= 0.95
        assert exposed <= recovered - 0.15  # unprotected visibly degrades
        assert recovered_p95 <= 3 * clean_p95, (recovered_p95, clean_p95)


# ---------------------------------------------------------------------------
# Satellite 1: the failure paths never leak untyped exceptions
# ---------------------------------------------------------------------------

class TestUntypedExceptionAudit:
    def test_native_service_crash_surfaces_as_service_error(self, system):
        def boom(params, helper):
            raise KeyError("implementation bug")

        system.peer("p1").install_service(NativeService("boom", boom))
        evaluator = ExpressionEvaluator(system)
        with pytest.raises(ServiceCallError) as err:
            evaluator.eval(ServiceCallExpr("p1", "boom", ()), "p0")
        assert isinstance(err.value.__cause__, KeyError)

    def test_pick_document_crash_surfaces_as_resolution_error(self, system):
        system.registry.register_document("gcat", "cat", "p1")

        def broken_pick(*args, **kwargs):
            raise RuntimeError("policy bug")

        system.registry.pick_document = broken_pick
        evaluator = ExpressionEvaluator(system)
        with pytest.raises(GenericResolutionError) as err:
            evaluator.eval(GenericDoc("gcat"), "p0")
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_pick_service_crash_surfaces_as_resolution_error(self, system):
        system.registry.register_service("gpick", "pick", "p1")

        def broken_pick(*args, **kwargs):
            raise RuntimeError("policy bug")

        system.registry.pick_service = broken_pick
        evaluator = ExpressionEvaluator(system)
        with pytest.raises(GenericResolutionError):
            evaluator.eval(ServiceCallExpr(ANY, "gpick", ()), "p0")

    def test_fault_taxonomy_is_rooted_at_fault_error(self):
        for exc_type in (
            MessageLostError,
            TransferCorruptionError,
            TransferTimeoutError,
            ServiceCallFaultError,
            DeadlineExceededError,
        ):
            assert issubclass(exc_type, FaultError)
            assert getattr(exc_type("x", at=1.5), "at") == 1.5


# ---------------------------------------------------------------------------
# Satellite 6: churn cancels the victim's in-flight traffic
# ---------------------------------------------------------------------------

class TestChurnTrafficCancellation:
    def test_kill_cancels_pending_link_traffic(self, system):
        network = system.network
        # a large transfer keeps the p1->p0 link busy well past t=0.05
        network.deliver(
            Message("p1", "p0", MessageKind.DATA, 500_000), 0.0
        )
        assert network.link("p1", "p0").busy_until > 0.05
        notes = ChurnController(system).kill("p1", now=0.05)
        assert any("cancelled in-flight traffic" in note for note in notes)
        for src, dst in (("p1", "p0"), ("p0", "p1")):
            link = network.link(src, dst)
            if link is not None:
                assert link.busy_until <= 0.05

    def test_rejoin_does_not_revive_precrash_traffic(self, system):
        network = system.network
        network.deliver(
            Message("p1", "p0", MessageKind.DATA, 500_000), 0.0
        )
        controller = ChurnController(system)
        controller.kill("p1", now=0.05)
        controller.join("p1")
        assert system.peer("p1").alive
        # a fresh transfer after the rejoin starts immediately — it does
        # not queue behind the cancelled pre-crash transfer
        arrival = network.deliver(
            Message("p1", "p0", MessageKind.DATA, 100), 0.06
        )
        assert arrival < 0.2

    def test_kill_without_traffic_adds_no_note(self, system):
        notes = ChurnController(system).kill("p2", now=0.0)
        assert not any("cancelled" in note for note in notes)


# ---------------------------------------------------------------------------
# Satellite 2: scenario/stream knobs are byte-identical at zero
# ---------------------------------------------------------------------------

class TestWorkloadKnobs:
    def test_zero_knobs_keep_scenarios_byte_identical(self):
        base = ScenarioSpec(peers=4, documents=2, items=8, queries=3)
        explicit = ScenarioSpec(
            peers=4, documents=2, items=8, queries=3,
            slow_peers=0, slow_factor=4.0, flash_crowd=0.0,
        )
        a = ScenarioGenerator(seed=6, spec=base).scenario(0)
        b = ScenarioGenerator(seed=6, spec=explicit).scenario(0)
        assert a.serialize() == b.serialize()

    def test_slow_peers_divide_the_correlated_set(self):
        base = ScenarioSpec(peers=5, documents=2, items=8, queries=3)
        slow = ScenarioSpec(
            peers=5, documents=2, items=8, queries=3,
            slow_peers=2, slow_factor=4.0,
        )
        plain = ScenarioGenerator(seed=6, spec=base).scenario(0)
        slowed = ScenarioGenerator(seed=6, spec=slow).scenario(0)
        # compute speeds draw before the gated sample, so they compare 1:1
        changed = [
            pid
            for pid in plain.system.peers
            if slowed.system.peers[pid].compute_speed
            != plain.system.peers[pid].compute_speed
        ]
        assert len(changed) == 2
        for pid in changed:
            assert slowed.system.peers[pid].compute_speed == pytest.approx(
                plain.system.peers[pid].compute_speed / 4.0
            )

    def test_slow_peers_cannot_exceed_peers(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec(peers=2, slow_peers=3).validate()

    def test_flash_crowd_zero_stream_is_byte_identical(self):
        scenario = ScenarioGenerator(seed=2).scenario(0)
        plain = LoadGenerator(scenario, seed=5).open_loop(20, rate=200.0)
        explicit = LoadGenerator(scenario, seed=5, flash=0.0).open_loop(
            20, rate=200.0, flash_factor=0.0
        )
        assert plain == explicit

    def test_flash_crowd_compresses_burst_only(self):
        scenario = ScenarioGenerator(seed=2).scenario(0)
        plain = LoadGenerator(scenario, seed=5).open_loop(
            20, rate=200.0, flash_at=0.4, flash_width=0.2
        )
        burst = LoadGenerator(scenario, seed=5, flash=4.0).open_loop(
            20, rate=200.0, flash_at=0.4, flash_width=0.2
        )
        # identical query mix (the mix draws from its own rng stream)
        assert [r.name for r in plain] == [r.name for r in burst]
        # gaps before the burst are untouched; burst gaps divide by 4
        lo, hi = 8, 12  # int(20*0.4), int(20*0.6)
        prev_p, prev_b = 0.0, 0.0
        for k, (p, b) in enumerate(zip(plain, burst)):
            gap_p = p.arrival - prev_p
            gap_b = b.arrival - prev_b
            prev_p, prev_b = p.arrival, b.arrival
            if k < lo:
                assert gap_b == pytest.approx(gap_p)
            elif k < hi:
                assert gap_b == pytest.approx(gap_p / 4.0)

    def test_flash_crowd_validation(self):
        scenario = ScenarioGenerator(seed=2).scenario(0)
        with pytest.raises(WorkloadError):
            LoadGenerator(scenario, seed=5, flash=0.5)
        with pytest.raises(WorkloadError):
            LoadGenerator(scenario, seed=5).open_loop(5, 10.0, flash_factor=0.2)
        with pytest.raises(WorkloadError):
            ScenarioSpec(flash_crowd=0.5).validate()

    def test_chaos_spec_is_monotone_and_valid(self):
        CHAOS_SPEC.validate()
        assert "count" not in CHAOS_SPEC.query_shapes
        assert CHAOS_SPEC.slow_peers == 1
        assert CHAOS_SPEC.flash_crowd == 4.0
        scenario = ScenarioGenerator(seed=1, spec=CHAOS_SPEC).scenario(0)
        assert len(scenario.queries) == CHAOS_SPEC.queries
