"""Tests for the concurrent serving engine (repro.engine).

Covers the scheduler's event loop (deterministic seeded tie-breaking,
per-peer compute queues, replica-aware admission), the load generator's
open/closed-loop arrival processes, fleet metrics, cross-query FIFO link
contention, the reset-path regressions the engine relies on, and what
concurrency buys on a replicated mesh.
"""

import warnings

import pytest

from repro import Session, connect
from repro.engine import (
    ClosedLoopFeed,
    FleetMetrics,
    JobRequest,
    LoadGenerator,
    QueryJob,
    Scheduler,
    ServingReport,
    percentile,
    plan_peers,
)
from repro.engine.jobs import DONE, FAILED
from repro.errors import SessionError, WorkloadError
from repro.peers import AXMLSystem, GenericMember, QueueDepthPolicy
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.xmlcore import parse

FILTER_QUERY = "for $i in $d//i where $i/p > 49 return $i/p"


def big_doc(n=60, pad=40, mark="x"):
    return parse(
        "<c>"
        + "".join(f"<i><p>{k}</p><d>{mark * pad}</d></i>" for k in range(n))
        + "</c>"
    )


@pytest.fixture()
def mesh_system():
    system = AXMLSystem.with_peers(
        ["laptop", "server", "edge"], bandwidth=50_000.0, latency=0.02
    )
    system.peer("server").install_document("cat", big_doc())
    system.peer("edge").install_document("cat2", big_doc(mark="y"))
    return system


@pytest.fixture()
def scenario():
    spec = ScenarioSpec(
        peers=5, topology="mesh", documents=3, axml_documents=1,
        items=14, services=2, replicas=2, queries=5,
    )
    return ScenarioGenerator(seed=7, spec=spec).scenario(0)


class TestSubmitDrain:
    def test_submit_returns_pending_job_and_drain_completes_it(self, mesh_system):
        scheduler = Scheduler(connect(mesh_system))
        job = scheduler.submit(JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}))
        assert isinstance(job, QueryJob)
        assert job.status == "pending"
        report = scheduler.drain()
        assert isinstance(report, ServingReport)
        assert job.status == DONE
        assert job.finished_at > 0
        assert job.report is not None and job.report.executed

    def test_answers_match_single_query_pipeline(self, mesh_system):
        session = connect(mesh_system)
        (job,) = session.serve([JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})]).jobs
        solo = connect(mesh_system).query(
            FILTER_QUERY, at="laptop", bind={"d": "cat@server"}
        )
        assert job.answers == solo.answers
        assert len(job.answers) == 10

    def test_per_job_reports_carry_optimization(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve([JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})])
        (execution,) = report.reports
        assert execution.best_cost.scalar() <= execution.original_cost.scalar()
        assert execution.plan_cache is not None

    def test_timestamps_are_ordered(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve(
            [JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}, arrival=0.25)]
        )
        job = report.jobs[0]
        assert job.arrival == 0.25
        assert job.admitted_at >= job.arrival
        assert job.started_at >= job.admitted_at
        assert job.finished_at > job.started_at
        assert job.latency > 0

    def test_failed_job_does_not_sink_the_fleet(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve([
            JobRequest(FILTER_QUERY, "laptop", {"d": "nope@server"}),
            JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}),
        ])
        bad, good = report.jobs
        assert bad.status == FAILED and bad.error is not None
        assert good.status == DONE
        assert report.metrics.failed == 1 and report.metrics.jobs == 1

    def test_serve_without_requests_returns_an_empty_report(self, mesh_system):
        report = connect(mesh_system).serve()
        assert report.jobs == [] and report.events == []
        assert report.metrics.jobs == 0 and report.metrics.failed == 0
        assert report.metrics.makespan == 0.0

    def test_request_needs_a_site(self):
        with pytest.raises(TypeError):
            JobRequest(FILTER_QUERY)

    def test_each_serve_drains_a_fresh_scheduler(self, mesh_system):
        session = connect(mesh_system)
        request = JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})
        first = session.serve([request], seed=5)
        second = session.serve([request], seed=5)
        # nothing carries over: the second stream numbers and times its
        # job as the first did
        assert [job.job_id for job in second.jobs] == [0]
        assert second.metrics.jobs == 1
        assert second.events == first.events

    def test_a_rejected_stream_leaves_the_session_serving(self, mesh_system):
        session = connect(mesh_system)
        request = JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})
        with pytest.raises(SessionError):
            session.serve([JobRequest(FILTER_QUERY, "laptop", arrival=-1.0)])
        assert session.serve([request]).metrics.jobs == 1

    def test_serve_rejects_a_tuple(self, mesh_system):
        request = (FILTER_QUERY, "laptop", {"d": "cat@server"})
        with pytest.raises(SessionError, match="unsupported request"):
            connect(mesh_system).serve([request])

    def test_bad_serve_request_rejected(self, mesh_system):
        with pytest.raises(SessionError, match="unsupported request"):
            connect(mesh_system).serve([42])

    def test_crashing_feed_still_closes_the_engine(self, mesh_system):
        class ExplodingFeed:
            def initial(self):
                return [JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})]

            def on_complete(self, job, now):
                raise TypeError("buggy feed")

        session = connect(mesh_system)
        with pytest.raises(TypeError):
            session.serve(feed=ExplodingFeed())
        # serving still works afterwards
        request = JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})
        assert session.serve([request]).metrics.jobs == 1

    def test_isolated_serving_leaves_session_system_untouched(self, mesh_system):
        session = connect(mesh_system)
        session.serve([JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})])
        assert mesh_system.network.stats.messages == 0
        assert all(p.busy_until == 0.0 for p in mesh_system.peers.values())

    def test_serving_reports_the_traffic_of_its_clone(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve([JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})])
        assert report.network["messages"] > 0
        assert sum(p["work_done"] for p in report.peers.values()) > 0
        assert mesh_system.network.stats.messages == 0
        assert all(p.work_done == 0 for p in mesh_system.peers.values())


class TestAcceptance:
    """ISSUE 4 acceptance: concurrency beats sequential, answers unchanged."""

    def test_concurrency_beats_sequential_makespan(self, scenario):
        gen = LoadGenerator(scenario, seed=11)
        makespans = {}
        for concurrency in (1, 4):
            session = Session(scenario.system)
            report = session.serve(feed=gen.closed_loop(12, concurrency), seed=3)
            assert report.metrics.failed == 0
            makespans[concurrency] = report.metrics.makespan
        assert makespans[4] < makespans[1]

    def test_answers_byte_identical_to_solo_execution(self, scenario):
        gen = LoadGenerator(scenario, seed=11)
        session = Session(scenario.system)
        report = session.serve(feed=gen.closed_loop(10, 4), seed=3)
        assert report.metrics.failed == 0
        for job in report.jobs:
            solo = Session(scenario.system).query(
                job.request.source,
                at=job.request.at,
                bind=job.request.bind,
                name=job.request.name,
            )
            assert job.answers == solo.answers, job.name

    def test_throughput_scales_with_concurrency(self, scenario):
        gen = LoadGenerator(scenario, seed=11)
        qps = {}
        for concurrency in (1, 8):
            report = Session(scenario.system).serve(
                feed=gen.closed_loop(12, concurrency), seed=3
            )
            qps[concurrency] = report.metrics.queries_per_sec
        assert qps[8] > qps[1]

    def test_concurrency_sweep_on_a_replicated_mesh(self):
        # one request mix, identical at every level, on a heterogeneous
        # mesh with replicated documents: different queries' transfers and
        # compute overlap on the shared fabric instead of serializing
        spec = ScenarioSpec(
            peers=6, topology="mesh", documents=4, axml_documents=1,
            items=20, services=2, replicas=2, queries=6,
        )
        scenario = ScenarioGenerator(seed=7, spec=spec).scenario(0)
        load = LoadGenerator(scenario, seed=8)
        metrics, answers = {}, {}
        for concurrency in (1, 2, 4, 8):
            report = Session(scenario.system).serve(
                feed=load.closed_loop(16, concurrency), seed=7
            )
            assert report.metrics.failed == 0, concurrency
            metrics[concurrency] = report.metrics
            answers[concurrency] = {j.name: tuple(j.answers) for j in report.jobs}
        assert metrics[8].makespan < metrics[1].makespan
        assert metrics[8].queries_per_sec >= metrics[1].queries_per_sec
        # contention shifts time, never values
        assert all(level == answers[1] for level in answers.values())


class TestFIFOContention:
    """Satellite: cross-query FIFO serialization on one shared link."""

    def _star_system(self):
        # data--hub--{a,b}: everything data ships crosses the data->hub
        # link, so two concurrent pulls from data must serialize there.
        system = AXMLSystem.with_peers(
            ["hub", "data", "a", "b"], topology="star",
            bandwidth=50_000.0, latency=0.01,
        )
        system.peer("data").install_document("cat", big_doc(n=80))
        return system

    def test_two_jobs_on_one_link_serialize(self):
        system = self._star_system()
        solo_session = connect(system)
        solo = solo_session.serve(
            [JobRequest(FILTER_QUERY, "a", {"d": "cat@data"}, optimize=False)]
        )
        solo_latency = solo.jobs[0].latency

        session = connect(system)
        report = session.serve([
            JobRequest(FILTER_QUERY, "a", {"d": "cat@data"}, name="ja",
                       optimize=False),
            JobRequest(FILTER_QUERY, "b", {"d": "cat@data"}, name="jb",
                       optimize=False),
        ], seed=0)
        finishes = sorted(job.finished_at for job in report.jobs)
        # the second job's transfer queues behind the first on data->hub:
        # its finish trails by at least the link occupancy of one payload
        from repro.xmlcore.serializer import serialize

        link = system.network.link("data", "hub")
        doc_bytes = len(serialize(system.peer("data").documents["cat"]))
        occupancy = doc_bytes / link.bandwidth
        assert finishes[1] - finishes[0] >= occupancy * 0.8
        # and the slower job is strictly worse off than running alone
        assert max(job.latency for job in report.jobs) > solo_latency

    def test_event_order_byte_stable_across_runs(self, scenario):
        gen = LoadGenerator(scenario, seed=11)

        def trace(seed):
            report = Session(scenario.system).serve(
                feed=gen.closed_loop(10, 4), seed=seed
            )
            return "\n".join(report.events)

        assert trace(3) == trace(3)

    def test_simultaneous_arrivals_tie_break_by_seed(self, mesh_system):
        requests = [
            JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}, name="j1"),
            JobRequest(FILTER_QUERY, "laptop", {"d": "cat2@edge"}, name="j2"),
        ]
        traces = {}
        for seed in range(6):
            report = connect(mesh_system).serve(list(requests), seed=seed)
            traces[seed] = tuple(report.events)
            # same seed, same trace
            again = connect(mesh_system).serve(list(requests), seed=seed)
            assert tuple(again.events) == traces[seed]
        # the seeded jitter actually reorders same-instant admissions:
        # both j1-first and j2-first orders must occur across these seeds
        orders = {trace[:2] for trace in traces.values()}
        assert len(orders) >= 2


class TestQueueDepthAdmission:
    def test_policy_prefers_shallowest_queue(self):
        system = AXMLSystem.with_peers(["p0", "p1", "p2"])
        system.peer("p1").queued = 3
        system.peer("p0").queued = 1
        members = [GenericMember("d", "p1"), GenericMember("d.r1", "p0")]
        chosen = QueueDepthPolicy().choose(members, "p2", system)
        assert chosen.peer == "p0"

    def test_policy_ties_break_on_cpu_clock_then_locality(self):
        system = AXMLSystem.with_peers(["p0", "p1"])
        system.peer("p0").busy_until = 5.0
        members = [GenericMember("d", "p0"), GenericMember("d.r1", "p1")]
        assert QueueDepthPolicy().choose(members, "p0", system).peer == "p1"
        system.peer("p1").busy_until = 5.0
        # all equal: the requester's own replica wins
        assert QueueDepthPolicy().choose(members, "p0", system).peer == "p0"

    def test_engine_charges_and_releases_compute_queues(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve([JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})])
        (job,) = report.jobs
        assert set(job.peers) >= {"laptop", "server"}
        # drained: every queue of the serving system emptied again
        assert all(p["queued"] == 0 for p in report.peers.values())

    def test_replicated_serving_spreads_over_replicas(self):
        # one generic document with replicas on two peers; a burst of
        # concurrent readers must not all pile onto one replica
        system = AXMLSystem.with_peers(
            ["c0", "c1", "r0", "r1"], bandwidth=50_000.0, latency=0.01
        )
        doc = big_doc(n=50)
        system.peer("r0").install_document("cat", doc)
        system.peer("r1").install_document("cat.r1", doc.copy_without_ids())
        system.registry.register_document("g-cat", "cat", "r0")
        system.registry.register_document("g-cat", "cat.r1", "r1")
        requests = [
            JobRequest(FILTER_QUERY, at, {"d": "g-cat@any"}, name=f"j{k}",
                       optimize=False)
            for k, at in enumerate(["c0", "c1", "c0", "c1"])
        ]
        report = connect(system).serve(requests, seed=1)
        assert report.metrics.failed == 0
        served_by = {
            peer: report.peers[peer]["traffic"].sent_bytes
            for peer in ("r0", "r1")
        }
        assert served_by["r0"] > 0 and served_by["r1"] > 0
        # and each job records the replica it leaned on
        for job in report.jobs:
            assert "r0" in job.peers or "r1" in job.peers


class TestLoadGenerator:
    def test_request_stream_is_seed_deterministic(self, scenario):
        a = LoadGenerator(scenario, seed=5).requests(8)
        b = LoadGenerator(scenario, seed=5).requests(8)
        assert a == b
        c = LoadGenerator(scenario, seed=6).requests(8)
        assert a != c

    def test_open_loop_arrivals_increase(self, scenario):
        arrivals = [
            r.arrival for r in LoadGenerator(scenario, seed=5).open_loop(10, 50.0)
        ]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_open_loop_rate_scales_density(self, scenario):
        gen = LoadGenerator(scenario, seed=5)
        slow = gen.open_loop(20, 10.0)[-1].arrival
        fast = gen.open_loop(20, 1000.0)[-1].arrival
        assert fast < slow

    def test_open_loop_serving_end_to_end(self, scenario):
        gen = LoadGenerator(scenario, seed=5)
        report = Session(scenario.system).serve(gen.open_loop(8, 200.0), seed=2)
        assert report.metrics.jobs + report.metrics.failed == 8
        for job in report.jobs:
            assert job.admitted_at >= job.arrival

    def test_closed_loop_mix_independent_of_concurrency(self, scenario):
        # sweeping concurrency must compare identical work
        gen = LoadGenerator(scenario, seed=5)
        mixes = {
            concurrency: [r.source for r in gen.closed_loop(9, concurrency)._pending]
            for concurrency in (1, 4, 8)
        }
        assert mixes[1] == mixes[4] == mixes[8]

    def test_open_loop_is_seed_deterministic(self, scenario):
        a = LoadGenerator(scenario, seed=5).open_loop(20, 200.0)
        assert a == LoadGenerator(scenario, seed=5).open_loop(20, 200.0)
        assert a != LoadGenerator(scenario, seed=6).open_loop(20, 200.0)

    def test_open_loop_only_times_scenario_queries(self, scenario):
        queries = {(q.source, q.at): q for q in scenario.queries}
        for k, request in enumerate(
            LoadGenerator(scenario, seed=5).open_loop(12, 200.0)
        ):
            query = queries[(request.source, request.at)]
            assert request.bind == query.bindings
            assert request.name == f"{query.name}#{k}"
            assert request.optimize and request.deadline is None
            assert not request.partial

    def test_validation(self, scenario):
        gen = LoadGenerator(scenario, seed=5)
        with pytest.raises(WorkloadError):
            gen.open_loop(5, 0.0)
        with pytest.raises(WorkloadError):
            gen.requests(0)
        with pytest.raises(WorkloadError):
            gen.closed_loop(5, 0)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile([], 50) == 0.0
        # nearest-rank must not drift with banker's rounding on 4k+2 sizes
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50) == 3.0
        assert percentile([5.0], 1) == 5.0

    def test_describe_smoke(self, mesh_system):
        session = connect(mesh_system)
        report = session.serve(
            [JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}, name="smoke")]
        )
        text = report.describe()
        assert "queries/sec" in text and "smoke" in text
        assert isinstance(report.metrics, FleetMetrics)
        assert report.job("smoke").status == DONE
        with pytest.raises(KeyError):
            report.job("ghost")

    def test_utilization_reported_per_peer(self, scenario):
        gen = LoadGenerator(scenario, seed=11)
        report = Session(scenario.system).serve(feed=gen.closed_loop(8, 4))
        assert set(report.metrics.utilization) == set(scenario.system.peers)
        assert any(u > 0 for u in report.metrics.utilization.values())


class TestPlanPeers:
    def test_collects_homes_sites_and_providers(self, mesh_system):
        session = connect(mesh_system)
        plan = session.plan(
            FILTER_QUERY, "laptop", bind={"d": ("cat", "server")}
        )
        assert plan_peers(plan.expr, "laptop") == ("laptop", "server")

    def test_generic_references_contribute_nothing(self, mesh_system):
        mesh_system.registry.register_document("g", "cat", "server")
        session = connect(mesh_system)
        plan = session.plan(FILTER_QUERY, "laptop", bind={"d": "g@any"})
        assert plan_peers(plan.expr, "laptop") == ("laptop",)

    def test_send_relays_and_destinations_are_charged(self):
        # rule-(12) store-and-forward hops occupy peers too
        from repro.core import DocExpr, Send
        from repro.core.expressions import PeerDest

        expr = Send(PeerDest("sink"), DocExpr("cat", "data"), via=("hub",))
        assert plan_peers(expr, "data") == ("data", "hub", "sink")


class TestCleanBaseline:
    """Every run starts from idle links and clocks: a clone of Σ."""

    def test_each_serve_starts_from_idle_links_and_clocks(self, mesh_system):
        session = connect(mesh_system)
        request = JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})
        first = session.serve([request])
        assert any(
            p["busy_until"] > 0 for p in first.peers.values()
        )
        second = session.serve([request])
        assert second.jobs[0].started_at == first.jobs[0].started_at
        assert second.jobs[0].finished_at == first.jobs[0].finished_at
        assert second.network == first.network

    def test_back_to_back_runs_identical(self, mesh_system):
        """Stale link occupancy must never leak between Session runs."""
        session = connect(mesh_system)
        first = session.query(
            FILTER_QUERY, at="laptop", bind={"d": "cat@server"}
        )
        second = session.query(
            FILTER_QUERY, at="laptop", bind={"d": "cat@server"}
        )
        assert first.completed_at == second.completed_at
        assert first.answers == second.answers

    def test_a_busy_live_network_does_not_slow_a_run(self, mesh_system):
        kwargs = dict(at="laptop", bind={"d": "cat@server"})
        calm = connect(mesh_system.clone()).query(FILTER_QUERY, **kwargs)
        for link in mesh_system.network.links():
            link.busy_until = 9.0
        for peer in mesh_system.peers.values():
            peer.busy_until = 9.0
        busy = connect(mesh_system).query(FILTER_QUERY, **kwargs)
        assert busy.completed_at == calm.completed_at < 9.0
        assert busy.answers == calm.answers

    def test_evaluator_advances_system_clock(self, mesh_system):
        from repro.core import ExpressionEvaluator

        session = connect(mesh_system)
        plan = session.plan(
            FILTER_QUERY, "laptop", bind={"d": "cat@server"}
        )
        target = mesh_system.clone()
        outcome = ExpressionEvaluator(target).eval(plan.expr, plan.site, 0.125)
        assert outcome.completed_at > 0.125
        assert target.clock == outcome.completed_at


class TestSchedulerUnit:
    def test_negative_arrival_rejected(self, mesh_system):
        scheduler = Scheduler(connect(mesh_system))
        with pytest.raises(SessionError):
            scheduler.submit(JobRequest(FILTER_QUERY, "laptop", arrival=-1.0))

    def test_unknown_admission_policy_rejected(self, mesh_system):
        with pytest.raises(SessionError):
            Scheduler(connect(mesh_system), admission="warp-speed")

    def test_double_drain_rejected(self, mesh_system):
        scheduler = Scheduler(connect(mesh_system))
        scheduler.submit(
            JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"})
        )
        scheduler.drain()
        with pytest.raises(SessionError):
            scheduler.drain()

    def test_unoptimized_jobs_serve_the_naive_plan(self, mesh_system):
        session = connect(mesh_system)
        (job,) = session.serve(
            [JobRequest(FILTER_QUERY, "laptop", {"d": "cat@server"}, optimize=False)]
        ).jobs
        assert job.report.strategy == "none"
        assert job.report.plan.describe() == job.report.original.describe()
