"""Tests for the adaptive placement subsystem (repro.placement).

Covers the typed ``FragmentUnavailableError`` contract (direct queries
and the serving path), catalog transactions (byte-identity and
atomicity), the telemetry monitor's window deltas, the
threshold+hysteresis policy, churn kill/join with catalog failover,
dead-replica admission routing (queue-depth and link-aware picks), the
scheduler's background-actor integration, the load generator's Zipf /
hotspot-shift knobs, and adaptive against static placement under a
hotspot shift and a peer kill.
"""

from dataclasses import replace

import pytest

from repro import connect
from repro.dist import Fragmenter
from repro.engine import ClosedLoopFeed, JobRequest, LoadGenerator
from repro.engine.jobs import FAILED
from repro.errors import (
    FragmentUnavailableError,
    FragmentationError,
    PeerDownError,
    WorkloadError,
)
from repro.faults import PEER_CRASH, FaultEvent, FaultPlan
from repro.peers import AXMLSystem
from repro.peers.registry import LinkAwarePolicy, QueueDepthPolicy
from repro.placement import (
    AddReplica,
    ChurnController,
    MigrateFragment,
    PlacementActor,
    PlacementMonitor,
    RetireReplica,
    SplitFragment,
    ThresholdPolicy,
)
from repro.placement.rebalancer import Rebalancer
from repro.workloads import Scenario, ScenarioSpec
from repro.workloads.generator import GeneratedQuery
from repro.xmlcore import parse

QUERY = "for $i in $d//item where $i/price >= 0 return $i/name"


def crash_plan(at, peer):
    """A session fault plan whose one event kills ``peer`` at ``at``."""
    return FaultPlan(events=(FaultEvent(PEER_CRASH, at, peer=peer),))


def catalog_doc(n=12, payload=0):
    desc = f"<desc>{'word ' * payload}</desc>" if payload else ""
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price>{desc}</item>"
            for i in range(n)
        )
        + "</catalog>"
    )


def fragmented_system(replicas=0, n=12,
                      peers=("client", "d0", "d1", "d2")):
    system = AXMLSystem.with_peers(
        list(peers), bandwidth=200_000.0, latency=0.01
    )
    system.peer("d0").install_document("cat", catalog_doc(n))
    Fragmenter(system).fragment(
        "cat", "d0", ["d0", "d1", "d2"],
        replicas=replicas, keep_original=False,
    )
    return system


def query_answers(system, optimize=True):
    return connect(system).query(
        QUERY, at="client", bind={"d": "cat@dist"}, optimize=optimize
    ).answers


# ---------------------------------------------------------------------------
# typed unavailability (the satellite bugfix regression)
# ---------------------------------------------------------------------------


class TestFragmentUnavailable:
    def test_last_copy_death_raises_typed_error(self):
        system = fragmented_system()
        ChurnController(system).kill("d1")
        with pytest.raises(FragmentUnavailableError) as exc:
            query_answers(system)
        assert exc.value.fragment == "cat.f1"
        assert exc.value.peers == ("d1",)
        assert "no live copy" in str(exc.value)

    def test_unoptimized_path_raises_same_error(self):
        system = fragmented_system()
        ChurnController(system).kill("d2")
        with pytest.raises(FragmentUnavailableError):
            query_answers(system, optimize=False)

    def test_dead_evaluation_site_raises_peer_down(self):
        system = fragmented_system()
        ChurnController(system).kill("client")
        with pytest.raises(PeerDownError):
            query_answers(system, optimize=False)

    def test_survivor_replica_keeps_answers_byte_identical(self):
        system = fragmented_system(replicas=1)
        before = query_answers(system)
        ChurnController(system).kill("d1")
        assert query_answers(system) == before

    def test_serving_jobs_fail_with_typed_error(self):
        system = fragmented_system()
        ChurnController(system).kill("d1")
        session = connect(system)
        report = session.serve(
            [JobRequest(QUERY, "client", {"d": "cat@dist"})]
        )
        (job,) = report.jobs
        assert job.status == FAILED
        assert isinstance(job.error, FragmentUnavailableError)


# ---------------------------------------------------------------------------
# writes under churn: replica failover and typed unavailability
# ---------------------------------------------------------------------------


class TestWritesUnderChurn:
    def test_write_fails_over_to_surviving_replica(self):
        # ordinal 5 lives in cat.f1 (home d1); with the home dead the
        # writer must promote the surviving mirror to primary copy.
        reference = fragmented_system(replicas=1)
        connect(reference).update("cat", 5, "price", "9999")
        expected = query_answers(reference)

        system = fragmented_system(replicas=1)
        ChurnController(system).kill("d1")
        result = connect(system).update("cat", 5, "price", "9999")
        assert result.fragment == "cat.f1"
        assert result.primary != "d1"
        assert system.peer(result.primary).alive
        assert query_answers(system) == expected

    def test_write_to_lost_fragment_raises_typed_error(self):
        # Regression: a write routed to a fragment with no live copy
        # must surface the typed FragmentUnavailableError, never a bare
        # KeyError from the peer table.
        system = fragmented_system(replicas=0)
        ChurnController(system).kill("d1")
        session = connect(system)
        try:
            session.update("cat", 5, "price", "9999")
        except FragmentUnavailableError as exc:
            assert exc.fragment == "cat.f1"
            assert "d1" in exc.peers
        else:
            raise AssertionError("write against a lost fragment succeeded")

    def test_whole_doc_write_to_dead_host_raises_peer_down(self):
        system = AXMLSystem.with_peers(["client", "d0"])
        system.peer("d0").install_document("plain", catalog_doc(4))
        ChurnController(system).kill("d0")
        with pytest.raises(PeerDownError):
            connect(system).update("plain", 1, "price", "7")


# ---------------------------------------------------------------------------
# catalog transactions: byte-identity and atomicity
# ---------------------------------------------------------------------------


class TestTransactions:
    def test_add_replica_keeps_answers_and_registers_class(self):
        system = fragmented_system()
        before = query_answers(system)
        settled = AddReplica("cat", 1, "client").apply(system, now=0.0)
        assert settled > 0.0  # the copy really shipped on the fabric
        fragment = system.fragments.info("cat").fragments[1]
        assert fragment.replicas == ("client",)
        assert fragment.generic == "cat.f1"
        members = system.registry.document_members("cat.f1")
        assert {m.peer for m in members} == {"d1", "client"}
        assert system.peer("client").has_document("cat.f1")
        assert query_answers(system) == before

    def test_add_replica_refuses_duplicate_and_dead_target(self):
        system = fragmented_system()
        AddReplica("cat", 0, "client").apply(system, now=0.0)
        with pytest.raises(FragmentationError):
            AddReplica("cat", 0, "client").apply(system, now=0.0)
        ChurnController(system).kill("client")
        with pytest.raises(FragmentationError):
            AddReplica("cat", 1, "client").apply(system, now=0.0)

    def test_retire_replica_closes_class_and_keeps_answers(self):
        system = fragmented_system()
        before = query_answers(system)
        AddReplica("cat", 1, "client").apply(system, now=0.0)
        RetireReplica("cat", 1, "client").apply(system, now=0.0)
        fragment = system.fragments.info("cat").fragments[1]
        assert fragment.replicas == ()
        assert fragment.generic is None
        assert system.registry.document_members("cat.f1") == []
        assert not system.peer("client").has_document("cat.f1")
        assert query_answers(system) == before

    def test_retire_refuses_primary(self):
        system = fragmented_system()
        with pytest.raises(FragmentationError):
            RetireReplica("cat", 1, "d1").apply(system, now=0.0)

    def test_migrate_moves_primary_and_keeps_answers(self):
        system = fragmented_system()
        before = query_answers(system)
        MigrateFragment("cat", 1, "client").apply(system, now=0.0)
        fragment = system.fragments.info("cat").fragments[1]
        assert fragment.home == "client"
        assert system.peer("client").has_document("cat.f1")
        assert not system.peer("d1").has_document("cat.f1")
        assert query_answers(system) == before

    def test_failed_migration_leaves_catalog_and_data_intact(self):
        system = fragmented_system()
        # name collision at the target: the transaction must abort
        system.peer("client").install_document("cat.f1", catalog_doc(2))
        before_info = system.fragments.info("cat")
        before = query_answers(system)
        with pytest.raises(FragmentationError):
            MigrateFragment("cat", 1, "client").apply(system, now=0.0)
        assert system.fragments.info("cat") == before_info
        assert system.peer("d1").has_document("cat.f1")
        assert query_answers(system) == before

    def test_split_renumbers_catalog_and_keeps_answers(self):
        system = fragmented_system()
        before = query_answers(system)
        SplitFragment("cat", 1, ("d1", "client")).apply(system, now=0.0)
        info = system.fragments.info("cat")
        names = [f.name for f in info.fragments]
        assert len(names) == 4
        assert [f.index for f in info.fragments] == [0, 1, 2, 3]
        assert info.total_items == 12
        # the old middle fragment is gone, its halves cover its ordinals
        assert "cat.f1" not in names
        assert not system.peer("d1").has_document("cat.f1")
        assert query_answers(system) == before


# ---------------------------------------------------------------------------
# telemetry: window deltas
# ---------------------------------------------------------------------------


class TestPlacementMonitor:
    def test_windows_report_deltas_not_totals(self):
        system = fragmented_system()
        monitor = PlacementMonitor(system)
        monitor.observe(0.0)
        system.peer("d1").document("cat.f1")  # one served read
        first = monitor.observe(1.0)
        assert first.fragment("cat.f1").reads == 1
        second = monitor.observe(2.0)  # nothing happened since
        assert second.fragment("cat.f1").reads == 0
        assert second.time == 2.0

    def test_snapshot_sees_death_and_copies(self):
        system = fragmented_system()
        AddReplica("cat", 0, "client").apply(system, now=0.0)
        ChurnController(system).kill("d0")
        snap = PlacementMonitor(system).observe(0.0)
        assert snap.peer("d0").alive is False
        frag = snap.fragment("cat.f0")
        assert frag.live_copies == ("client",)
        assert "DOWN" in snap.describe()


# ---------------------------------------------------------------------------
# the threshold + hysteresis policy
# ---------------------------------------------------------------------------


def run_windows(rebalancer, reads_per_window):
    """Feed synthetic read windows through a live Rebalancer."""
    notes = []
    system = rebalancer.system
    for window, reads in enumerate(reads_per_window):
        for _ in range(reads):
            # a real read on the primary, so doc_reads moves
            home = system.fragments.info("cat").fragments[1].home
            system.peer(home).document("cat.f1")
        notes.extend(rebalancer.tick(now=float(window)))
    return notes


class TestThresholdPolicy:
    def test_hot_streak_spawns_replica_after_hysteresis(self):
        system = fragmented_system()
        policy = ThresholdPolicy(hot_reads=2, hysteresis=2, cooldown=1,
                                 max_copies=2)
        rebalancer = Rebalancer(system, policy=policy)
        notes = run_windows(rebalancer, [3])
        assert notes == []  # one hot window is a blip, not a trend
        notes = run_windows(rebalancer, [3])
        assert any("add-replica cat.f1" in n for n in notes)
        fragment = system.fragments.info("cat").fragments[1]
        assert len(fragment.peers) == 2

    def test_max_copies_caps_scale_up(self):
        system = fragmented_system()
        policy = ThresholdPolicy(hot_reads=1, hysteresis=1, cooldown=0,
                                 max_copies=2)
        rebalancer = Rebalancer(system, policy=policy)
        run_windows(rebalancer, [2, 2, 2, 2])
        assert len(system.fragments.info("cat").fragments[1].peers) == 2

    def test_cooldown_spaces_actions(self):
        system = fragmented_system()
        policy = ThresholdPolicy(hot_reads=1, hysteresis=1, cooldown=3,
                                 max_copies=4)
        rebalancer = Rebalancer(system, policy=policy)
        notes = run_windows(rebalancer, [2, 2, 2])
        acted = [n for n in notes if "add-replica" in n]
        assert len(acted) == 1  # windows 2-3 fall inside the cooldown

    def test_cold_streak_sheds_replica_with_longer_fuse(self):
        system = fragmented_system()
        AddReplica("cat", 1, "client").apply(system, now=0.0)
        policy = ThresholdPolicy(hot_reads=5, hysteresis=1, cooldown=0,
                                 cold_hysteresis=3)
        rebalancer = Rebalancer(system, policy=policy)
        notes = run_windows(rebalancer, [0, 0])
        assert notes == []  # two zero windows < cold_hysteresis
        notes = run_windows(rebalancer, [0])
        assert any("retire-replica cat.f1" in n for n in notes)
        assert system.fragments.info("cat").fragments[1].replicas == ()

    def test_split_when_hot_at_copy_ceiling(self):
        system = fragmented_system(n=24)
        policy = ThresholdPolicy(hot_reads=1, hysteresis=1, cooldown=0,
                                 max_copies=1, split_items=4)
        rebalancer = Rebalancer(system, policy=policy)
        notes = run_windows(rebalancer, [2])
        assert any("split" in n for n in notes)
        assert len(system.fragments.info("cat").fragments) == 4

    def test_joiner_attracts_migration(self):
        # every existing peer starts with data (d0 crowded with two
        # primaries), so the joiner is the only empty peer in sight
        system = AXMLSystem.with_peers(
            ["d0", "d1"], bandwidth=200_000.0, latency=0.01
        )
        system.peer("d0").install_document("cat", catalog_doc(12))
        Fragmenter(system).fragment(
            "cat", "d0", ["d0", "d0", "d1"], keep_original=False
        )
        controller = ChurnController(system)
        controller.join("fresh", latency=0.01, bandwidth=200_000.0)
        policy = ThresholdPolicy(hot_reads=99, hysteresis=9)
        rebalancer = Rebalancer(system, policy=policy)
        notes = rebalancer.tick(now=0.0)
        assert any("migrate" in n and "-> fresh" in n for n in notes)
        homes = {f.home for f in system.fragments.info("cat").fragments}
        assert "fresh" in homes

    def test_refused_action_is_reported_not_fatal(self):
        system = fragmented_system()
        # collide the replica name on every possible target so any
        # scale-up the policy tries must be refused atomically
        for pid in ("client",):
            system.peer(pid).install_document("cat.f1", catalog_doc(2))
        policy = ThresholdPolicy(hot_reads=1, hysteresis=1, cooldown=0,
                                 max_copies=4)
        rebalancer = Rebalancer(system, policy=policy)
        notes = run_windows(rebalancer, [2, 2])
        refused = [n for n in notes if "REFUSED" in n]
        assert refused  # surfaced in the action trace
        assert query_answers(system)  # and the system still answers


# ---------------------------------------------------------------------------
# churn: kills, joins, failover
# ---------------------------------------------------------------------------


class TestChurn:
    def test_kill_fails_over_to_replica(self):
        system = fragmented_system(replicas=1)
        info = system.fragments.info("cat")
        target = info.fragments[0]
        victim = target.home
        expected_home = target.replicas[0]
        notes = ChurnController(system).kill(victim)
        assert any("failover" in n for n in notes)
        after = system.fragments.info("cat").fragments[0]
        assert after.home == expected_home
        assert victim not in after.peers
        assert victim not in {
            m.peer
            for f in system.fragments.info("cat").fragments
            if f.generic
            for m in system.registry.document_members(f.generic)
        }

    def test_kill_is_idempotent(self):
        system = fragmented_system()
        controller = ChurnController(system)
        controller.kill("d1")
        notes = controller.kill("d1")
        assert notes == ["kill d1: already down"]

    def test_join_links_and_rejoin_revives(self):
        system = fragmented_system()
        controller = ChurnController(system)
        notes = controller.join("fresh")
        assert "join fresh" in notes[0]
        assert "fresh" in system.live_peers()
        assert system.network.route("fresh", "client")
        controller.kill("d1")
        assert "d1" not in system.live_peers()
        notes = controller.join("d1")
        assert notes == ["rejoin d1"]
        assert "d1" in system.live_peers()


# ---------------------------------------------------------------------------
# admission routing around dead replica peers
# ---------------------------------------------------------------------------


class TestDeadReplicaRouting:
    def test_queue_depth_pick_skips_dead_member(self):
        system = fragmented_system(replicas=1)
        fragment = system.fragments.info("cat").fragments[0]
        # kill the peer the policy would otherwise prefer, WITHOUT
        # registry cleanup: the _live filter alone must route around it
        system.peers[fragment.home].alive = False
        member = system.registry.pick_document(
            fragment.generic, "client", system, QueueDepthPolicy()
        )
        assert member.peer != fragment.home
        assert system.peers[member.peer].alive

    def test_pick_raises_when_class_has_no_live_member(self):
        from repro.errors import GenericResolutionError

        system = fragmented_system(replicas=1)
        fragment = system.fragments.info("cat").fragments[0]
        for pid in fragment.peers:
            system.peers[pid].alive = False
        with pytest.raises(GenericResolutionError):
            system.registry.pick_document(
                fragment.generic, "client", system, QueueDepthPolicy()
            )

    def test_link_aware_pick_prefers_local_then_free_link(self):
        system = fragmented_system()
        AddReplica("cat", 0, "client").apply(system, now=0.0)
        members = system.registry.document_members("cat.f0")
        # local member wins outright, however deep the local queue is
        system.peer("client").enqueue_job()
        pick = LinkAwarePolicy().choose(members, "client", system)
        assert pick.peer == "client"
        # from elsewhere, the copy behind the idle link wins
        system.peer("client").dequeue_job()
        for link in system.network.route("d0", "d2"):
            link.busy_until = 9.9
        pick = LinkAwarePolicy().choose(members, "d2", system)
        assert pick.peer == "client"

    def test_queue_depth_mid_run_death_keeps_serving(self):
        system = fragmented_system(replicas=1, n=8)
        session = connect(system, fault_plan=crash_plan(0.0001, "d0"))
        requests = [
            JobRequest(QUERY, "client", {"d": "cat@dist"},
                       name=f"j{i}", arrival=i * 0.001)
            for i in range(6)
        ]
        baseline = connect(fragmented_system(replicas=1, n=8)).serve(
            [JobRequest(QUERY, "client", {"d": "cat@dist"},
                        name=f"j{i}", arrival=i * 0.001)
             for i in range(6)]
        )
        report = session.serve(requests)
        assert report.metrics.failed == 0
        assert {j.name: tuple(j.answers) for j in report.jobs} == {
            j.name: tuple(j.answers) for j in baseline.jobs
        }


# ---------------------------------------------------------------------------
# scheduler integration: the background actor on the virtual clock
# ---------------------------------------------------------------------------


class TestServingActor:
    def serve_once(self, replicas=0):
        system = fragmented_system(replicas=replicas, n=8)
        session = connect(system)
        actor = PlacementActor(
            interval=0.004,
            policy=ThresholdPolicy(hot_reads=1, hysteresis=1, cooldown=0,
                                   max_copies=2),
        )
        requests = [
            JobRequest(QUERY, "client", {"d": "cat@dist"},
                       name=f"j{i}", arrival=i * 0.003)
            for i in range(8)
        ]
        return session.serve(requests, seed=5, actor=actor)

    def test_actions_are_traced_and_deterministic(self):
        first = self.serve_once()
        second = self.serve_once()
        assert first.actions  # the actor really acted
        assert all(" " in a for a in first.actions)  # "<time> <note>"
        assert first.actions == second.actions
        assert first.metrics.makespan == second.metrics.makespan
        assert "placement actions:" in first.describe()

    def test_actor_actions_keep_answers_byte_identical(self):
        adaptive = self.serve_once()
        system = fragmented_system(n=8)
        static = connect(system).serve(
            [
                JobRequest(QUERY, "client", {"d": "cat@dist"},
                           name=f"j{i}", arrival=i * 0.003)
                for i in range(8)
            ],
            seed=5,
        )
        assert static.actions == []
        assert {j.name: tuple(j.answers) for j in adaptive.jobs} == {
            j.name: tuple(j.answers) for j in static.jobs
        }

    def test_kill_without_replicas_fails_typed_under_serving(self):
        system = fragmented_system(n=8)
        session = connect(system, fault_plan=crash_plan(0.004, "d1"))
        requests = [
            JobRequest(QUERY, "client", {"d": "cat@dist"},
                       name=f"j{i}", arrival=i * 0.004)
            for i in range(6)
        ]
        report = session.serve(requests)
        assert report.metrics.failed > 0
        for job in report.jobs:
            if job.status == FAILED:
                assert isinstance(job.error, FragmentUnavailableError)
        assert any("kill d1" in a for a in report.actions)

    def test_actor_interval_validation(self):
        with pytest.raises(ValueError):
            PlacementActor(interval=0.0)


# ---------------------------------------------------------------------------
# workload knobs: Zipf skew and the hotspot shift
# ---------------------------------------------------------------------------


def mini_scenario(skew=0.0):
    system = AXMLSystem.with_peers(["a", "b"])
    system.peer("a").install_document("doc", catalog_doc(2))
    queries = [
        GeneratedQuery(name=f"q{i}", shape="selection", source=QUERY,
                       at="a", bind=(("d", "doc@a"),))
        for i in range(4)
    ]
    spec = ScenarioSpec(peers=2, zipf_skew=skew)
    return Scenario(seed=0, index=0, spec=spec, topology="line",
                    system=system, documents=[], services=[],
                    queries=queries)


class TestWorkloadKnobs:
    def test_spec_validates_negative_skew(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec(zipf_skew=-1.0).validate()
        with pytest.raises(WorkloadError):
            LoadGenerator(mini_scenario(), skew=-0.5)

    def test_skew_zero_is_byte_identical_to_historical_draws(self):
        # skew 0 must take the exact rng.choice path the generator has
        # always used: same seed, same request stream, byte for byte
        plain = LoadGenerator(mini_scenario(), seed=3)
        knobbed = LoadGenerator(mini_scenario(skew=0.0), seed=3)
        a = plain.requests(24)
        b = knobbed.requests(24)
        assert [(r.name, r.source, r.arrival) for r in a] == [
            (r.name, r.source, r.arrival) for r in b
        ]

    def test_skew_concentrates_and_is_seeded(self):
        skewed = LoadGenerator(mini_scenario(skew=2.5), seed=3)
        counts = {}
        for request in skewed.requests(60):
            key = request.name.split("#")[0]
            counts[key] = counts.get(key, 0) + 1
        top = max(counts.values())
        assert top >= 30  # rank-1 dominates under heavy skew
        first = LoadGenerator(mini_scenario(skew=2.5), seed=9).requests(30)
        second = LoadGenerator(mini_scenario(skew=2.5), seed=9).requests(30)
        assert [(r.name, r.arrival) for r in first] == [
            (r.name, r.arrival) for r in second
        ]

    def test_shift_rotates_the_popularity_ranking(self):
        load = LoadGenerator(mini_scenario(skew=3.0), seed=1)
        requests = load.requests(40, shift_at=0.5)
        def base(r):
            return r.name.split("#")[0]
        pre = [base(r) for r in requests[:20]]
        post = [base(r) for r in requests[20:]]
        # heavy skew: the dominant query differs across the shift
        assert max(set(pre), key=pre.count) != max(set(post), key=post.count)

    def test_shift_validation(self):
        load = LoadGenerator(mini_scenario(), seed=1)
        with pytest.raises(WorkloadError):
            load.requests(10, shift_at=0.0)
        with pytest.raises(WorkloadError):
            load.requests(10, shift_at=1.5)


# ---------------------------------------------------------------------------
# adaptive against static placement, served through the engine
# ---------------------------------------------------------------------------

HOT_CLIENTS = ("c0", "c1", "c2", "c3")


def hot_scenario(skew):
    """Two catalogs fragmented over p0/p1, read from four clients over
    slow links by fast CPUs: fragment transfers dominate, so spreading
    copies over more links is what placement can buy."""
    system = AXMLSystem.with_peers(
        ["p0", "p1", *HOT_CLIENTS], latency=0.008, bandwidth=120_000.0
    )
    for peer in system.peers.values():
        peer.compute_speed = 400_000.0
    system.peer("p0").install_document("hotA", catalog_doc(48, payload=4))
    system.peer("p1").install_document("hotB", catalog_doc(48, payload=4))
    fragmenter = Fragmenter(system)
    fragmenter.fragment("hotA", "p0", ["p0", "p1"], keep_original=False)
    fragmenter.fragment("hotB", "p1", ["p1", "p0"], keep_original=False)
    mix = [
        ("q0", "hotA", "c0"), ("q1", "hotA", "c1"), ("q2", "hotB", "c2"),
        ("q3", "hotB", "c3"), ("q4", "hotA", "c2"), ("q5", "hotB", "c0"),
    ]
    queries = [
        GeneratedQuery(name=name, shape="selection", source=QUERY, at=at,
                       bind=(("d", f"{doc}@dist"),))
        for name, doc, at in mix
    ]
    spec = ScenarioSpec(peers=len(system.peers), zipf_skew=skew)
    return Scenario(seed=0, index=0, spec=spec, topology="full_mesh",
                    system=system, documents=[], services=[], queries=queries)


def serve_unoptimized(scenario, jobs, actor=None, shift_at=None, seed=7,
                      fault_plan=None):
    """A closed loop at concurrency 8 with link-aware admission.  Jobs
    run unoptimized, so two runs differ by placement only."""
    requests = LoadGenerator(scenario, seed=seed + 1).requests(
        jobs, label="closed", shift_at=shift_at
    )
    feed = ClosedLoopFeed([replace(r, optimize=False) for r in requests], 8)
    return connect(scenario.system, fault_plan=fault_plan).serve(
        feed=feed, seed=seed, admission="link-aware", actor=actor
    )


def answers_by_name(report):
    return {job.name: tuple(job.answers) for job in report.jobs}


class TestAdaptiveAgainstStatic:
    def test_hotspot_shift_adaptive_serves_half_again_faster(self):
        # a Zipf-skewed stream whose popularity ranking rotates halfway:
        # static placement serializes the hot reads through the two home
        # peers' links, the rebalancer spawns replicas on idle peers
        scenario = hot_scenario(skew=2.6)
        static = serve_unoptimized(scenario, 96, shift_at=0.5)
        actor = PlacementActor(
            interval=0.02,
            policy=ThresholdPolicy(hot_reads=2, hysteresis=2, cooldown=2,
                                   max_copies=5, cold_hysteresis=6),
        )
        adaptive = serve_unoptimized(scenario, 96, actor=actor, shift_at=0.5)
        assert static.metrics.failed == 0 and adaptive.metrics.failed == 0
        assert answers_by_name(adaptive) == answers_by_name(static)
        ratio = adaptive.metrics.queries_per_sec / static.metrics.queries_per_sec
        assert ratio >= 1.5, (ratio, adaptive.actions)

    def test_peer_kill_adaptive_completes_everything_static_fails_typed(self):
        scenario = hot_scenario(skew=0.0)
        reference = serve_unoptimized(scenario, 30)
        kill = crash_plan(0.1, "p1")
        static = serve_unoptimized(scenario, 30, fault_plan=kill)
        adaptive = serve_unoptimized(
            scenario, 30, fault_plan=kill, actor=PlacementActor(
                interval=0.02,
                policy=ThresholdPolicy(hot_reads=2, hysteresis=2, cooldown=2,
                                       max_copies=2),
            ),
        )
        # the adaptive run replicated under load before the kill, so
        # failover promotes a surviving copy of every fragment
        assert adaptive.metrics.failed == 0, adaptive.actions
        assert answers_by_name(adaptive) == answers_by_name(reference)
        # the static run loses the only copy: later queries fail, typed
        assert static.metrics.failed > 0
        for job in static.jobs:
            if job.error is not None:
                assert isinstance(job.error, FragmentUnavailableError), job.error
