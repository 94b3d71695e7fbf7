"""Peer churn: scripted crashes and rejoins (repro.faults.ChurnController).

Covers the typed ``FragmentUnavailableError`` contract (direct queries
and the serving path), writes under churn, kill/join with catalog
failover, admission routing around dead replica peers, and a fault
plan's crash applied mid-serve.
"""

import pytest

from repro import connect
from repro.dist import Fragmenter
from repro.engine import JobRequest
from repro.engine.jobs import FAILED
from repro.errors import FragmentUnavailableError, PeerDownError
from repro.faults import PEER_CRASH, ChurnController, FaultEvent, FaultPlan
from repro.peers import AXMLSystem
from repro.peers.registry import QueueDepthPolicy
from repro.xmlcore import parse
from repro.writes import UpdateOp

QUERY = "for $i in $d//item where $i/price >= 0 return $i/name"


def crash_plan(at, peer):
    """A session fault plan whose one event kills ``peer`` at ``at``."""
    return FaultPlan(events=(FaultEvent(PEER_CRASH, at, peer=peer),))


def catalog_doc(n=12):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price></item>"
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
# typed unavailability
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
        connect(reference).write(UpdateOp("cat", 5, "price", "9999"))
        expected = query_answers(reference)

        system = fragmented_system(replicas=1)
        ChurnController(system).kill("d1")
        result = connect(system).write(UpdateOp("cat", 5, "price", "9999"))
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
            session.write(UpdateOp("cat", 5, "price", "9999"))
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
            connect(system).write(UpdateOp("plain", 1, "price", "7"))


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
# a fault plan's crash under serving
# ---------------------------------------------------------------------------


class TestServingCrash:
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

    def test_a_scripted_crash_changes_only_the_serving_clone(self):
        system = fragmented_system(n=8)
        before = (system.snapshot(), system.fragments.describe())
        session = connect(system, fault_plan=crash_plan(0.004, "d1"))
        report = session.serve([
            JobRequest(QUERY, "client", {"d": "cat@dist"}, name="j0"),
            JobRequest(QUERY, "client", {"d": "cat@dist"}, name="j1",
                       arrival=0.01),
        ])
        assert any("kill d1" in a for a in report.actions)
        assert system.peer("d1").alive
        assert (system.snapshot(), system.fragments.describe()) == before
        # the live Σ still answers every fragment
        assert len(query_answers(system)) == 8
