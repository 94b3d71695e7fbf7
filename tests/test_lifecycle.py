"""The one job lifecycle: ``Session.query`` and ``Session.serve`` share it.

Both entry points plan through ``Session._plan_report`` and execute
through ``Session._run_report``; these tests pin what that sharing
promises — a lone query and a one-job serving run are the same job, the
tracer sees served jobs exactly as it sees queries, and
equivalence verdicts are never replayed across jobs that merely *print*
alike.
"""

import pytest

import repro.session as session_module
from repro import connect
from repro.axml import make_service_call
from repro.core.expressions import TreeExpr
from repro.engine import JobRequest, Scheduler
from repro.errors import SessionError
from repro.obs import CAT_EVAL, Tracer
from repro.peers import AXMLSystem, NativeService
from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.writes import InsertOp
from repro.xmlcore import element, parse

SPEC = ScenarioSpec(
    peers=5, topology="mesh", documents=3, axml_documents=1,
    items=12, services=2, replicas=2, queries=5,
)

FILTER_QUERY = "for $i in $d//i where $i/p > 37 return $i/p"


def catalog(start=0, count=40):
    return parse(
        "<c>"
        + "".join(f"<i><p>{n}</p></i>" for n in range(start, start + count))
        + "</c>"
    )


def slow_pair():
    return AXMLSystem.with_peers(["laptop", "server"], bandwidth=50_000.0)


def eval_subtree(root):
    (span,) = [child for child in root.children if child.cat == CAT_EVAL]
    return [(s.name, s.cat, s.start, s.end) for s in span.walk()]


class TestQueryServeParity:
    def test_lone_query_equals_one_job_serving_run(self):
        scenario = ScenarioGenerator(seed=7, spec=SPEC).scenario(0)
        for query in scenario.queries:
            solo_tracer, served_tracer = Tracer(), Tracer()
            solo = Session(scenario.system.clone(), tracer=solo_tracer).query(
                **query.kwargs()
            )
            served = Session(
                scenario.system.clone(), tracer=served_tracer
            ).serve([JobRequest(**query.kwargs())], admission=None)
            (job,) = served.jobs
            assert job.error is None
            assert job.answers == solo.answers
            assert job.report.completed_at == solo.completed_at
            assert job.report.best_cost == solo.best_cost
            assert job.report.explored == solo.explored
            (solo_root,) = solo.spans.jobs.values()
            (served_root,) = served.trace.jobs.values()
            assert eval_subtree(served_root) == eval_subtree(solo_root)


class _Crash(BaseException):
    """Not an ``Exception``: nothing in the evaluator may swallow it."""


class TestFailureBracket:
    def test_untyped_crash_mid_serve_closes_the_span_tree(self):
        system = slow_pair()

        def crash_on_serving_system(params, peer):
            # planning measures candidates on clones of its own; only the
            # serving clone's peer is the buggy one
            serving = scheduler._target
            if serving is not None and peer is serving.peer("server"):
                raise _Crash("implementation bug")
            return [element("ok")]

        system.peer("server").install_service(
            NativeService("flaky", crash_on_serving_system)
        )
        system.peer("laptop").install_document(
            "d", element("doc", make_service_call("server", "flaky"))
        )
        tracer = Tracer()
        scheduler = Scheduler(connect(system, tracer=tracer))
        job = scheduler.submit(JobRequest(
            "for $x in $d/* return $x", at="laptop", bind={"d": "d@laptop"},
            name="crashing",
        ))
        with pytest.raises(_Crash):
            scheduler.drain()
        with pytest.raises(SessionError):  # the crashed drain closed it
            scheduler.drain()
        root = tracer.jobs[job.name]
        assert root.attrs["status"] == "failed"
        assert root.attrs["error"] == "_Crash"
        # a closed tree: the next job would open its own root, not nest
        assert tracer.begin_job("next", 0.0) is tracer.jobs["next"]
        assert tracer.jobs["next"] not in list(root.walk())

    def test_untyped_crash_mid_planning_closes_the_span_tree(self):
        system = slow_pair()

        def crash(params, peer):
            raise _Crash("implementation bug")

        # the oracle's measure runs the call on a clone: planning crashes
        system.peer("server").install_service(NativeService("flaky", crash))
        system.peer("laptop").install_document(
            "d", element("doc", make_service_call("server", "flaky"))
        )
        tracer = Tracer()
        scheduler = Scheduler(connect(system, tracer=tracer))
        job = scheduler.submit(JobRequest(
            "for $x in $d/* return $x", at="laptop", bind={"d": "d@laptop"},
            name="crashing",
        ))
        with pytest.raises(_Crash):
            scheduler.drain()
        root = tracer.jobs[job.name]
        assert root.attrs == {"site": "laptop", "status": "failed", "error": "_Crash"}
        assert root.children == []
        assert tracer.begin_job("next", 0.0) is tracer.jobs["next"]
        assert tracer.jobs["next"] not in list(root.walk())

    def test_planning_failure_leaves_a_closed_failed_root(self):
        system = slow_pair()
        system.peer("server").install_document("cat", catalog(0))
        tracer = Tracer()
        report = Session(system, tracer=tracer).serve(
            [
                # planning raises: the binding names a peer nobody has
                JobRequest(FILTER_QUERY, "laptop", bind={"d": "cat@nowhere"},
                           name="unplannable"),
                JobRequest(FILTER_QUERY, "laptop", bind={"d": "cat@server"},
                           name="next", arrival=0.01),
            ]
        )
        failed, served = report.jobs
        assert failed.report is None and failed.error is not None
        assert served.error is None
        root = report.trace.jobs["unplannable"]
        assert root.attrs == {
            "site": "laptop",
            "status": "failed",
            "error": type(failed.error).__name__,
        }
        assert root.children == []
        assert (root.start, root.end) == (0.0, 0.0)
        following = report.trace.jobs["next"]
        assert following.attrs["status"] == "done"
        assert following not in list(root.walk())


class TestVerdictKeys:
    """Equivalence verdicts are keyed by content, never by how a plan prints."""

    @pytest.fixture()
    def count_checks(self, monkeypatch):
        calls = []
        real = session_module.check_equivalence

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "check_equivalence", counting)
        return calls

    def test_same_named_jobs_over_different_literals_both_verify(
        self, count_checks
    ):
        session = connect(slow_pair(), verify=True)
        solo = connect(slow_pair(), verify=True)
        solo.query(
            FILTER_QUERY, at="laptop",
            bind={"d": TreeExpr(catalog(0), "server")}, name="same",
        )
        per_job = len(count_checks)
        assert per_job > 0
        count_checks.clear()
        # same root tag, same printed plan (``tree(<c>)@server``), other data
        report = session.serve(
            [
                JobRequest(
                    FILTER_QUERY, "laptop",
                    bind={"d": TreeExpr(catalog(start), "server")},
                    name="same", arrival=k * 0.01,
                )
                for k, start in enumerate((0, 30))
            ]
        )
        assert [len(job.answers) for job in report.jobs] == [2, 32]
        assert len(count_checks) == 2 * per_job

    def test_a_write_between_two_serves_invalidates_verdicts(
        self, count_checks
    ):
        system = slow_pair()
        system.peer("server").install_document("cat", catalog(0))
        session = connect(system, verify=True)
        read = JobRequest(
            FILTER_QUERY, "laptop", bind={"d": "cat@server"}, name="read"
        )
        (first,) = session.serve([read]).jobs
        session.write(InsertOp("cat", parse("<i><p>99</p></i>"), None))
        (second,) = session.serve([read]).jobs
        assert len(second.answers) == len(first.answers) + 1
        assert len(count_checks) % 2 == 0 and count_checks
        half = len(count_checks) // 2
        # the second read re-verified everything the first one did
        assert [
            (a.describe(), b.describe()) for a, b in count_checks[:half]
        ] == [(a.describe(), b.describe()) for a, b in count_checks[half:]]
