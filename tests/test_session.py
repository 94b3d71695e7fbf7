"""Tests for the Session façade, ExecutionReport, and repro.connect."""

import inspect

import pytest

import repro
from repro import ExecutionReport, Session, connect
from repro.core import (
    DocDest,
    DocExpr,
    ExpressionEvaluator,
    GenericDoc,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    SearchSpace,
    Send,
)
from repro.engine import JobRequest
from repro.errors import OptimizerError, SessionError, UnknownPeerError
from repro.peers import AXMLSystem
from repro.writes import DeleteOp, UpdateOp
from repro.xmlcore import parse, serialize
from repro.xmlcore.canon import canonical_form
from repro.xquery import Query

QUICKSTART_QUERY = (
    "for $i in $d//item where $i/price > 75 "
    "return <expensive>{$i/name/text()}</expensive>"
)


def catalog(n=80):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>item-{i}</name><price>{i}</price>"
            f"<desc>{'pad ' * 8}</desc></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


@pytest.fixture()
def system():
    # slow network so data shipping dominates and optimization matters
    sys = AXMLSystem.with_peers(
        ["laptop", "server", "helper"], bandwidth=50_000.0, latency=0.02
    )
    sys.peer("server").install_document("catalog", catalog())
    return sys


def naive_plan(system):
    q = Query(QUICKSTART_QUERY, params=("d",), name="expensive-items")
    return Plan(
        QueryApply(QueryRef(q, "laptop"), (DocExpr("catalog", "server"),)),
        "laptop",
    )


def legacy_answers(system):
    """The hand-wired path the façade replaces: evaluate the naive plan."""
    plan = naive_plan(system)
    outcome = ExpressionEvaluator(system.clone()).eval(plan.expr, plan.site)
    return sorted(repr(canonical_form(item)) for item in outcome.items)


class TestAcceptance:
    """The issue's acceptance criterion, strategy by strategy."""

    @pytest.mark.parametrize("strategy", ["beam", "greedy", "exhaustive"])
    def test_answers_match_legacy_evaluator(self, system, strategy):
        report = connect(system, strategy=strategy, verify=True).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert isinstance(report, ExecutionReport)
        got = sorted(repr(canonical_form(item)) for item in report.items)
        assert got == legacy_answers(system)
        assert report.verification is not None and report.verification.equivalent
        assert report.best_cost.scalar() <= report.original_cost.scalar()


class TestSessionQuery:
    def test_report_structure(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"},
            name="expensive-items",
        )
        assert report.executed
        assert report.name == "expensive-items"
        assert report.source == QUICKSTART_QUERY
        assert report.strategy == "beam"
        assert report.explored >= 1
        assert report.completed_at > 0
        assert report.improvement >= 1.0
        assert len(report.items) == 4
        assert all("<expensive>" in answer for answer in report.answers)

    def test_queries_in_a_loop_answer_as_alone(self, system):
        session = connect(system)
        sources = (QUICKSTART_QUERY, "for $i in $d//item return $i/name")
        looped = [
            session.query(source, at="laptop", bind={"d": "catalog@server"})
            for source in sources
        ]
        assert [len(report.items) for report in looped] == [4, 80]
        for source, report in zip(sources, looped):
            alone = connect(system).query(
                source, at="laptop", bind={"d": "catalog@server"}
            )
            assert report.answers == alone.answers

    def test_optimizer_beats_naive_on_slow_network(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert report.best_cost.bytes < report.original_cost.bytes

    def test_per_peer_stats_cover_all_peers(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert set(report.peers) == {"laptop", "server", "helper"}
        server = report.peers["server"]["traffic"]
        assert server.sent_bytes > 0
        assert report.network["bytes"] > 0
        assert report.network["messages"] >= 1

    def test_session_does_not_mutate_system(self, system):
        before = system.snapshot()
        connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert system.snapshot() == before
        assert system.network.stats.messages == 0

    def test_trace_off_by_default(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert report.trace == []

    def test_trace_recorded_when_asked(self, system):
        report = connect(system, trace=True).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert len(report.trace) + len(report.pruned) == report.explored
        rules = {rule for _, _, rule in report.trace}
        assert "original" in rules

    def test_decomposition_recorded(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert report.decomposition is not None
        assert report.decomposition.inner.params == ("d",)

    def test_undecomposable_query_reports_none(self, system):
        report = connect(system).query(
            "for $i in $d//item return $i/name",  # no where clause
            at="laptop", bind={"d": "catalog@server"},
        )
        assert report.decomposition is None
        assert report.executed

    def test_optimize_off_keeps_naive_plan(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"},
            optimize=False,
        )
        assert report.strategy == "none"
        assert report.plan.describe() == report.original.describe()
        assert report.explored == 1

    def test_verify_false_skips_verification(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert report.verification is None


class TestBindings:
    def test_tuple_binding(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": ("catalog", "server")}
        )
        assert len(report.items) == 4

    def test_element_binding_is_local_tree(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": catalog(80)}
        )
        assert len(report.items) == 4
        # data already at the evaluation site: nothing to optimize away
        assert report.original_cost.bytes == 0

    def test_expression_binding(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop",
            bind={"d": DocExpr("catalog", "server")},
        )
        assert len(report.items) == 4

    def test_generic_binding(self, system):
        system.registry.register_document("cat-any", "catalog", "server")
        plan = connect(system).plan(
            Query(QUICKSTART_QUERY, params=("d",)), "laptop",
            bind={"d": "cat-any@any"},
        )
        assert isinstance(plan.expr.args[0], GenericDoc)

    def test_missing_binding_rejected(self, system):
        with pytest.raises(SessionError, match="no binding"):
            connect(system).query(
                "declare variable $d external; count($d//item)", at="laptop"
            )

    def test_prebuilt_query_with_implicit_free_variable(self, system):
        # a Query instance that never declared $d still gets its binding
        # wired in as an argument (not silently dropped)
        query = Query(QUICKSTART_QUERY, name="implicit")
        assert "d" not in query.params
        report = connect(system).query(
            query, at="laptop", bind={"d": "catalog@server"}
        )
        assert len(report.items) == 4

    def test_missing_binding_for_undeclared_free_variable(self, system):
        # $d is never declared external — the free-variable analysis must
        # still demand a binding instead of failing deep in evaluation
        with pytest.raises(SessionError, match=r"no binding.*'d'"):
            connect(system).query(
                "for $i in $d//item return $i", at="laptop"
            )

    def test_malformed_binding_rejected(self, system):
        with pytest.raises(SessionError, match="cannot bind"):
            connect(system).query(
                QUICKSTART_QUERY, at="laptop", bind={"d": "catalog"}
            )

    def test_unknown_site_rejected(self, system):
        with pytest.raises(UnknownPeerError):
            connect(system).query(
                QUICKSTART_QUERY, at="phone", bind={"d": "catalog@server"}
            )

    def test_unknown_doc_peer_rejected(self, system):
        with pytest.raises(UnknownPeerError):
            connect(system).query(
                QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@nowhere"}
            )


class TestRunAndExplain:
    def test_run_prebuilt_plan(self, system):
        report = connect(system).run(naive_plan(system))
        assert report.executed
        assert report.source is None
        assert len(report.items) == 4

    def test_explain_does_not_execute(self, system):
        report = connect(system).explain(naive_plan(system))
        assert not report.executed
        assert report.items == []
        assert report.network == {}
        assert report.best_cost.scalar() <= report.original_cost.scalar()

    def test_explain_from_source(self, system):
        report = connect(system).explain(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert not report.executed
        assert report.source == QUICKSTART_QUERY

    def test_explain_source_needs_site(self, system):
        with pytest.raises(SessionError, match="at"):
            connect(system).explain(QUICKSTART_QUERY)

    def test_run_side_effect_plan_isolated_by_default(self, system):
        send_plan = Plan(
            Send(DocDest("copy", "helper"), DocExpr("catalog", "server")),
            "server",
        )
        report = connect(system).run(send_plan, optimize=False)
        assert report.executed
        assert not system.peer("helper").has_document("copy")  # Σ untouched

    def test_write_is_the_one_operation_on_the_live_system(self, system):
        session = connect(system)
        session.write(UpdateOp("catalog", 0, "price", "99"))
        report = session.query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert "item-0" in "".join(report.answers)
        assert "<price>99</price>" in serialize(
            system.peer("server").document("catalog").children[0]
        )

    def test_runs_leave_the_live_network_idle(self, system):
        report = connect(system).run(naive_plan(system), optimize=False)
        assert report.executed and report.network["bytes"] > 0
        # the run's traffic went over a clone's links
        assert system.network.stats.bytes == 0

    def test_isolated_runs_of_one_plan_measure_from_the_same_baseline(self, system):
        session = connect(system)
        first = session.run(naive_plan(system))
        second = session.run(naive_plan(system))
        assert first.executed and second.executed
        assert first.completed_at == pytest.approx(second.completed_at)
        assert first.network["bytes"] == second.network["bytes"]

    def test_consecutive_runs_leave_the_live_accounting_at_zero(self, system):
        session = connect(system)
        session.run(naive_plan(system))
        session.run(naive_plan(system))
        assert system.network.stats.messages == 0
        assert system.clock == 0.0
        assert all(p.busy_until == 0.0 for p in system.peers.values())
        assert all(p.work_done == 0 for p in system.peers.values())


class TestSignature:
    def test_session_takes_ten_keywords(self):
        params = inspect.signature(Session.__init__).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert keywords == {
            "strategy", "verify", "trace", "tracer", "rules", "cost_model",
            "pick_policy", "plan_cache", "retry", "fault_plan",
        }

    def test_planner_takes_no_switch_only_tests_set(self):
        # the space checks candidates exactly when it has a verifier, and
        # keeps its own metrics registry (the optimizer's is the space's)
        def names(function):
            params = inspect.signature(function).parameters
            return set(params) - {"self"}

        assert names(Optimizer.__init__) == {
            "system", "rules", "verifier", "cache", "cost_model", "pick_policy",
        }
        assert names(SearchSpace.__init__) == {
            "system", "rules", "verifier", "cache", "cost_model",
        }
        assert names(Optimizer.optimize_with) == {"strategy", "plan", "options"}

    def test_session_has_one_method_per_operation(self):
        public = {name for name in vars(Session) if not name.startswith("_")}
        assert public == {
            "compile", "plan", "query", "run", "explain", "write", "serve",
            "plan_job",
        }


class TestDescribe:
    def test_describe_is_the_pretty_printer(self, system):
        report = connect(system, verify=True, trace=True).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"},
            name="expensive-items",
        )
        text = report.describe()
        assert "expensive-items" in text
        assert "original:" in text and "plan:" in text
        assert "improvement:" in text
        assert "equivalent?  True" in text
        assert "peer laptop" in text and "peer server" in text
        assert "trace:" in text

    def test_describe_without_trace(self, system):
        report = connect(system).query(
            QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"}
        )
        assert "trace:" not in report.describe()

    def test_describe_unexecuted(self, system):
        text = connect(system).explain(naive_plan(system)).describe()
        assert "answers:" not in text


class TestConnect:
    def test_connect_builds_system_from_peers(self):
        session = connect(peers=["a", "b"])
        assert isinstance(session, Session)
        assert sorted(session.system.peers) == ["a", "b"]

    def test_connect_requires_something(self):
        with pytest.raises(SessionError):
            connect()

    def test_connect_rejects_both(self, system):
        with pytest.raises(SessionError):
            connect(system, peers=["a"])

    def test_connect_unknown_strategy(self, system):
        with pytest.raises(OptimizerError, match="unknown optimizer strategy"):
            connect(system, strategy="quantum")

    def test_top_level_exports(self):
        assert repro.connect is connect
        assert repro.Session is Session
        assert repro.ExecutionReport is ExecutionReport


class TestLiveSystem:
    def test_reads_keep_the_live_documents(self, system):
        before = system.snapshot()
        session = connect(system)
        session.run(
            Plan(
                Send(DocDest("copy", "helper"), DocExpr("catalog", "server")),
                "server",
            ),
            optimize=False,
        )
        session.query(QUICKSTART_QUERY, at="laptop", bind={"d": "catalog@server"})
        session.serve(
            [JobRequest(QUICKSTART_QUERY, "laptop", bind={"d": "catalog@server"})]
        )
        assert system.snapshot() == before

    def test_a_write_changes_only_its_document(self, system):
        system.peer("helper").install_document("notes", parse("<n><x>1</x></n>"))
        notes = serialize(system.peer("helper").document("notes"))
        connect(system).write(DeleteOp("catalog", 0))
        assert len(system.peer("server").document("catalog").children) == 79
        assert serialize(system.peer("helper").document("notes")) == notes
