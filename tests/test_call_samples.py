"""The analytic estimator prices service calls by running them.

Every call site whose inputs are known — the calls embedded in a stored
document or a tree literal, an explicit ``sc(...)`` over literals — is
evaluated once by the bare evaluator on a clone of Σ (a *call sample*),
so estimate and execution agree on definition (6) to the message.
"""

import pytest

from repro.axml.document import ServiceCall
from repro.core import (
    CostEstimator,
    DocDest,
    DocExpr,
    NodesDest,
    PeerDest,
    Plan,
    Send,
    ServiceCallExpr,
    TreeExpr,
    measure,
)
from repro.core import cost
from repro.core.serialize import expression_fingerprint
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.xmlcore import iter_elements, parse
from repro.writes import InsertOp


def priced(plan, system):
    """(estimate, measure), each as (bytes, messages)."""
    estimate = CostEstimator(system).estimate(plan)
    exact = measure(plan, system)
    return (estimate.bytes, estimate.messages), (exact.bytes, exact.messages)


@pytest.fixture()
def system():
    sys = AXMLSystem.with_peers(["a", "b", "c"])
    sys.peer("b").install_document("x", parse("<x><i>1</i><i>2</i></x>"))
    sys.peer("b").install_query_service("s", 'doc("x")//i')
    sys.peer("b").install_query_service("none", 'doc("x")//missing')
    sys.peer("b").install_query_service("echo", "$p//v", params=("p",))
    sys.peer("a").install_document(
        "ax", parse("<r><k>v</k><sc><peer>b</peer><service>s</service></sc></r>")
    )
    return sys


class TestCallSitesPricedAsExecuted:
    def test_a_call_returning_nothing_leaves_an_empty_results(self, system):
        # the evaluator splices in <results/>; the estimate ships it too
        system.peer("a").install_document(
            "ae", parse("<r><sc><peer>b</peer><service>none</service></sc></r>")
        )
        estimate, exact = priced(Plan(DocExpr("ae", "a"), "c"), system)
        assert estimate == exact

    def test_a_tree_literal_activates_its_calls(self, system):
        literal = parse("<r><sc><peer>b</peer><service>s</service></sc></r>")
        estimate, exact = priced(Plan(TreeExpr(literal, "a"), "c"), system)
        # the CALL, one RESULT per response item, the activated literal
        assert estimate == exact == (exact[0], 4)

    def test_an_explicit_call_over_remote_literals(self, system):
        call = ServiceCallExpr(
            "b", "echo", (TreeExpr(parse("<p><v>1</v><v>2</v></p>"), "a"),)
        )
        plan = Plan(call, "c")
        assert CostEstimator(system).estimate(plan) == measure(plan, system)

    @pytest.mark.parametrize("dest_kind", ["peer", "doc", "nodes"])
    def test_a_send_is_priced_as_the_evaluator_sends_it(self, system, dest_kind):
        targets = (
            system.peer("b").documents["x"].node_id,
            system.peer("c").install_document("y", parse("<y/>")).node_id,
        )
        dest = {
            "peer": PeerDest("c"),
            "doc": DocDest("n", "c"),
            "nodes": NodesDest(targets),
        }[dest_kind]
        payload = TreeExpr(parse("<p>1</p>"), "a")
        estimate, exact = priced(Plan(Send(dest, payload, via=("b",)), "a"), system)
        assert estimate == exact


AXML_SPEC = ScenarioSpec(axml_documents=3, services=3)


def call_sites(scenario):
    """(document, home, stored tree) of every stored document with calls."""
    for home, peer in sorted(scenario.system.peers.items()):
        for name, tree in sorted(peer.documents.items()):
            if tree.has_service_calls():
                yield name, home, tree


class TestGeneratedCallSites:
    """Over seeded generated AXML scenarios, the estimate of every call
    site read from every live site is the executed bytes and messages."""

    @pytest.mark.parametrize("index", range(4))
    def test_estimate_equals_measure_at_every_site(self, index):
        scenario = ScenarioGenerator(7, AXML_SPEC).scenario(index)
        system = scenario.system
        sites = list(call_sites(scenario))
        assert sites
        for name, home, tree in sites:
            calls = [
                ServiceCall.parse(node)
                for node in iter_elements(tree)
                if node.is_service_call()
            ]
            for site in system.live_peers():
                explicit = [
                    ServiceCallExpr(
                        call.provider,
                        call.service,
                        tuple(TreeExpr(p, home) for p in call.param_payloads()),
                        call.forwards,
                    )
                    for call in calls
                ]
                for expr in [DocExpr(name, home), TreeExpr(tree, home)] + explicit:
                    estimate, exact = priced(Plan(expr, site), system)
                    assert estimate == exact, (expr.describe(), site)


class TestSamplesPerCallSite:
    def test_one_sample_per_call_site_in_a_cold_session(self, monkeypatch):
        sampled = []

        class Counting(cost.ExpressionEvaluator):
            def eval(self, expr, at, ready_at=0.0, _depth=0):
                if _depth == 0:
                    sampled.append((expression_fingerprint(expr), at))
                return super().eval(expr, at, ready_at, _depth)

        # the analytic model measures no plan: every run is a call sample
        monkeypatch.setattr(cost, "ExpressionEvaluator", Counting)
        scenario = ScenarioGenerator(7, AXML_SPEC).scenario(0)
        # trace=True searches every time: nothing is served prepared
        session = Session(scenario.system, cost_model="analytic", trace=True)
        for q in scenario.queries:
            session.explain(q.source, q.at, q.bindings, q.name)
        first = list(sampled)
        for q in scenario.queries:
            session.explain(q.source, q.at, q.bindings, q.name)
        assert first, "no call site was sampled"
        assert len(set(first)) == len(first)
        assert sampled == first  # the second round re-used every sample
        # each one a stored document's activation, run at its home
        assert set(first) <= {
            (expression_fingerprint(DocExpr(name, home)), home)
            for name, home, _ in call_sites(scenario)
        }


class TestWritesReachCallers:
    def test_writing_what_a_called_service_reads_re_prices_the_caller(self, system):
        session = Session(system)
        plan = Plan(DocExpr("ax", "a"), "c")
        before = session.explain(plan).best_cost
        written = session.write(InsertOp("x", parse("<i>" + "z" * 2000 + "</i>")))
        after = session.explain(plan).best_cost
        assert after.bytes > before.bytes + 2000
        assert after == measure(plan, system)
        assert after == Session(system).explain(plan).best_cost
        assert "ax" in written.touched

    def test_documents_calling_elsewhere_keep_their_epoch(self, system):
        system.peer("b").install_document("other", parse("<o/>"))
        session = Session(system)
        session.write(InsertOp("other", parse("<i/>")))
        assert system.doc_epoch("ax") == 0
