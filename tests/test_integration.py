"""Integration tests: whole-stack scenarios combining all subsystems.

These mirror the paper's motivating use cases: distributed query
evaluation with optimization, AXML documents driving service calls whose
results feed further queries, replicated generic documents, continuous
streams, and an end-to-end miniature of the eDos software-distribution
application from the extended version of the paper.
"""

import pytest

from repro.axml import (
    IncrementalQuery,
    StreamChannel,
    make_service_call,
)
from repro.core import (
    DocDest,
    DocExpr,
    EvalAt,
    ExpressionEvaluator,
    GenericDoc,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    Send,
    ServiceCallExpr,
    check_equivalence,
    measure,
)
from repro.peers import AXMLSystem, NearestPolicy
from repro.xmlcore import element, parse, serialize
from repro.xquery import Query


def make_catalog(n, seed_tag="item"):
    return parse(
        "<catalog>"
        + "".join(
            f"<{seed_tag}><name>pkg-{i}</name><version>{i % 7}</version>"
            f"<size>{(i * 37) % 1000}</size></{seed_tag}>"
            for i in range(n)
        )
        + "</catalog>"
    )


class TestDistributedQueryPipeline:
    """Example 1 of the paper, run end to end through the optimizer."""

    def test_optimized_plan_same_answer_fewer_bytes(self):
        system = AXMLSystem.with_peers(
            ["laptop", "server"], bandwidth=100_000.0
        )
        system.peer("server").install_document("cat", make_catalog(150))
        q = Query(
            "for $p in $d//item where $p/size > 900 "
            "return <big>{$p/name/text()}</big>",
            params=("d",),
            name="bigpkgs",
        )
        plan = Plan(
            QueryApply(QueryRef(q, "laptop"), (DocExpr("cat", "server"),)),
            "laptop",
        )
        naive_cost = measure(plan, system)
        result = Optimizer(system).optimize_with("beam", plan, depth=2, beam=6)
        assert result.best_cost.bytes < naive_cost.bytes / 2
        assert check_equivalence(plan, result.best, system).equivalent

        # and the optimized plan actually produces the right names
        evaluator = ExpressionEvaluator(system.clone())
        outcome = evaluator.eval(result.best.expr, result.best.site)
        names = sorted(i.string_value() for i in outcome.items)
        expected = sorted(
            f"pkg-{i}" for i in range(150) if (i * 37) % 1000 > 900
        )
        assert names == expected


class TestAXMLFeedsAlgebra:
    """An AXML document activates as it is evaluated, then gets queried."""

    def test_activation_then_query(self):
        system = AXMLSystem.with_peers(["portal", "newsdesk"])
        system.peer("newsdesk").install_query_service(
            "headlines",
            "<story><title>breaking</title></story>",
        )
        root = element("newspage", make_service_call("newsdesk", "headlines"))
        system.peer("portal").install_document("page", root)

        # the query's argument d@p activates the page (definition (1))
        q = Query("count($p//story)", params=("p",), name="nstories")
        evaluator = ExpressionEvaluator(system)
        outcome = evaluator.eval(
            QueryApply(QueryRef(q, "portal"), (DocExpr("page", "portal"),)),
            "portal",
        )
        assert outcome.items[0].string_value() == "1"
        assert serialize(system.peer("portal").document("page")) == (
            "<newspage><story><title>breaking</title></story></newspage>"
        )


class TestGenericReplicas:
    def test_nearest_mirror_serves_query(self):
        system = AXMLSystem.with_peers(["client", "mirror-eu", "mirror-us"])
        # client is close to mirror-eu
        system.network.add_link("client", "mirror-us", latency=0.5)
        catalog = make_catalog(30)
        system.peer("mirror-eu").install_document("cat-eu", catalog.copy())
        system.peer("mirror-us").install_document("cat-us", catalog.copy())
        system.registry.register_document("catalog", "cat-us", "mirror-us")
        system.registry.register_document("catalog", "cat-eu", "mirror-eu")
        assert system.registry.check_document_equivalence("catalog", system)

        evaluator = ExpressionEvaluator(system, NearestPolicy())
        outcome = evaluator.eval(GenericDoc("catalog"), "client")
        assert outcome.items[0].tag == "catalog"
        assert outcome.completed_at < 0.5  # did not touch the far mirror


class TestContinuousPipeline:
    def test_stream_to_incremental_query_to_forward(self):
        system = AXMLSystem.with_peers(["sensor", "monitor", "dashboard"])
        # dashboard document accumulating alerts
        alerts = element("alerts")
        system.peer("dashboard").install_document("alerts", alerts)
        # monitor accumulates raw readings
        readings = element("readings")
        system.peer("monitor").install_document("readings", readings)

        channel = StreamChannel("temps", "sensor", system)
        channel.subscribe(readings.node_id)

        alert_query = IncrementalQuery(
            Query(
                "for $r in $in where number($r/c) > 30 "
                "return <alert>{$r/c/text()}</alert>",
                params=("in",),
            )
        )
        evaluator = ExpressionEvaluator(system)
        for temp in (12, 31, 28, 44):
            tree = parse(f"<reading><c>{temp}</c></reading>")
            channel.emit(tree)
            for alert in alert_query.push(tree):
                evaluator.eval(
                    Send(
                        __import__("repro.core", fromlist=["NodesDest"]).NodesDest(
                            (alerts.node_id,)
                        ),
                        __import__("repro.core", fromlist=["TreeExpr"]).TreeExpr(
                            alert, "monitor"
                        ),
                    ),
                    "monitor",
                )
        assert len(readings.element_children) == 4
        assert [a.string_value() for a in alerts.element_children] == ["31", "44"]


class TestEDosMiniature:
    """A miniature of the software-distribution application ([4] / TR-436):
    package catalog replicated on mirrors, clients resolve dependencies
    with a pushed-selection query, updates flow as a continuous stream."""

    def _build(self):
        system = AXMLSystem.with_peers(
            ["hub", "mirror-1", "mirror-2", "alice", "bob"],
            bandwidth=200_000.0,
        )
        catalog = make_catalog(100)
        for mirror in ("mirror-1", "mirror-2"):
            system.peer(mirror).install_document("packages", catalog.copy())
            system.registry.register_document("packages", "packages", mirror)
        return system

    def test_client_resolution_via_generic_catalog(self):
        system = self._build()
        q = Query(
            "for $p in $d//item where $p/version = 3 "
            "return <need>{$p/name/text()}</need>",
            params=("d",),
            name="deps",
        )
        plan = Plan(
            QueryApply(QueryRef(q, "alice"), (GenericDoc("packages"),)),
            "alice",
        )
        evaluator = ExpressionEvaluator(system, NearestPolicy())
        outcome = evaluator.eval(plan.expr, plan.site)
        assert all(i.tag == "need" for i in outcome.items)
        assert len(outcome.items) == len([i for i in range(100) if i % 7 == 3])

    def test_update_feed_keeps_mirrors_equivalent(self):
        system = self._build()
        feeds = []
        for mirror in ("mirror-1", "mirror-2"):
            target = system.peer(mirror).document("packages")
            channel_target = target.node_id
            feeds.append(channel_target)
        channel = StreamChannel("updates", "hub", system)
        for target in feeds:
            channel.subscribe(target)
        channel.emit(parse(
            "<item><name>pkg-new</name><version>9</version><size>1</size></item>"
        ))
        assert system.registry.check_document_equivalence("packages", system)
        assert all(
            len(system.peer(m).document("packages").element_children) == 101
            for m in ("mirror-1", "mirror-2")
        )

    def test_full_cycle_with_service_call(self):
        system = self._build()
        system.peer("mirror-1").install_query_service(
            "resolve",
            "declare variable $want external; "
            '<resolved>{for $p in doc("packages")//item '
            "where $p/name = $want/name return $p}</resolved>",
            params=("want",),
        )
        want = parse("<want><name>pkg-42</name></want>")
        sc = ServiceCallExpr(
            "mirror-1",
            "resolve",
            (  # ship the request tree from alice
                __import__("repro.core", fromlist=["TreeExpr"]).TreeExpr(
                    want, "alice"
                ),
            ),
        )
        outcome = ExpressionEvaluator(system).eval(sc, "alice")
        (resolved,) = outcome.items
        assert resolved.element_children[0].child_by_tag("name").string_value() == "pkg-42"
