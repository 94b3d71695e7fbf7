"""Unit tests for the definitional evaluator (definitions (1)-(9))."""

import pytest

import repro
from repro.axml import make_service_call
from repro.core import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    ExpressionEvaluator,
    GenericDoc,
    NodesDest,
    PeerDest,
    Plan,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from repro.core.cost import measure
from repro.core.planspace import CacheStats
from repro.errors import (
    ActivationCycleError,
    EvaluationUndefinedError,
    ExpressionError,
    ServiceCallError,
)
from repro.peers.service import DeclarativeService, QueryMemo
from repro.net import MessageKind
from repro.peers import AXMLSystem, NearestPolicy
from repro.xmlcore import Element, NodeId, element, equivalent, parse, serialize
from repro.xquery import Query


@pytest.fixture()
def system():
    sys = AXMLSystem.with_peers(["p0", "p1", "p2"])
    sys.peer("p1").install_document(
        "cat",
        parse(
            "<catalog>"
            + "".join(
                f"<item><name>n{i}</name><price>{i}</price></item>"
                for i in range(10)
            )
            + "</catalog>"
        ),
    )
    sys.peer("p1").install_query_service(
        "pick",
        "declare variable $d external; "
        "<picked>{for $i in $d//item where $i/price > 7 return $i}</picked>",
        params=("d",),
    )
    return sys


@pytest.fixture()
def evaluator(system):
    return ExpressionEvaluator(system)


class TestDefinition1And5Trees:
    def test_plain_tree_at_home_is_identity(self, evaluator, monkeypatch):
        copies = []
        original = Element.copy
        monkeypatch.setattr(
            Element, "copy", lambda self: copies.append(self) or original(self)
        )
        tree = parse("<a><b>1</b></a>")
        outcome = evaluator.eval(TreeExpr(tree, "p0"), "p0")
        # by reference: the tree itself, frozen so no holder can edit it
        assert outcome.items == [tree] and outcome.items[0] is tree
        assert tree.frozen and copies == []

    def test_remote_tree_shipped(self, evaluator, system):
        tree = parse("<payload>" + "x" * 500 + "</payload>")
        outcome = evaluator.eval(TreeExpr(tree, "p1"), "p0")
        assert equivalent(outcome.items[0], tree)
        assert system.network.stats.by_kind[MessageKind.DATA] == 1
        assert outcome.completed_at > 0

    def test_local_tree_costs_nothing_on_network(self, evaluator, system):
        evaluator.eval(TreeExpr(parse("<a/>"), "p0"), "p0")
        assert system.network.stats.messages == 0

    def test_embedded_sc_activated(self, evaluator, system):
        system.peer("p2").install_query_service("mk", "<made>yes</made>")
        tree = element("doc", make_service_call("p2", "mk"))
        outcome = evaluator.eval(TreeExpr(tree, "p0"), "p0")
        (result,) = outcome.items
        assert result.child_by_tag("made").string_value() == "yes"
        assert result.child_by_tag("sc") is None  # fixpoint is a data tree

    def test_embedded_sc_with_forwards_leaves_empty(self, evaluator, system):
        inbox = element("inbox")
        system.peer("p2").install_document("acc", inbox)
        system.peer("p2").install_query_service("mk", "<made>yes</made>")
        tree = element(
            "doc",
            make_service_call("p2", "mk", forwards=[inbox.node_id]),
        )
        outcome = evaluator.eval(TreeExpr(tree, "p0"), "p0")
        (result,) = outcome.items
        assert result.children == []  # sc vanished, result went elsewhere
        assert inbox.child_by_tag("made") is not None
        assert inbox.node_id in outcome.delivered


class TestDocuments:
    def test_doc_at_home(self, evaluator, system):
        outcome = evaluator.eval(DocExpr("cat", "p1"), "p1")
        assert outcome.items[0].tag == "catalog"

    def test_doc_shipped_to_site(self, evaluator, system):
        outcome = evaluator.eval(DocExpr("cat", "p1"), "p0")
        assert outcome.items[0].tag == "catalog"
        assert system.network.stats.bytes > 300

    def test_activation_persists_in_document(self, evaluator, system):
        system.peer("p2").install_query_service("mk", "<made>1</made>")
        root = element("d", make_service_call("p2", "mk"))
        system.peer("p0").install_document("axml", root)
        evaluator.eval(DocExpr("axml", "p0"), "p0")
        stored = system.peer("p0").document("axml")
        assert stored.child_by_tag("made") is not None

    def test_generic_doc_resolved(self, evaluator, system):
        system.registry.register_document("mirror", "cat", "p1")
        outcome = evaluator.eval(GenericDoc("mirror"), "p0")
        assert outcome.items[0].tag == "catalog"

    def test_generic_doc_nearest_policy(self, system):
        system.peer("p0").install_document("catL", parse("<catalog/>"))
        system.registry.register_document("mirror", "cat", "p1")
        system.registry.register_document("mirror", "catL", "p0")
        evaluator = ExpressionEvaluator(system, NearestPolicy())
        evaluator.eval(GenericDoc("mirror"), "p0")
        assert system.network.stats.messages == 0  # picked the local replica


class TestDefinition2And7QueryApply:
    def test_local_apply(self, evaluator, system):
        q = QueryRef(Query("count($d//item)", params=("d",)), "p1")
        outcome = evaluator.eval(QueryApply(q, (DocExpr("cat", "p1"),)), "p1")
        assert outcome.items[0].string_value() == "10"

    def test_remote_query_head_shipped(self, evaluator, system):
        q = QueryRef(Query("count($d//item)", params=("d",)), "p2")
        evaluator.eval(QueryApply(q, (DocExpr("cat", "p1"),)), "p0")
        kinds = system.network.stats.by_kind
        assert kinds[MessageKind.QUERY] == 1  # q shipped p2 -> p0
        assert kinds[MessageKind.DATA] == 1   # doc shipped p1 -> p0

    def test_compute_time_charged(self, evaluator, system):
        q = QueryRef(Query("count($d//item)", params=("d",)), "p0")
        outcome = evaluator.eval(QueryApply(q, (DocExpr("cat", "p1"),)), "p0")
        assert system.peer("p0").work_done > 0
        assert outcome.completed_at > 0

    def test_multiple_args(self, evaluator, system):
        q = QueryRef(
            Query("count($a//item) + count($b/*)", params=("a", "b")), "p0"
        )
        tree = parse("<x><y/><z/></x>")
        outcome = evaluator.eval(
            QueryApply(q, (DocExpr("cat", "p1"), TreeExpr(tree, "p0"))), "p0"
        )
        assert outcome.items[0].string_value() == "12"

    def test_atomic_results_wrapped(self, evaluator):
        q = QueryRef(Query("(1, 2)"), "p0")
        outcome = evaluator.eval(QueryApply(q, ()), "p0")
        assert [i.string_value() for i in outcome.items] == ["1", "2"]


class TestDefinition6ServiceCalls:
    def test_default_results_return_to_caller(self, evaluator, system):
        expr = ServiceCallExpr("p1", "pick", (DocExpr("cat", "p1"),))
        outcome = evaluator.eval(expr, "p0")
        (picked,) = outcome.items
        assert picked.tag == "picked"
        assert len(picked.element_children) == 2

    def test_forward_list_delivery(self, evaluator, system):
        inbox = element("inbox")
        system.peer("p2").install_document("acc", inbox)
        expr = ServiceCallExpr(
            "p1", "pick", (DocExpr("cat", "p1"),), (inbox.node_id,)
        )
        outcome = evaluator.eval(expr, "p0")
        assert outcome.items == []
        assert inbox.child_by_tag("picked") is not None
        assert system.network.stats.by_kind[MessageKind.FORWARD] == 1

    def test_generic_service(self, evaluator, system):
        system.registry.register_service("pick", "pick", "p1")
        expr = ServiceCallExpr(ANY, "pick", (DocExpr("cat", "p1"),))
        outcome = evaluator.eval(expr, "p0")
        assert outcome.items[0].tag == "picked"

    def test_unknown_service(self, evaluator):
        with pytest.raises(ServiceCallError):
            evaluator.eval(ServiceCallExpr("p1", "ghost", ()), "p0")

    def test_call_message_carries_params(self, evaluator, system):
        expr = ServiceCallExpr("p1", "pick", (DocExpr("cat", "p1"),))
        evaluator.eval(expr, "p0")
        assert system.network.stats.by_kind[MessageKind.CALL] == 1

    def test_missing_forward_target(self, evaluator, system):
        expr = ServiceCallExpr(
            "p1", "pick", (DocExpr("cat", "p1"),), (NodeId("p2", 99999),)
        )
        with pytest.raises(ExpressionError):
            evaluator.eval(expr, "p0")


class TestDefinition3And4And8Send:
    def test_send_returns_empty(self, evaluator, system):
        outcome = evaluator.eval(
            Send(PeerDest("p2"), DocExpr("cat", "p1")), "p1"
        )
        assert outcome.items == []

    def test_send_to_peer_installs_anonymous(self, evaluator, system):
        outcome = evaluator.eval(
            Send(PeerDest("p2"), DocExpr("cat", "p1")), "p1"
        )
        ((name, peer),) = outcome.installed
        assert peer == "p2"
        assert system.peer("p2").has_document(name)

    def test_send_to_doc_installs_named(self, evaluator, system):
        evaluator.eval(Send(DocDest("copy", "p2"), DocExpr("cat", "p1")), "p1")
        assert equivalent(
            system.peer("p2").document("copy"),
            system.peer("p1").document("cat"),
        )

    def test_send_to_nodes_appends(self, evaluator, system):
        box = element("box")
        system.peer("p2").install_document("acc", box)
        evaluator.eval(
            Send(NodesDest((box.node_id,)), DocExpr("cat", "p1")), "p1"
        )
        assert box.child_by_tag("catalog") is not None

    def test_send_undefined_for_foreign_data(self, evaluator):
        # "p2 cannot send something it doesn't have"
        with pytest.raises(EvaluationUndefinedError):
            evaluator.eval(Send(PeerDest("p0"), DocExpr("cat", "p1")), "p2")

    def test_send_undefined_for_foreign_query(self, evaluator):
        q = QueryRef(Query("1"), "p1")
        with pytest.raises(EvaluationUndefinedError):
            evaluator.eval(Send(PeerDest("p0"), q), "p2")

    def test_send_query_deploys_service(self, evaluator, system):
        q = QueryRef(Query("count($d//item)", params=("d",), name="cnt"), "p0")
        outcome = evaluator.eval(Send(PeerDest("p1"), q), "p0")
        ((service_name, peer),) = outcome.deployed
        assert peer == "p1"
        deployed = system.peer("p1").service(service_name)
        assert isinstance(deployed, DeclarativeService)

    def test_deployed_service_callable(self, evaluator, system):
        q = QueryRef(
            Query(
                "declare variable $d external; "
                "<n>{count($d//item)}</n>", params=("d",), name="cnt"
            ),
            "p0",
        )
        outcome = evaluator.eval(Send(PeerDest("p1"), q), "p0")
        ((service_name, _),) = outcome.deployed
        call = ServiceCallExpr("p1", service_name, (DocExpr("cat", "p1"),))
        result = evaluator.eval(call, "p0")
        assert result.items[0].string_value() == "10"

    def test_send_via_relays(self, evaluator, system):
        evaluator.eval(
            Send(DocDest("c2", "p2"), DocExpr("cat", "p1"), via=("p0",)), "p1"
        )
        assert system.peer("p2").has_document("c2")
        # two transfers: p1->p0, p0->p2
        assert system.network.stats.by_kind[MessageKind.DATA] == 1
        assert system.network.stats.by_kind[MessageKind.INSTALL] == 1

    def test_install_over_existing_name_rejected(self, evaluator, system):
        evaluator.eval(Send(DocDest("copy", "p2"), DocExpr("cat", "p1")), "p1")
        from repro.errors import DuplicateNameError
        with pytest.raises(DuplicateNameError):
            evaluator.eval(
                Send(DocDest("copy", "p2"), DocExpr("cat", "p1")), "p1"
            )


class TestEvalAtAndSeq:
    def test_eval_at_same_peer_is_transparent(self, evaluator, system):
        outcome = evaluator.eval(EvalAt("p0", TreeExpr(parse("<a/>"), "p0")), "p0")
        assert outcome.items[0].tag == "a"
        assert system.network.stats.messages == 0

    def test_eval_at_ships_expression_and_result(self, evaluator, system):
        q = QueryRef(Query("count($d//item)", params=("d",)), "p0")
        expr = EvalAt("p1", QueryApply(q, (DocExpr("cat", "p1"),)))
        outcome = evaluator.eval(expr, "p0")
        assert outcome.items[0].string_value() == "10"
        kinds = system.network.stats.by_kind
        assert kinds[MessageKind.QUERY] >= 1   # the expression (and q)
        assert kinds[MessageKind.DATA] == 1    # the small result

    def test_eval_at_pure_side_effect_no_return(self, evaluator, system):
        inbox = element("inbox")
        system.peer("p2").install_document("acc", inbox)
        sc = ServiceCallExpr(
            "p1", "pick", (DocExpr("cat", "p1"),), (inbox.node_id,)
        )
        outcome = evaluator.eval(EvalAt("p1", sc), "p0")
        assert outcome.items == []
        assert inbox.child_by_tag("picked") is not None
        assert system.network.stats.by_kind.get(MessageKind.DATA, 0) == 0

    def test_seq_orders_time(self, evaluator, system):
        step1 = Send(DocDest("c1", "p0"), DocExpr("cat", "p1"))
        step2 = Send(DocDest("c2", "p2"), DocExpr("cat", "p1"))
        outcome = evaluator.eval(Seq((step1, step2)), "p1")
        assert system.peer("p0").has_document("c1")
        assert system.peer("p2").has_document("c2")
        assert outcome.completed_at > 0

    def test_seq_value_is_last(self, evaluator):
        expr = Seq((TreeExpr(parse("<first/>"), "p0"), TreeExpr(parse("<last/>"), "p0")))
        outcome = evaluator.eval(expr, "p0")
        assert outcome.items[0].tag == "last"

    def test_unknown_site_rejected(self, evaluator):
        from repro.errors import UnknownPeerError
        with pytest.raises(UnknownPeerError):
            evaluator.eval(TreeExpr(parse("<a/>"), "p0"), "ghost")


class TestActivationCycles:
    """A service whose response embeds a call to itself — the paper's hard
    case for lazy activation — fails typed at the depth bound."""

    @pytest.fixture()
    def cyclic(self, system):
        system.peer("p2").install_query_service(
            "again", "<more><sc><peer>p2</peer><service>again</service></sc></more>"
        )
        system.peer("p0").install_document(
            "ax", element("d", make_service_call("p2", "again"))
        )
        return system

    def test_a_session_query_raises_the_typed_error(self, cyclic):
        session = repro.connect(cyclic)
        with pytest.raises(ActivationCycleError):
            session.query("$d", at="p0", bind={"d": "ax@p0"}, optimize=False)
        with pytest.raises(ActivationCycleError):
            session.query("$d", at="p0", bind={"d": "ax@p0"})

    @pytest.mark.parametrize("memo", [False, True])
    def test_measure_raises_the_typed_error(self, cyclic, memo):
        plan = Plan(DocExpr("ax", "p0"), "p1")
        with pytest.raises(ActivationCycleError) as raised:
            measure(plan, cyclic, memo=QueryMemo(CacheStats()) if memo else None)
        assert isinstance(raised.value, ExpressionError)
