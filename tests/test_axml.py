"""Unit tests for the AXML layer: sc nodes, activation, streams."""

import pytest

from repro.axml import (
    ActivationMode,
    IncrementalQuery,
    ServiceCall,
    StreamChannel,
    Subscription,
    make_service_call,
)
from repro.core import DocExpr, ExpressionEvaluator, ServiceCallExpr
from repro.errors import AXMLError, ServiceCallError
from repro.peers import AXMLSystem, NativeService
from repro.xmlcore import NodeId, element, parse, serialize
from repro.xquery import Query


def make_system():
    sys = AXMLSystem.with_peers(["p0", "p1", "p2"])
    sys.peer("p1").install_query_service("hello", "<greeting>hi</greeting>")
    sys.peer("p1").install_query_service(
        "double",
        "declare variable $x external; <out>{number($x) * 2}</out>",
        params=("x",),
    )
    return sys


@pytest.fixture()
def system():
    return make_system()


class TestServiceCallParsing:
    def test_round_trip(self):
        sc = make_service_call(
            "p1", "svc", params=[element("a")], mode=ActivationMode.LAZY,
            name="c1", after="c0",
        )
        call = ServiceCall.parse(sc)
        assert call.provider == "p1"
        assert call.service == "svc"
        assert len(call.params) == 1
        assert call.mode == ActivationMode.LAZY
        assert call.name == "c1" and call.after == "c0"

    def test_forwards_parsed(self):
        target = NodeId("p2", 9)
        sc = make_service_call("p1", "svc", forwards=[target])
        assert ServiceCall.parse(sc).forwards == (target,)

    def test_generic_provider(self):
        sc = make_service_call("any", "svc")
        assert ServiceCall.parse(sc).is_generic

    def test_not_an_sc(self):
        with pytest.raises(ServiceCallError):
            ServiceCall.parse(element("div"))

    def test_missing_peer_child(self):
        bad = element("sc", element("service", "s"))
        with pytest.raises(ServiceCallError):
            ServiceCall.parse(bad)

    def test_bad_forward_target(self):
        bad = make_service_call("p1", "s")
        bad.append(element("forw", "garbage"))
        with pytest.raises(ServiceCallError):
            ServiceCall.parse(bad)

    def test_bad_mode(self):
        bad = make_service_call("p1", "s")
        bad.attrs["mode"] = "whenever"
        with pytest.raises(ServiceCallError):
            ServiceCall.parse(bad)

    def test_param_payload_unwraps_single_element(self):
        sc = make_service_call("p1", "s", params=[element("data", "x")])
        (payload,) = ServiceCall.parse(sc).param_payloads()
        assert payload.tag == "data"

    def test_param_payload_keeps_wrapper_for_text(self):
        sc = make_service_call("p1", "s", params=["just text"])
        (payload,) = ServiceCall.parse(sc).param_payloads()
        assert payload.tag == "param1"


class _Recording(ExpressionEvaluator):
    """The bare evaluator, noting each CALL's provider and ready instant.

    With ``tolerant`` it forgives a lost call, as a ``partial`` run does.
    """

    def __init__(self, system, tolerant=False):
        super().__init__(system)
        self.tolerant = tolerant
        self.calls = []

    def _call_provider(self, message, ready_at):
        self.calls.append((message.dst, ready_at))
        return super()._call_provider(message, ready_at)

    def _lost(self, kind, name, peers, exc):
        if not self.tolerant:
            raise exc


def activate(system, root, evaluator=None):
    """Install ``root`` as ``d@p0`` and evaluate ``d@p0`` there (definition
    (1)): returns the outcome, its one value and the stored document."""
    system.peer("p0").install_document("d", root)
    evaluator = evaluator or ExpressionEvaluator(system)
    outcome = evaluator.eval(DocExpr("d", "p0"), "p0")
    (value,) = outcome.items
    return outcome, value, system.peer("p0").document("d")


def hello(**attrs):
    return make_service_call("p1", "hello", **attrs)


#: name -> (calls in document order, greetings, indices of the calls left
#: unfired, messages): what evaluating ``<doc>{calls}</doc>`` does.
CONTROL = {
    "immediate": (lambda: [hello()], 1, (), 2),
    "lazy": (lambda: [hello(mode=ActivationMode.LAZY)], 1, (), 2),
    "manual": (lambda: [hello(mode=ActivationMode.MANUAL)], 0, (0,), 0),
    "chained": (lambda: [hello(name="first"), hello(after="first")], 2, (), 4),
    "after-manual": (
        lambda: [hello(mode=ActivationMode.MANUAL, name="m"), hello(after="m")],
        0, (0, 1), 0,
    ),
    "after-manual-then-free": (
        lambda: [
            hello(mode=ActivationMode.MANUAL, name="m"), hello(after="m"), hello(),
        ],
        1, (0, 1), 2,
    ),
}


class TestActivation:
    def test_default_forward_replaces_the_call(self, system):
        _, value, stored = activate(system, element("doc", hello()))
        # the responses take the call's place, in the value and in Σ
        assert value is stored
        assert serialize(stored) == "<doc><greeting>hi</greeting></doc>"

    def test_parameters_shipped_and_used(self, system):
        root = element("doc", make_service_call("p1", "double", params=[element("v", "21")]))
        _, value, _ = activate(system, root)
        assert value.child_by_tag("out").string_value() == "42"

    def test_explicit_forward_targets(self, system):
        inbox = element("inbox")
        system.peer("p2").install_document("acc", inbox)
        root = element(
            "doc",
            make_service_call("p1", "hello", forwards=[inbox.node_id]),
        )
        _, value, _ = activate(system, root)
        assert system.peer("p2").document("acc").child_by_tag("greeting") is not None
        assert serialize(value) == "<doc/>"  # not delivered locally

    def test_multiple_forward_targets(self, system):
        box1, box2 = element("b1"), element("b2")
        system.peer("p2").install_document("acc1", box1)
        system.peer("p0").install_document("acc2", box2)
        root = element(
            "doc",
            make_service_call(
                "p1", "hello", forwards=[box1.node_id, box2.node_id]
            ),
        )
        activate(system, root)
        assert system.peer("p2").document("acc1").child_by_tag("greeting") is not None
        assert system.peer("p0").document("acc2").child_by_tag("greeting") is not None

    def test_network_charged(self, system):
        activate(system, element("doc", hello()))
        stats = system.network.stats
        assert stats.messages == 2  # call + result
        assert stats.bytes > 0

    def test_unknown_service(self, system):
        root = element("doc", make_service_call("p1", "ghost"))
        with pytest.raises(ServiceCallError):
            activate(system, root)

    def test_generic_call_resolved_via_registry(self, system):
        system.registry.register_service("hello", "hello", "p1")
        evaluator = _Recording(system)
        _, value, _ = activate(
            system, element("doc", make_service_call("any", "hello")), evaluator
        )
        assert [provider for provider, _ in evaluator.calls] == ["p1"]
        assert value.child_by_tag("greeting") is not None

    @pytest.mark.parametrize("case", list(CONTROL))
    def test_activation_control(self, system, case):
        build, greetings, unfired, messages = CONTROL[case]
        calls = build()
        expected = [serialize(calls[i]) for i in unfired]
        _, value, stored = activate(system, element("doc", *calls))
        assert system.network.stats.messages == messages
        for tree in (value, stored):
            assert len(tree.children_by_tag("greeting")) == greetings
            # an unfired call stays in place as the sc it was
            assert [serialize(sc) for sc in tree.children_by_tag("sc")] == expected

    def test_chained_call_admitted_at_its_predecessors_completion(self, system):
        first, _, _ = activate(make_system(), element("doc", hello(name="first")))
        evaluator = _Recording(system)
        root = element("doc", hello(name="first"), hello(after="first"))
        outcome, _, _ = activate(system, root, evaluator)
        assert first.completed_at > 0.0
        assert evaluator.calls == [("p1", 0.0), ("p1", first.completed_at)]
        assert outcome.completed_at > first.completed_at

    def test_after_resolves_across_subtrees_in_document_order(self, system):
        root = element(
            "doc",
            element("a", hello(name="first")),
            element("b", hello(after="first")),
        )
        _, value, _ = activate(system, root)
        assert serialize(value) == (
            "<doc><a><greeting>hi</greeting></a><b><greeting>hi</greeting></b></doc>"
        )

    @pytest.mark.parametrize(
        "calls",
        [
            lambda: [hello(after="ghost")],
            lambda: [hello(after="late"), hello(name="late")],
        ],
        ids=["names-no-call", "names-a-later-call"],
    )
    def test_after_naming_no_earlier_call_raises(self, system, calls):
        with pytest.raises(ServiceCallError, match="no earlier call"):
            activate(system, element("doc", *calls()))
        assert system.network.stats.messages == 0

    def test_call_after_a_lost_call_stays_unfired(self, system):
        system.peer("p2").install_query_service("hello", "<greeting>hi</greeting>")
        system.peer("p2").alive = False
        root = element(
            "doc",
            make_service_call("p2", "hello", name="gone"),
            hello(after="gone"),
        )
        calls = [serialize(sc) for sc in root.element_children]
        evaluator = _Recording(system, tolerant=True)
        _, value, stored = activate(system, root, evaluator)
        # the one chained after the lost call never fires, and the lost
        # call it waits on stays too, so its name still resolves
        for tree in (value, stored):
            assert [serialize(sc) for sc in tree.element_children] == calls
        assert system.network.stats.messages == 0
        (again,) = evaluator.eval(DocExpr("d", "p0"), "p0").items
        assert [serialize(sc) for sc in again.element_children] == calls
        # once the provider is back, a later read runs the pair
        system.peer("p2").alive = True
        (last,) = evaluator.eval(DocExpr("d", "p0"), "p0").items
        assert serialize(last) == (
            "<doc><greeting>hi</greeting><greeting>hi</greeting></doc>"
        )
        assert [provider for provider, _ in evaluator.calls] == ["p2", "p1"]

    def test_manual_call_after_a_fired_one_reads_again(self, system):
        root = element(
            "doc",
            hello(name="first"),
            hello(mode=ActivationMode.MANUAL, after="first"),
        )
        follower = serialize(root.element_children[1])
        _, value, stored = activate(system, root)
        # "first" is replaced by its response; the manual call names it
        # still, and a manual call's after= is never resolved
        assert [serialize(sc) for sc in stored.children_by_tag("sc")] == [follower]
        (again,) = ExpressionEvaluator(system).eval(DocExpr("d", "p0"), "p0").items
        assert again is stored
        assert serialize(again) == serialize(value)
        assert system.network.stats.messages == 2

    def test_manual_fires_only_when_its_call_is_evaluated(self, system):
        _, value, _ = activate(system, element("doc", hello(mode=ActivationMode.MANUAL)))
        # a second evaluation of d@p0 leaves the call unfired again, and
        # the stored document, its value, as it was
        (again,) = ExpressionEvaluator(system).eval(DocExpr("d", "p0"), "p0").items
        assert again is value is system.peer("p0").document("d")
        assert again.child_by_tag("greeting") is None
        assert system.network.stats.messages == 0
        # explicit activation: evaluate the call itself, definition (6)
        call = ServiceCall.parse(value.child_by_tag("sc"))
        outcome = ExpressionEvaluator(system).eval(
            ServiceCallExpr(call.provider, call.service), "p0"
        )
        assert [serialize(item) for item in outcome.items] == [
            "<greeting>hi</greeting>"
        ]

    def test_recursive_responses_reach_fixpoint(self, system):
        # a service whose response embeds another call
        inner_call = hello()
        def respond(params, host):
            return [element("wrap", inner_call.copy())]
        system.peer("p1").install_service(NativeService("nest", respond))
        _, value, _ = activate(system, element("doc", make_service_call("p1", "nest")))
        wrap = value.child_by_tag("wrap")
        assert wrap.child_by_tag("greeting") is not None
        assert not value.has_service_calls()


class TestStreams:
    def test_emissions_accumulate(self, system):
        target = element("feed")
        system.peer("p2").install_document("acc", target)
        channel = StreamChannel("news", "p0", system)
        channel.subscribe(target.node_id)
        channel.emit(parse("<item>1</item>"))
        channel.emit(parse("<item>2</item>"))
        assert [c.string_value() for c in target.element_children] == ["1", "2"]

    def test_late_subscriber_catches_up(self, system):
        channel = StreamChannel("news", "p0", system)
        channel.emit(parse("<item>old</item>"))
        target = element("feed")
        system.peer("p2").install_document("acc", target)
        channel.subscribe(target.node_id)
        assert target.element_children[0].string_value() == "old"

    def test_each_emission_charged(self, system):
        target = element("feed")
        system.peer("p2").install_document("acc", target)
        channel = StreamChannel("news", "p0", system)
        channel.subscribe(target.node_id)
        before = system.network.stats.messages
        channel.emit(parse("<item>x</item>"))
        assert system.network.stats.messages == before + 1

    def test_clock_advances(self, system):
        target = element("feed")
        system.peer("p2").install_document("acc", target)
        channel = StreamChannel("news", "p0", system)
        channel.subscribe(target.node_id)
        t1 = channel.emit(parse("<item>1</item>"))
        t2 = channel.emit(parse("<item>2</item>"))
        assert t2 > t1

    def test_missing_target_raises(self, system):
        channel = StreamChannel("news", "p0", system)
        channel.subscriptions.append(Subscription(NodeId("p2", 424242)))
        with pytest.raises(AXMLError):
            channel.emit(parse("<item/>"))


class TestIncrementalQuery:
    def _query(self):
        return Query(
            "for $x in $in where number($x/v) > 10 return <hit>{$x/v/text()}</hit>",
            params=("in",),
        )

    def test_incremental_outputs(self):
        iq = IncrementalQuery(self._query(), mode="incremental")
        assert iq.push(parse("<e><v>5</v></e>")) == []
        (hit,) = iq.push(parse("<e><v>11</v></e>"))
        assert hit.string_value() == "11"
        assert len(iq.outputs) == 1

    def test_reevaluate_mode_same_answers(self):
        trees = [parse(f"<e><v>{n}</v></e>") for n in (5, 11, 20, 3)]
        inc = IncrementalQuery(self._query(), mode="incremental")
        ree = IncrementalQuery(self._query(), mode="reevaluate")
        for tree in trees:
            inc.push(tree.copy())
            ree.push(tree.copy())
        assert [serialize(o) for o in inc.outputs] == [
            serialize(o) for o in ree.outputs
        ]

    def test_work_scales_differently(self):
        trees = [parse(f"<e><v>{n}</v></e>") for n in range(20)]
        inc = IncrementalQuery(self._query(), mode="incremental")
        ree = IncrementalQuery(self._query(), mode="reevaluate")
        for tree in trees:
            inc.push(tree.copy())
            ree.push(tree.copy())
        assert inc.trees_processed == 20
        assert ree.trees_processed == 20 * 21 // 2  # quadratic

    def test_on_output_callback(self):
        seen = []
        iq = IncrementalQuery(
            self._query(), on_output=lambda fresh: seen.extend(fresh)
        )
        iq.push(parse("<e><v>99</v></e>"))
        assert len(seen) == 1

    def test_unknown_mode(self):
        with pytest.raises(AXMLError):
            IncrementalQuery(self._query(), mode="psychic")
