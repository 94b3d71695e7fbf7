"""Σ is cloned, and values are shipped, by reference: copy-on-write trees.

``AXMLSystem.clone()`` shares every document tree with its twin and
freezes it; a value crossing the simulated network is the frozen tree
itself; whoever edits a stored document in place owns a private copy
first (``Peer.own_document``).  These tests pin the contract from the
outside: *sharing* (a clone copies no node), *isolation* (no in-place
path on one side ever shows on the other, in either direction),
*loudness* (editing — or adopting — a frozen tree raises the typed error
and changes nothing), *oracle purity* (``measure`` leaves Σ
byte-identical and un-advanced), *inert reads* (a document without
``sc`` nodes is read and shipped without a copy; one with them
activates exactly as before), *identity* (``is`` and ``|`` see what
they saw when every shipment copied) and the *twin's cost* (a clone
builds a link the first time a transfer crosses it and copies a service
the first time it is looked up, yet enumerates, mutates and accounts
exactly as an eagerly built Σ would).
"""

import pytest

from repro import connect
from repro.axml import StreamChannel, make_service_call
from repro.core import ExpressionEvaluator, Plan, measure
from repro.core.expressions import (
    DocExpr,
    EvalAt,
    NodesDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from repro.core.planspace import CacheStats
from repro.core.strategies import SearchSpace
from repro.dist import FragmentedDocInfo, FragmentInfo
from repro.errors import FrozenTreeError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.net import Message, MessageKind, Network
from repro.net.network import Link, LinkStats
from repro.peers import AXMLSystem, peer as peer_module
from repro.peers.service import QueryMemo
from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator
from repro.xmlcore import Element, NodeId, element, parse, serialize
from repro.xquery import Query


def image(system):
    """Everything a reader of Σ can see, ids included, byte for byte."""
    return (
        system.snapshot(),
        {
            (pid, name): serialize(tree, with_ids=True)
            for pid, peer in sorted(system.peers.items())
            for name, tree in sorted(peer.documents.items())
        },
    )


def accounting(system):
    """Everything an evaluation advances: work, clocks, traffic."""
    return (
        system.clock,
        system.network.stats.snapshot(),
        [link.busy_until for link in system.network.links()],
        {
            pid: (peer.busy_until, peer.work_done, peer.busy_time)
            for pid, peer in sorted(system.peers.items())
        },
    )


@pytest.fixture()
def count_copies(monkeypatch):
    """Counts top-level ``Element.copy`` calls (one per copied tree)."""
    calls = []
    original = Element.copy

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Element, "copy", counted)
    return calls


def two_docs():
    system = AXMLSystem.with_peers(["a", "b"])
    system.peer("a").install_document("d1", parse("<r><x/><y/></r>"))
    system.peer("a").install_document("d2", parse("<q><z/></q>"))
    return system


class TestSharing:
    def test_clone_copies_no_node(self, count_copies):
        system = ScenarioGenerator(7).scenario(0).system
        assert sum(len(peer.documents) for peer in system.peers.values()) > 0
        count_copies.clear()  # generating the scenario mirrored documents
        twin = system.clone()
        assert count_copies == []
        for pid, peer in system.peers.items():
            assert list(twin.peer(pid).documents) == list(peer.documents)
            for name, tree in peer.documents.items():
                assert twin.peer(pid).documents[name] is tree
                assert tree.frozen

    def test_clone_of_a_clone_still_shares(self, count_copies):
        system = two_docs()
        again = system.clone().clone()
        assert count_copies == []
        assert again.peer("a").documents["d1"] is system.peer("a").documents["d1"]

    def test_shared_trees_share_their_caches(self):
        system = two_docs()
        tree = system.peer("a").documents["d1"]
        twin = system.clone()
        fingerprint = tree.content_fingerprint()
        assert twin.peer("a").documents["d1"]._fp_cache == fingerprint

    def test_copies_are_never_frozen(self):
        system = two_docs()
        system.clone()
        tree = system.peer("a").documents["d1"]
        assert tree.frozen and tree.element_children[0].frozen
        for copy in (tree.copy(), tree.copy_without_ids()):
            assert not copy.frozen
            copy.append(element("fine"))

    def test_install_of_a_frozen_tree_installs_a_copy(self):
        system = two_docs()
        system.clone()
        shared = system.peer("a").documents["d1"]
        before = serialize(shared, with_ids=True)
        installed = system.peer("b").install_document("mirror", shared)
        assert installed is not shared and not installed.frozen
        assert system.peer("b").documents["mirror"] is installed
        assert serialize(shared, with_ids=True) == before


class TestLoudness:
    def test_editing_the_read_path_raises_and_changes_nothing(self):
        system = two_docs()
        twin = system.clone()
        before = image(system)
        root = twin.peer("a").document("d1")
        child = root.element_children[0]
        other = element("other", element("kid"))
        for edit in (
            lambda: root.append(element("new")),
            lambda: root.insert(0, element("new")),
            lambda: root.remove(child),
            lambda: root.replace_child(child, element("new")),
            lambda: child.set_attr("k", "v"),
            lambda: child.append(element("deep")),
            # adopting a node out of a frozen tree would move its parent
            lambda: other.append(child),
        ):
            with pytest.raises(FrozenTreeError):
                edit()
        assert isinstance(FrozenTreeError("x"), ReproError)
        assert child.parent is root
        assert image(system) == before == image(twin)

    def test_a_tree_that_was_never_shared_stays_editable(self):
        system = two_docs()
        system.peer("a").document("d1").append(element("new"))
        assert not system.peer("a").document("d1").frozen


class TestIsolation:
    """Every in-place path, each direction: the other side never moves."""

    def test_write_on_the_live_system_after_an_isolated_query(self):
        scenario = ScenarioGenerator(7, WRITE_MIX_SPEC).scenario(1)
        session = connect(scenario.system)
        session.query(**scenario.queries[0].kwargs())  # clones, so freezes
        held = scenario.system.clone()
        before = image(held)
        live_before = image(scenario.system)
        for record in scenario.writes:
            session.write(record.op())
        assert image(held) == before
        assert image(scenario.system) != live_before
        # and the held clone still answers as the pristine system did
        pristine = ScenarioGenerator(7, WRITE_MIX_SPEC).scenario(1)
        for query in scenario.queries:
            assert (
                connect(held).query(**query.kwargs()).answers
                == connect(pristine.system).query(**query.kwargs()).answers
            )

    def test_write_on_the_clone_leaves_the_original(self):
        scenario = ScenarioGenerator(7, WRITE_MIX_SPEC).scenario(1)
        before = image(scenario.system)
        twin = scenario.system.clone()
        session = connect(twin)
        for record in scenario.writes:
            session.write(record.op())
        assert image(scenario.system) == before
        assert image(twin) != before

    @pytest.mark.parametrize("edited", ["clone", "original"])
    def test_nodes_dest_send(self, edited):
        system = two_docs()
        twin = system.clone()
        target, other = (twin, system) if edited == "clone" else (system, twin)
        before = image(other)
        plan = Send(
            NodesDest((NodeId("a", 2),)), TreeExpr(parse("<m><k/></m>"), "b")
        )
        ExpressionEvaluator(target).eval(plan, "b")
        assert image(other) == before
        assert (
            serialize(target.peer("a").document("d1"))
            == "<r><x><m><k/></m></x><y/></r>"
        )

    @pytest.mark.parametrize("edited", ["clone", "original"])
    def test_axml_activation(self, edited):
        system = AXMLSystem.with_peers(["p0", "p1"])
        system.peer("p1").install_query_service("hello", "<greeting>hi</greeting>")
        system.peer("p0").install_document(
            "d0",
            element(
                "doc",
                make_service_call("p1", "hello"),
                make_service_call("p1", "hello"),
            ),
        )
        twin = system.clone()
        target, other = (twin, system) if edited == "clone" else (system, twin)
        before = image(other)
        outcome = ExpressionEvaluator(target).eval(DocExpr("d0", "p0"), "p0")
        assert image(other) == before
        stored = target.peer("p0").documents["d0"]
        # the activated value is installed as the stored d0
        (value,) = outcome.items
        assert value is stored and not stored.frozen
        assert len(stored.children_by_tag("greeting")) == 2
        assert stored.children_by_tag("sc") == []

    @pytest.mark.parametrize("edited", ["clone", "original"])
    def test_stream_delivery(self, edited):
        system = two_docs()
        twin = system.clone()
        target, other = (twin, system) if edited == "clone" else (system, twin)
        before = image(other)
        channel = StreamChannel("news", "b", target)
        channel.subscribe(NodeId("a", 4))  # <q> of d2
        channel.emit(parse("<item>1</item>"))
        channel.emit(parse("<item>2</item>"))
        assert image(other) == before
        assert (
            serialize(target.peer("a").document("d2"))
            == "<q><z/><item>1</item><item>2</item></q>"
        )

    def test_owning_twice_copies_once(self, count_copies):
        system = two_docs()
        system.clone()
        peer = system.peer("a")
        owned = peer.own_document("d1")
        top_level = [node for node in count_copies if node.parent is None]
        assert len(top_level) == 1
        assert peer.own_document("d1") is owned
        assert len([n for n in count_copies if n.parent is None]) == 1
        assert (peer.work_done, peer.busy_time) == (0, 0.0)


class TestByReference:
    """A value crossing the network is the frozen tree itself, and identity
    is exactly as observable as when every crossing made a copy."""

    BOTH = Query("($a is $b, count($a | $b))", params=("a", "b"))
    IS_STORED = Query('$x is doc("d1")', params=("x",))

    @staticmethod
    def answers(system, at, query, *args):
        plan = QueryApply(QueryRef(query, at), args)
        return [i.string_value() for i in ExpressionEvaluator(system).eval(plan, at).items]

    @pytest.mark.parametrize(
        "arg",
        [DocExpr("d1", "a"), TreeExpr(parse("<t/>"), "b"), TreeExpr(parse("<t/>"), "a")],
        ids=["shipped-document", "literal-at-home", "shipped-literal"],
    )
    def test_one_tree_bound_twice_is_two_trees(self, arg):
        assert self.answers(two_docs(), "b", self.BOTH, arg, arg) == ["false", "2"]

    def test_a_stored_document_read_twice_at_home_stays_one_tree(self):
        arg = DocExpr("d1", "a")
        assert self.answers(two_docs(), "a", self.BOTH, arg, arg) == ["true", "1"]

    @pytest.mark.parametrize(
        "arg, expected",
        [
            (DocExpr("d1", "a"), "true"),  # read at home: the stored tree
            (EvalAt("b", DocExpr("d1", "a")), "false"),  # a -> b -> a
            (QueryApply(QueryRef(Query('doc("d1")'), "a"), ()), "false"),
        ],
        ids=["at-home", "round-trip", "query-result"],
    )
    def test_an_arrival_is_not_the_stored_document(self, arg, expected):
        assert self.answers(two_docs(), "a", self.IS_STORED, arg) == [expected]

    def test_a_call_result_is_not_the_callers_stored_document(self):
        system = two_docs()
        system.peer("b").install_query_service(
            "echo", "declare variable $p external; $p", params=("p",)
        )
        arg = ServiceCallExpr("b", "echo", (DocExpr("d1", "a"),))
        assert self.answers(system, "a", self.IS_STORED, arg) == ["false"]

    @pytest.mark.parametrize(
        "body, expected",
        [('$p is doc("d1")', "false"), ('count($p//* | doc("d1")//*)', "4")],
        ids=["is", "union"],
    )
    def test_a_call_parameter_is_not_the_providers_stored_document(
        self, body, expected
    ):
        """d1 ships a -> b as the parameter, then b -> a in the CALL."""
        system = two_docs()
        system.peer("a").install_query_service(
            "probe", "declare variable $p external; " + body, params=("p",)
        )
        call = ServiceCallExpr("a", "probe", (DocExpr("d1", "a"),))
        items = ExpressionEvaluator(system).eval(call, "b").items
        assert [item.string_value() for item in items] == [expected]


class TestFrozenRootAdoption:
    def test_adopting_a_frozen_root_raises_and_changes_nothing(self):
        shared = parse("<f><k/></f>")
        shared.freeze()
        host = element("host", element("old"))
        old = host.children[0]
        for edit in (
            lambda: host.append(shared),
            lambda: host.insert(0, shared),
            lambda: host.replace_child(old, shared),
        ):
            with pytest.raises(FrozenTreeError):
                edit()
        assert shared.parent is None and old.parent is host
        assert serialize(host) == "<host><old/></host>"
        host.append(shared.copy())  # a copy is adoptable
        assert serialize(host) == "<host><old/><f><k/></f></host>"

    def test_memoised_responses_are_spliced_as_copies(self):
        """A response the memo keeps, spliced into an activated document —
        alone in place, or several under ``<results>`` — stays the
        memo's: parentless and frozen, answering the next lookup."""
        system = AXMLSystem.with_peers(["a", "b"])
        provider = system.peer("b")
        one = provider.install_query_service("one", "<leaf>v</leaf>")
        two = provider.install_query_service("two", "(<leaf>1</leaf>, <leaf>2</leaf>)")
        tree = element("doc", make_service_call("b", "one"), make_service_call("b", "two"))
        evaluator = ExpressionEvaluator(system)
        evaluator.memo = memo = QueryMemo(CacheStats())
        for _ in range(2):
            (value,) = evaluator.eval(TreeExpr(tree, "a"), "a").items
            assert serialize(value) == (
                "<doc><leaf>v</leaf><results><leaf>1</leaf><leaf>2</leaf></results></doc>"
            )
        assert memo.stats.query_memo_hits == 2
        for service in (one, two):
            for kept in service.invoke([], provider, memo):
                assert kept.parent is None and kept.frozen


class TestAllocatorPosition:
    def test_forwards_land_on_the_same_nodes_on_a_clone(self):
        """A clone's allocator used to restart at n1: the first delivery
        re-issued n1@a.. and a later forward hit the wrong node."""
        plan = Seq(
            (
                Send(
                    NodesDest((NodeId("a", 2),)),
                    TreeExpr(parse("<m><m1/><m2/><m3/></m>"), "b"),
                ),
                Send(NodesDest((NodeId("a", 4),)), TreeExpr(parse("<late/>"), "b")),
            )
        )
        live = two_docs()
        twin = two_docs().clone()
        for system in (live, twin):
            ExpressionEvaluator(system).eval(plan, "b")
        assert serialize(live.peer("a").document("d2")) == "<q><z/><late/></q>"
        assert image(twin) == image(live)
        assert (
            twin.peer("a").allocator.next_serial
            == live.peer("a").allocator.next_serial
        )


class TestOraclePurity:
    def test_measure_leaves_the_system_untouched(self):
        priced = 0
        for index in range(10):
            scenario = ScenarioGenerator(11).scenario(index)
            system = scenario.system
            session = connect(system)
            documents, advanced = image(system), accounting(system)
            for query in scenario.queries:
                kwargs = query.kwargs()
                plan = session.plan(
                    kwargs["source"], kwargs["at"], kwargs["bind"], kwargs["name"]
                )
                candidates = [plan] + [
                    rewrite.plan for rewrite in SearchSpace(system).expand(plan)
                ]
                for candidate in candidates:
                    try:
                        measure(candidate, system)
                    except ReproError:
                        pass  # an unevaluable candidate must be pure too
                    priced += 1
                    assert accounting(system) == advanced
                    assert image(system) == documents
        assert priced > 100


class TestInertReads:
    def test_a_document_without_calls_is_read_without_a_copy(self, count_copies):
        system = two_docs()
        stored = system.peer("a").documents["d1"]
        assert not stored.has_service_calls()
        outcome = ExpressionEvaluator(system).eval(DocExpr("d1", "a"), "a")
        assert outcome.items == [stored] and outcome.items[0] is stored
        assert system.peer("a").documents["d1"] is stored
        assert count_copies == []
        assert system.peer("a").work_done == 0

    def test_shipping_it_copies_nothing_and_still_counts_the_read(self, count_copies):
        system = two_docs()
        stored = system.peer("a").documents["d1"]
        outcome = ExpressionEvaluator(system).eval(DocExpr("d1", "a"), "b")
        # by reference: the value at b is the stored tree, frozen
        assert count_copies == []
        assert outcome.items == [stored] and outcome.items[0] is stored
        assert stored.frozen
        assert serialize(outcome.items[0]) == "<r><x/><y/></r>"
        assert system.peer("a").documents["d1"] is stored
        assert system.peer("a").work_done == 0
        assert system.network.stats.messages == 1

    def test_the_verdict_follows_the_content(self):
        tree = parse("<r><x/></r>")
        assert not tree.has_service_calls()
        tree.element_children[0].append(make_service_call("p1", "s"))
        assert tree.has_service_calls()
        tree.element_children[0].remove(tree.element_children[0].children[0])
        assert not tree.has_service_calls()

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_document_with_a_call_activates_and_reinstalls(self, shared):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("b").install_query_service("mk", "<leaf>v</leaf>")
        system.peer("a").install_document(
            "d", element("doc", element("keep"), make_service_call("b", "mk"))
        )
        held = system.clone() if shared else None
        before = image(held) if shared else None
        stored = system.peer("a").documents["d"]
        next_serial = system.peer("a").allocator.next_serial
        outcome = ExpressionEvaluator(system).eval(DocExpr("d", "a"), "a")
        activated = system.peer("a").documents["d"]
        assert activated is not stored and outcome.items == [activated]
        assert not activated.frozen
        assert serialize(activated) == "<doc><keep/><leaf>v</leaf></doc>"
        # the old tree still holds its call; kept ids survive, new nodes
        # draw fresh ones
        assert stored.has_service_calls()
        assert activated.node_id == stored.node_id
        assert activated.element_children[1].node_id.serial == next_serial
        assert (system.peer("a").work_done, system.peer("b").work_done) == (0, 1)
        if shared:
            assert image(held) == before
        # now plain data: the next read is inert
        again = ExpressionEvaluator(system).eval(DocExpr("d", "a"), "a")
        assert again.items[0] is activated


def six_peers(builder="full_mesh"):
    """Six peers, a document, a query service and a generic class."""
    system = AXMLSystem.with_peers([f"p{i}" for i in range(6)], topology=builder)
    system.peer("p0").install_document("d", parse("<r><x>1</x><x>2</x></r>"))
    system.peer("p1").install_query_service("s", "<n>{count($a//x)}</n>", ("a",))
    system.registry.register_document("g", "d", "p0")
    return system


def fabric(system):
    """The whole topology as a clone must still enumerate it."""
    return [
        (link.src, link.dst, link.latency, link.bandwidth)
        for link in system.network.links()
    ]


def state(system):
    """Everything the mutations below can change, on one Σ."""
    network = system.network
    return (
        image(system),
        fabric(system),
        [link.dst for link in network.route("p0", "p3")],
        system.live_peers(),
        system.registry.document_members("g"),
        system.fragments.is_fragmented("cat"),
        dict(system.doc_epochs),
    )


def relink(system):
    system.network.add_link("p0", "p3", latency=0.0001)


def kill(system):
    system.peer("p2").alive = False


def install(system):
    system.peer("p4").install_query_service("t", "1 + 1")


def replace_service(system):
    system.peer("p1").install_query_service("s", "2 + 2", replace=True)


def register(system):
    system.registry.register_document("g", "d", "p5")


def fragment(system):
    piece = FragmentInfo("cat", 0, "cat.f0", "p3")
    system.fragments.register(FragmentedDocInfo("cat", "r", fragments=(piece,)))


def bump(system):
    system.bump_doc_epoch("d")


def write(system):
    system.peer("p0").own_document("d").append(element("new"))


MUTATIONS = [relink, kill, install, replace_service, register, fragment, bump, write]


class TestTwinIndependence:
    """A clone, and a clone of it, stay whole and apart from Σ."""

    def test_the_fabric_stays_whole(self):
        system = six_peers("ring")
        spec = FaultSpec(link_drops=4, link_degrades=3, horizon=0.2)
        twin = system.clone()
        again = twin.clone()
        for copy in (twin, again):
            # drawn before anything enumerated the copy's links
            assert FaultPlan.generate(3, copy, spec) == FaultPlan.generate(
                3, system, spec
            )
            assert fabric(copy) == fabric(system)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
    @pytest.mark.parametrize("side", [0, 1, 2], ids=["sigma", "twin", "twin-of-twin"])
    def test_a_mutation_shows_on_its_side_only(self, mutate, side):
        system = six_peers("ring")
        twin = system.clone()
        chain = [system, twin, twin.clone()]
        before = [state(each) for each in chain]
        mutate(chain[side])
        after = [state(each) for each in chain]
        assert after[side] != before[side]
        del after[side], before[side]
        assert after == before

    def test_a_twin_serves_its_own_copy_of_a_service(self):
        system = six_peers()
        original = system.peer("p1").service("s")
        original.invocations = 5
        twin = system.clone()
        replace_service(system)
        served = twin.peer("p1").service("s")
        assert served is not original and served.provider is twin.peer("p1")
        assert served.invocations == 0
        assert served.query.source == original.query.source
        assert twin.peer("p1").service("s") is served


@pytest.fixture()
def built(monkeypatch):
    """(link, service copy) constructions, counted as they happen."""
    counts = {"links": [], "services": 0}
    link_init = Link.__init__
    clone_service = peer_module._clone_service

    def counted_link(self, src, dst, *args):
        counts["links"].append((src, dst))
        link_init(self, src, dst, *args)

    def counted_service(service):
        counts["services"] += 1
        return clone_service(service)

    monkeypatch.setattr(Link, "__init__", counted_link)
    monkeypatch.setattr(peer_module, "_clone_service", counted_service)
    return counts


class TestTwinCost:
    """A twin builds only what its simulation touches."""

    def test_a_clone_builds_no_link_and_copies_no_service(self, built):
        system = six_peers()
        built["links"].clear()
        twin = system.clone()
        again = twin.clone()
        assert built == {"links": [], "services": 0}
        # the statistics walks build nothing either: an unbuilt link is idle
        for copy in (twin, again):
            copy.stats_snapshot()
            copy.network.peer_traffic()
        assert built == {"links": [], "services": 0}

    @pytest.mark.parametrize("builder", ["full_mesh", "ring"])
    def test_measure_builds_the_route_it_crosses(self, built, builder):
        system = six_peers(builder)
        hops = [(link.src, link.dst) for link in system.network.route("p0", "p2")]
        built["links"].clear()
        cost = measure(Plan(DocExpr("d", "p0"), "p2"), system)
        assert cost.messages == 1
        assert built["links"] == hops

    def test_one_service_call_copies_one_service(self, built):
        system = six_peers()
        twin = system.clone()
        assert built["services"] == 0
        call = ServiceCallExpr("p1", "s", (DocExpr("d", "p0"),))
        outcome = ExpressionEvaluator(twin).eval(call, "p1")
        assert [serialize(item) for item in outcome.items] == ["<n>2</n>"]
        assert built["services"] == 1
        assert twin.peer("p1").service("s").invocations == 1
        assert system.peer("p1").service("s").invocations == 0


class TestLazyAccounting:
    """A twin that built its links out of order still adds in fabric order."""

    #: bytes/second: a 100-byte message occupies its link for 0.1 s
    BANDWIDTH = 1000.0
    LINKS = [("a", "b"), ("a", "c"), ("a", "d")]
    #: (src, dst, wire bytes) in reverse fabric order, so the first-use
    #: order differs from add_link's
    SENDS = [("a", "d", 300), ("a", "c", 200), ("a", "b", 100)]

    def networks(self):
        def build():
            network = Network()
            for src, dst in self.LINKS:
                network.add_link(src, dst, latency=0.001, bandwidth=self.BANDWIDTH)
            return network

        eager, base = build(), build()
        lazy = base.clone()
        for network in (eager, lazy):
            for src, dst, size in self.SENDS:
                payload = size - Message.ENVELOPE_OVERHEAD
                network.deliver(Message(src, dst, MessageKind.DATA, payload))
        return eager, lazy

    def test_traffic_sums_in_fabric_order(self):
        eager, lazy = self.networks()
        assert [(l.src, l.dst) for l in lazy.built_links()] == [
            (src, dst) for src, dst, _ in self.SENDS
        ]
        busy = [size / self.BANDWIDTH for _src, _dst, size in self.SENDS]
        in_use_order = 0.0
        for duration in busy:
            in_use_order += duration
        in_fabric_order = 0.0
        for duration in reversed(busy):
            in_fabric_order += duration
        assert in_use_order != in_fabric_order  # the order is observable
        assert lazy.peer_traffic() == eager.peer_traffic()
        assert lazy.peer_traffic()["a"].link_busy_time == in_fabric_order

    def test_system_accounting_matches_an_eager_build(self):
        eager, lazy = self.networks()
        systems = []
        for network in (eager, lazy):
            system = AXMLSystem(network)
            for peer_id in "abcd":
                system.add_peer(peer_id)
            systems.append(system)
        assert systems[1].stats_snapshot() == systems[0].stats_snapshot()
        twins = [system.clone() for system in systems]
        assert twins[1].stats_snapshot() == twins[0].stats_snapshot()
        for twin in twins:
            for link in twin.network.links():
                assert link.busy_until == 0.0 and link.stats == LinkStats()
