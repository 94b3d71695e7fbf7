"""Unit tests for peers, services, the registry, and the system state Σ."""

import pytest

import repro

from repro.errors import (
    DuplicateNameError,
    FrozenTreeError,
    GenericResolutionError,
    NetworkError,
    ServiceCallError,
    SessionError,
    UnknownDocumentError,
    UnknownPeerError,
    UnknownServiceError,
    ValidationError,
)
from repro.net import Message, MessageKind, Network
from repro.peers import (
    AXMLSystem,
    DeclarativeService,
    FirstPolicy,
    LeastLoadedPolicy,
    NativeService,
    NearestPolicy,
    Peer,
    RandomPolicy,
)
from repro.xmlcore import (
    ANY,
    Element,
    ElementType,
    NodeId,
    Schema,
    Signature,
    element,
    equivalent,
    iter_elements,
    parse,
    serialize,
)
from repro.xquery import Query


class TestPeerDocuments:
    def test_install_and_fetch(self):
        peer = Peer("p")
        tree = parse("<a/>")
        peer.install_document("d", tree)
        assert peer.document("d") is tree

    def test_install_assigns_node_ids(self):
        peer = Peer("p")
        tree = parse("<a><b/></a>")
        peer.install_document("d", tree)
        assert tree.node_id is not None
        assert tree.element_children[0].node_id is not None

    def test_duplicate_name_rejected(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a/>"))
        with pytest.raises(DuplicateNameError):
            peer.install_document("d", parse("<b/>"))

    def test_replace_allowed_when_asked(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a/>"))
        peer.install_document("d", parse("<b/>"), replace=True)
        assert peer.document("d").tag == "b"

    def test_unknown_document(self):
        with pytest.raises(UnknownDocumentError):
            Peer("p").document("ghost")

    def test_fresh_document_name(self):
        peer = Peer("p")
        name = peer.fresh_document_name("tmp")
        peer.install_document(name, parse("<a/>"))
        assert peer.fresh_document_name("tmp") != name

    def test_deliver_appends_a_fresh_copy_under_the_target(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a><b/></a>"))
        target = peer.document("d").element_children[0]
        item = parse("<item>1</item>")
        copy = peer.deliver(target.node_id, item)
        assert copy is not item and copy.tag == "item"
        assert copy.node_id.peer == "p"
        host = peer.document("d").element_children[0]
        assert host.node_id == target.node_id
        assert host.element_children == [copy]

    def test_deliver_to_another_peers_node_returns_none(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a/>"))
        assert peer.deliver(NodeId("other", 1), parse("<x/>")) is None
        assert peer.document("d").children == []

    def test_deliver_to_an_unknown_node_returns_none(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a/>"))
        assert peer.deliver(NodeId("p", 999), parse("<x/>")) is None
        assert peer.document("d").children == []

    def test_drop_document(self):
        peer = Peer("p")
        peer.install_document("d", parse("<a/>"))
        peer.drop_document("d")
        assert not peer.has_document("d")


class TestPeerServices:
    def test_install_query_service(self):
        peer = Peer("p")
        service = peer.install_query_service(
            "echo", "declare variable $x external; <out>{$x}</out>", params=("x",)
        )
        assert peer.service("echo") is service
        assert service.provider is peer
        assert isinstance(service, DeclarativeService)

    def test_duplicate_service_rejected(self):
        peer = Peer("p")
        peer.install_query_service("s", "1")
        with pytest.raises(DuplicateNameError):
            peer.install_query_service("s", "2")

    def test_unknown_service(self):
        with pytest.raises(UnknownServiceError):
            Peer("p").service("ghost")

    def test_declarative_invoke_wraps_atomics(self):
        peer = Peer("p")
        service = peer.install_query_service("calc", "1 + 1")
        (result,) = service.invoke([], peer)
        assert result.tag == "value" and result.string_value() == "2"

    def test_declarative_uses_host_documents(self):
        peer = Peer("p")
        peer.install_document("data", parse("<d><x>5</x></d>"))
        service = peer.install_query_service("get", 'doc("data")//x')
        (result,) = service.invoke([], peer)
        assert result.string_value() == "5"

    def test_native_service(self):
        peer = Peer("p")

        def impl(params, host):
            return [element("pong")]

        peer.install_service(NativeService("ping", impl))
        (result,) = peer.service("ping").invoke([], peer)
        assert result.tag == "pong"
        assert not isinstance(peer.service("ping"), DeclarativeService)

    def test_native_service_bad_return(self):
        peer = Peer("p")
        peer.install_service(NativeService("bad", lambda p, h: "nope"))
        with pytest.raises(ServiceCallError):
            peer.service("bad").invoke([], peer)

    def test_typed_signature_enforced(self):
        schema = Schema()
        schema.define("in", ElementType("q", ANY))
        schema.define("out", ElementType("r", ANY))
        signature = Signature(inputs=("in",), output="out", schema=schema)
        peer = Peer("p")
        service = DeclarativeService(
            "typed",
            Query("declare variable $x external; <r>{$x}</r>", params=("x",)),
            signature,
        )
        peer.install_service(service)
        service.invoke([parse("<q/>")], peer)
        with pytest.raises(ValidationError):
            service.invoke([parse("<wrong/>")], peer)

    def test_work_units_scale_with_input(self):
        peer = Peer("p")
        service = peer.install_query_service(
            "s", "declare variable $x external; count($x)", params=("x",)
        )
        small = service.work_units([parse("<a/>")])
        big = service.work_units([parse("<a>" + "<b/>" * 50 + "</a>")])
        assert big > small

    def test_doc_names_are_walked_once_per_module(self, monkeypatch):
        from repro.peers import service as service_module

        source = (
            "declare function local:f() { doc('inv') }; "
            "for $i in doc('cat')//i return (local:f(), doc($i))"
        )
        query = Query(source)
        walks = []
        real = service_module._walk_doc_names
        monkeypatch.setattr(
            service_module, "_walk_doc_names",
            lambda module: walks.append(module) or real(module),
        )
        assert service_module._doc_references(query) == ("cat", "inv")
        # a relabelled copy shares the parsed module, and its names
        assert service_module._doc_references(query.copy("other")) == ("cat", "inv")
        assert walks == [query.module]
        assert query.module.doc_names == ("cat", "inv")
        assert query.module == Query(source).module  # not part of equality


class TestPeerCompute:
    def test_charge_serializes_cpu(self):
        peer = Peer("p", compute_speed=100.0)
        t1 = peer.charge(50, ready_at=0.0)   # 0.5s
        t2 = peer.charge(50, ready_at=0.0)   # starts at 0.5
        assert t1 == pytest.approx(0.5)
        assert t2 == pytest.approx(1.0)

    def test_charge_waits_for_ready(self):
        peer = Peer("p", compute_speed=100.0)
        done = peer.charge(10, ready_at=2.0)
        assert done == pytest.approx(2.1)

    def test_evaluate_returns_result_and_time(self):
        peer = Peer("p")
        result, done = peer.evaluate(Query("2 + 2"))
        assert result == [4] and done > 0

    def test_job_queue_counts_down_to_zero(self):
        peer = Peer("p")
        assert peer.enqueue_job() == 1
        assert peer.enqueue_job() == 2
        assert peer.dequeue_job() == 1
        assert peer.dequeue_job() == 0
        assert peer.dequeue_job() == 0


class TestRegistry:
    def _system(self):
        system = AXMLSystem.with_peers(["near", "far", "me"])
        # make 'far' genuinely far
        system.network.add_link("me", "far", latency=1.0)
        for peer, doc in (("near", "dn"), ("far", "df")):
            system.peer(peer).install_document(doc, parse("<mirror/>"))
            system.registry.register_document("mirror", doc, peer)
        return system

    def test_first_policy_registration_order(self):
        system = self._system()
        member = system.registry.pick_document("mirror", "me", system, FirstPolicy())
        assert member.peer == "near"

    def test_nearest_policy(self):
        system = self._system()
        member = system.registry.pick_document("mirror", "me", system, NearestPolicy())
        assert member.peer == "near"

    def test_nearest_prefers_self(self):
        system = self._system()
        system.peer("me").install_document("dm", parse("<mirror/>"))
        system.registry.register_document("mirror", "dm", "me")
        member = system.registry.pick_document("mirror", "me", system, NearestPolicy())
        assert member.peer == "me"

    def test_random_policy_seeded(self):
        system = self._system()
        a = [
            system.registry.pick_document("mirror", "me", system, RandomPolicy(3)).peer
            for _ in range(5)
        ]
        b = [
            system.registry.pick_document("mirror", "me", system, RandomPolicy(3)).peer
            for _ in range(5)
        ]
        assert a == b

    def test_least_loaded_policy(self):
        system = self._system()
        system.peer("near").busy_until = 100.0
        member = system.registry.pick_document(
            "mirror", "me", system, LeastLoadedPolicy()
        )
        assert member.peer == "far"

    def test_empty_class_raises(self):
        system = self._system()
        with pytest.raises(GenericResolutionError):
            system.registry.pick_document("ghost", "me", system)

    def test_service_registration(self):
        system = self._system()
        system.peer("near").install_query_service("s1", "1")
        system.registry.register_service("calc", "s1", "near")
        member = system.registry.pick_service("calc", "me", system)
        assert member.peer == "near"

    def test_unregister_document(self):
        system = self._system()
        system.registry.unregister_document("mirror", "dn", "near")
        members = system.registry.document_members("mirror")
        assert all(m.peer != "near" for m in members)

    def test_equivalence_check_consistent(self):
        system = self._system()
        assert system.registry.check_document_equivalence("mirror", system)

    def test_equivalence_check_detects_divergence(self):
        system = self._system()
        system.peer("far").document("df").append(element("extra"))
        assert not system.registry.check_document_equivalence("mirror", system)


class TestSystem:
    def test_with_peers_topologies(self):
        for topo in ("full_mesh", "star", "ring", "line", "clustered"):
            system = AXMLSystem.with_peers(["a", "b", "c"], topology=topo)
            assert sorted(system.peers) == ["a", "b", "c"]

    # names the topology module defines that are not builders fail alike
    @pytest.mark.parametrize("name", ["bogus", "Network", "DEFAULT_LATENCY", "List"])
    def test_unknown_topology(self, name):
        with pytest.raises(NetworkError, match="pick one of clustered, full_mesh"):
            AXMLSystem.with_peers(["a"], topology=name)
        with pytest.raises(NetworkError):
            repro.connect(peers=["a", "b"], topology=name)

    # a keyword the topology's builder does not take is named, with the
    # ones it does
    @pytest.mark.parametrize("topology, accepted", [
        ("full_mesh", "latency, bandwidth"), ("star", "hub, latency, bandwidth"),
    ])
    def test_unknown_topology_keyword(self, topology, accepted):
        message = f"topology '{topology}' takes no bogus; it accepts {accepted}$"
        with pytest.raises(NetworkError, match=message):
            AXMLSystem.with_peers(["a", "b"], topology, bogus=1)

    # connect() passes on only Session's keywords, with or without a system
    def test_connect_names_the_keywords_session_takes(self):
        message = "connect\\(\\) takes no bogus; Session accepts strategy, verify, "
        with pytest.raises(SessionError, match=message):
            repro.connect(AXMLSystem.with_peers(["a", "b"]), bogus=1)
        with pytest.raises(SessionError, match=message):
            repro.connect(peers=["a", "b"], bogus=1, verify=True)

    def test_unknown_peer(self):
        with pytest.raises(UnknownPeerError):
            AXMLSystem().peer("ghost")

    def test_add_peer_idempotent(self):
        system = AXMLSystem()
        first = system.add_peer("a")
        assert system.add_peer("a") is first

    def test_snapshot_equal_for_equal_states(self):
        s1 = AXMLSystem.with_peers(["a"])
        s2 = AXMLSystem.with_peers(["a"])
        s1.peer("a").install_document("d", parse("<r><x/><y/></r>"))
        s2.peer("a").install_document("d", parse("<r><y/><x/></r>"))  # reordered
        assert s1.snapshot() == s2.snapshot()

    def test_snapshot_differs_on_content(self):
        s1 = AXMLSystem.with_peers(["a"])
        s2 = AXMLSystem.with_peers(["a"])
        s1.peer("a").install_document("d", parse("<r>1</r>"))
        s2.peer("a").install_document("d", parse("<r>2</r>"))
        assert s1.snapshot() != s2.snapshot()

    def test_clone_is_deep(self):
        # observationally deep: an edit made through the owning accessor
        # on either side never shows on the other
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document("d", parse("<r/>"))
        twin = system.clone()
        twin.peer("a").own_document("d").append(element("new"))
        assert serialize(system.peer("a").document("d"), with_ids=False) == "<r/>"
        assert not equivalent(
            system.peer("a").document("d"), twin.peer("a").document("d")
        )
        system.peer("a").own_document("d").append(element("other"))
        assert [c.tag for c in twin.peer("a").document("d").children] == ["new"]
        assert [c.tag for c in system.peer("a").document("d").children] == ["other"]

    def test_clone_copies_services_and_registry(self):
        system = AXMLSystem.with_peers(["a"])
        system.peer("a").install_query_service("s", "1 + 1")
        system.peer("a").install_document("d", parse("<m/>"))
        system.registry.register_document("g", "d", "a")
        twin = system.clone()
        assert twin.peer("a").has_service("s")
        assert twin.registry.document_members("g")

    def test_clone_preserves_link_quality(self):
        system = AXMLSystem.with_peers(["a", "b"], bandwidth=123.0)
        twin = system.clone()
        assert twin.network.link("a", "b").bandwidth == 123.0

    def test_clone_rebuilds_no_topology(self, monkeypatch):
        system = AXMLSystem.with_peers(["a", "b", "c"], topology="ring")
        added = []
        monkeypatch.setattr(Network, "add_link", lambda *args, **kw: added.append(args))
        twin = system.clone().clone()
        assert added == []
        quality = lambda net: [(l.src, l.dst, l.latency, l.bandwidth) for l in net.links()]
        assert quality(twin.network) == quality(system.network)
        # fresh link objects: clocks and statistics are the twin's own
        assert not {id(l) for l in twin.network.links()} & {
            id(l) for l in system.network.links()
        }

    def test_clone_peers_start_idle(self):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").charge(1000)
        system.peer("a").enqueue_job()
        twin = system.clone()
        assert twin.peer("a").busy_until == 0.0
        assert twin.peer("a").queued == 0
        assert system.peer("a").queued == 1


class TestCloneIndependence:
    """clone() must hand back a measurement-independent twin of Σ."""

    def build(self):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document("d", parse("<r><x/></r>"))
        return system

    def test_clone_starts_with_clean_accounting(self):
        system = self.build()
        system.network.deliver(Message("a", "b", MessageKind.DATA, 500))
        system.peer("a").charge(5000)
        system.clock = 3.0
        twin = system.clone()
        assert twin.network.stats.messages == 0
        assert twin.peer("a").work_done == 0
        assert twin.peer("a").busy_until == 0.0
        assert twin.clock == 0.0

    def test_traffic_on_original_never_reaches_the_clone(self):
        system = self.build()
        twin = system.clone()
        system.network.deliver(Message("a", "b", MessageKind.DATA, 500))
        system.peer("b").charge(100)
        assert twin.network.stats.bytes == 0
        assert twin.network.link("a", "b").stats.messages == 0
        assert twin.peer("b").work_done == 0

    def test_traffic_on_clone_never_reaches_the_original(self):
        system = self.build()
        twin = system.clone()
        twin.network.deliver(Message("b", "a", MessageKind.DATA, 200))
        twin.peer("a").charge(100)
        twin.clock = 9.0
        assert system.network.stats.messages == 0
        assert system.peer("a").work_done == 0
        assert system.peer("a").busy_until == 0.0
        assert system.clock == 0.0

    def test_clone_of_a_busy_clone_leaves_it_busy(self):
        system = self.build()
        twin = system.clone()
        twin.network.deliver(Message("a", "b", MessageKind.DATA, 500))
        twin.peer("a").charge(2000)
        grandchild = twin.clone()
        assert grandchild.network.stats.messages == 0
        assert grandchild.peer("a").work_done == 0
        assert twin.network.stats.messages == 1
        assert twin.peer("a").work_done == 2000
        assert twin.peer("a").busy_until > 0.0

    def test_clone_documents_share_no_nodes(self):
        # ... that either side could change: the read path hands out the
        # shared tree, frozen; the owning accessor hands out a private one
        system = self.build()
        twin = system.clone()
        shared = system.peer("a").document("d")
        assert twin.peer("a").document("d") is shared
        with pytest.raises(FrozenTreeError):
            shared.append(element("y"))
        with pytest.raises(FrozenTreeError):
            shared.element_children[0].set_attr("k", "v")
        owned = twin.peer("a").own_document("d")
        assert twin.peer("a").document("d") is owned
        assert system.peer("a").document("d") is shared
        original_ids = {id(n) for n in iter_elements(shared)}
        owned_ids = {id(n) for n in iter_elements(owned)}
        assert not original_ids & owned_ids
        owned.append(element("y"))
        assert serialize(shared, with_ids=False) == "<r><x/></r>"
