"""Unit tests for the network simulator (repro.net)."""

import pytest

from repro.errors import NetworkError, NoRouteError, UnknownPeerError
from repro.net import Message, MessageKind, Network, topology, wire_size


class TestMessage:
    @pytest.mark.parametrize(
        "headers, header_bytes",
        [
            ({}, 0),
            ({"service": "lookup"}, 7 + 6 + 4),
            ({"döc": "naïve", "target": "n3@p1"}, (4 + 6 + 4) + (6 + 5 + 4)),
        ],
        ids=["no-headers", "one-header", "non-ascii-headers"],
    )
    def test_size_is_wire_size_fixed_at_construction(self, headers, header_bytes):
        message = Message("a", "b", "data", 10, headers)
        assert message.size == wire_size(10, headers)
        assert message.size == 10 + header_bytes + Message.ENVELOPE_OVERHEAD
        # a stored value, not a property re-deriving it on every read
        assert "size" in vars(message) and not hasattr(message, "payload")

    def test_deliver_charges_the_utf8_length_of_its_text(self):
        net = Network()
        net.add_link("a", "b")
        message = Message("a", "b", MessageKind.DATA, len("héllo".encode("utf-8")))
        net.deliver(message)
        assert message.payload_bytes == 6
        assert net.stats.bytes == message.size == wire_size(6, {})

    def test_size_includes_envelope(self):
        message = Message("a", "b", "data", 1)
        assert message.size == 1 + Message.ENVELOPE_OVERHEAD

    def test_size_includes_headers(self):
        plain = Message("a", "b", "data", 1)
        with_headers = Message("a", "b", "data", 1, {"k": "vvvv"})
        assert with_headers.size == plain.size + 1 + 4 + 4

    def test_sequence_numbers_increase(self):
        first = Message("a", "b", "data", 0)
        second = Message("a", "b", "data", 0)
        assert second.seq > first.seq


class TestLinks:
    def test_transfer_time_components(self):
        net = Network()
        net.add_link("a", "b", latency=0.1, bandwidth=1000.0)
        message = Message("a", "b", MessageKind.DATA, 936)  # 1000B total
        arrival = net.deliver(message, ready_at=0.0)
        assert arrival == pytest.approx(0.1 + 1.0)

    def test_fifo_serialization(self):
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=1000.0)
        m1 = Message("a", "b", MessageKind.DATA, 936)
        m2 = Message("a", "b", MessageKind.DATA, 936)
        t1 = net.deliver(m1, 0.0)
        t2 = net.deliver(m2, 0.0)  # queues behind m1
        assert t2 == pytest.approx(t1 + 1.0)

    def test_ready_at_delays_start(self):
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=1e9)
        arrival = net.deliver(Message("a", "b", MessageKind.DATA, 1), 5.0)
        assert arrival >= 5.0

    def test_loopback_is_free(self):
        net = Network()
        net.add_peer("a")
        arrival = net.deliver(Message("a", "a", MessageKind.DATA, 10000), 1.0)
        assert arrival == 1.0
        assert net.stats.messages == 0

    def test_reset_clocks_clears_busy(self):
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=100.0)
        net.deliver(Message("a", "b", MessageKind.DATA, 1000), 0.0)
        net.reset_clocks()
        assert net.link("a", "b").busy_until == 0.0


class TestRouting:
    def test_direct_link(self):
        net = Network()
        net.add_link("a", "b")
        assert [l.dst for l in net.route("a", "b")] == ["b"]

    def test_multi_hop(self):
        net = Network()
        net.add_link("a", "b")
        net.add_link("b", "c")
        assert [l.dst for l in net.route("a", "c")] == ["b", "c"]

    def test_prefers_fast_path(self):
        net = Network()
        net.add_link("a", "c", latency=1.0)           # slow direct
        net.add_link("a", "b", latency=0.01)
        net.add_link("b", "c", latency=0.01)
        assert [l.dst for l in net.route("a", "c")] == ["b", "c"]

    def test_no_route(self):
        net = Network()
        net.add_peer("a")
        net.add_peer("z")
        with pytest.raises(NoRouteError):
            net.route("a", "z")

    def test_unknown_peer(self):
        net = Network()
        net.add_peer("a")
        with pytest.raises(UnknownPeerError):
            net.route("a", "ghost")

    def test_self_route_empty(self):
        net = Network()
        net.add_peer("a")
        assert net.route("a", "a") == []

    def test_asymmetric_links(self):
        net = Network()
        net.add_link("a", "b", symmetric=False)
        net.route("a", "b")
        with pytest.raises(NoRouteError):
            net.route("b", "a")


class TestRouteMemo:
    """Routes are searched once per (src, dst) per topology."""

    @staticmethod
    def count_searches(monkeypatch):
        searches = []
        original = Network._cheapest_hops

        def counted(self, src, dst):
            searches.append((src, dst))
            return original(self, src, dst)

        monkeypatch.setattr(Network, "_cheapest_hops", counted)
        return searches

    def test_each_pair_is_searched_once(self, monkeypatch):
        net = topology.line(["a", "b", "c"])
        net.add_peer("z")  # known, but linked to nothing
        searches = self.count_searches(monkeypatch)
        for _ in range(3):
            assert [l.dst for l in net.route("a", "c")] == ["b", "c"]
            net.deliver(Message("c", "a", MessageKind.DATA, 10))
            with pytest.raises(NoRouteError):
                net.route("a", "z")
        assert searches == [("a", "c"), ("c", "a"), ("a", "z")]

    def test_add_link_after_a_route_reroutes(self):
        net = Network()
        net.add_link("a", "b", latency=0.01)
        net.add_link("b", "c", latency=0.01)
        assert [l.dst for l in net.route("a", "c")] == ["b", "c"]
        net.add_link("a", "c", latency=0.001)  # a faster direct link
        assert [l.dst for l in net.route("a", "c")] == ["c"]
        net.add_link("a", "c", latency=1.0)  # re-linked: slow again
        assert [l.dst for l in net.route("a", "c")] == ["b", "c"]
        assert net.link("a", "c").latency == 1.0

    def test_link_quality_cannot_be_edited_in_place(self):
        net = Network()
        net.add_link("a", "b", latency=0.02, bandwidth=500.0)
        link = net.link("a", "b")
        for quality in ("latency", "bandwidth"):
            with pytest.raises(NetworkError, match="add_link"):
                setattr(link, quality, 1.0)
        assert (link.latency, link.bandwidth) == (0.02, 500.0)
        link.busy_until = 3.0  # simulator state stays writable

    def test_a_clone_shares_routes_not_clocks(self, monkeypatch):
        net = topology.ring(["a", "b", "c", "d"])
        net.route("a", "c")
        searches = self.count_searches(monkeypatch)
        twin = net.clone()
        assert [l.dst for l in twin.route("a", "c")] == [
            l.dst for l in net.route("a", "c")
        ]
        assert searches == []  # the twin read the original's memo
        twin.deliver(Message("a", "c", MessageKind.DATA, 100))
        assert all(l.busy_until == 0.0 and l.stats.messages == 0 for l in net.links())
        assert twin.route("a", "c")[0] is twin.link("a", "b")
        # re-linking one side leaves the other's topology alone
        twin.add_link("a", "c", latency=0.0001)
        assert len(twin.route("a", "c")) == 1 and len(net.route("a", "c")) == 2


class TestStats:
    def test_per_kind_accounting(self):
        net = Network()
        net.add_link("a", "b")
        net.deliver(Message("a", "b", MessageKind.DATA, 5))
        net.deliver(Message("a", "b", MessageKind.QUERY, 1))
        assert net.stats.messages == 2
        assert net.stats.by_kind[MessageKind.DATA] == 1
        assert net.stats.by_kind[MessageKind.QUERY] == 1
        assert net.stats.bytes_by_kind[MessageKind.DATA] > net.stats.bytes_by_kind[MessageKind.QUERY]

    def test_link_stats(self):
        net = Network()
        net.add_link("a", "b", bandwidth=1000.0)
        net.deliver(Message("a", "b", MessageKind.DATA, 100))
        link = net.link("a", "b")
        assert link.stats.messages == 1
        assert link.stats.bytes == 100 + Message.ENVELOPE_OVERHEAD

    def test_reset_stats(self):
        net = Network()
        net.add_link("a", "b")
        net.deliver(Message("a", "b", MessageKind.DATA, 1))
        net.reset_stats()
        assert net.stats.messages == 0
        assert net.link("a", "b").stats.messages == 0

    def test_log_when_enabled(self):
        net = Network()
        net.add_link("a", "b")
        net.keep_log = True
        net.deliver(Message("a", "b", MessageKind.DATA, 1))
        assert len(net.log) == 1


class TestTopologies:
    PEERS = ["p0", "p1", "p2", "p3"]

    def test_full_mesh_connects_all(self):
        net = topology.full_mesh(self.PEERS)
        for a in self.PEERS:
            for b in self.PEERS:
                if a != b:
                    assert len(net.route(a, b)) == 1

    def test_star_routes_through_hub(self):
        net = topology.star(self.PEERS)
        assert [l.dst for l in net.route("p1", "p2")] == ["p0", "p2"]

    def test_star_needs_peers(self):
        with pytest.raises(NetworkError):
            topology.star([])

    def test_ring_goes_around(self):
        net = topology.ring(self.PEERS)
        assert len(net.route("p0", "p2")) == 2

    def test_line_hop_count(self):
        net = topology.line(self.PEERS)
        assert len(net.route("p0", "p3")) == 3

    def test_clustered_crosses_clusters_through_gateways(self):
        # p0, p2 form one cluster and p1, p3 the other; p0 and p1 bridge
        net = topology.clustered(self.PEERS, clusters=2)
        assert len(net.route("p0", "p2")) == 1
        assert [l.dst for l in net.route("p2", "p3")] == ["p0", "p1", "p3"]

    def test_clustered_needs_peers_and_a_cluster(self):
        with pytest.raises(NetworkError):
            topology.clustered([])
        with pytest.raises(NetworkError):
            topology.clustered(self.PEERS, clusters=0)

    def test_full_mesh_takes_the_link_latency(self):
        net = topology.full_mesh(["a", "b"], latency=0.5)
        assert net.link("a", "b").latency == 0.5


class TestRoutingRegressions:
    """Multi-hop store-and-forward and FIFO edge cases (regression pins)."""

    def test_store_and_forward_sums_per_hop_costs(self):
        # a -> b -> c: the message fully arrives at b before b -> c starts.
        net = Network()
        net.add_link("a", "b", latency=0.1, bandwidth=1000.0)
        net.add_link("b", "c", latency=0.2, bandwidth=500.0)
        message = Message("a", "c", MessageKind.DATA, 936)  # 1000B total
        arrival = net.deliver(message, ready_at=0.0)
        assert arrival == pytest.approx((1.0 + 0.1) + (2.0 + 0.2))

    def test_store_and_forward_charges_every_hop(self):
        net = Network()
        net.add_link("a", "b")
        net.add_link("b", "c")
        net.deliver(Message("a", "c", MessageKind.DATA, 100))
        # per-message accounting counts once; per-link counts both hops
        assert net.stats.messages == 1
        assert net.link("a", "b").stats.messages == 1
        assert net.link("b", "c").stats.messages == 1

    def test_fifo_queueing_on_shared_relay_link(self):
        # two relayed transfers serialize on the shared middle link
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=1e9)
        net.add_link("b", "c", latency=0.0, bandwidth=1000.0)
        m1 = Message("a", "c", MessageKind.DATA, 936)  # 1s on b->c
        m2 = Message("a", "c", MessageKind.DATA, 936)
        t1 = net.deliver(m1, 0.0)
        t2 = net.deliver(m2, 0.0)
        assert t2 == pytest.approx(t1 + 1.0)

    def test_fifo_queue_drains_in_arrival_order(self):
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=1000.0)
        early = net.deliver(Message("a", "b", MessageKind.DATA, 936), 0.0)
        late = net.deliver(Message("a", "b", MessageKind.DATA, 936), 10.0)
        # the late transfer finds a free link: no phantom queueing remains
        assert early == pytest.approx(1.0)
        assert late == pytest.approx(11.0)

    def test_zero_bandwidth_link_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link("a", "b", bandwidth=0.0)

    def test_negative_bandwidth_link_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link("a", "b", bandwidth=-5.0)

    def test_negative_latency_link_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link("a", "b", latency=-0.1)

    def test_self_transfer_occupies_no_links(self):
        net = Network()
        net.add_link("a", "b", latency=0.0, bandwidth=1000.0)
        arrival = net.deliver(Message("a", "a", MessageKind.DATA, 5000), 2.0)
        assert arrival == 2.0
        assert net.stats.messages == 0
        assert net.link("a", "b").busy_until == 0.0

    def test_deliver_to_disconnected_peer_raises_no_route(self):
        net = Network()
        net.add_link("a", "b")
        net.add_peer("island")
        with pytest.raises(NoRouteError):
            net.deliver(Message("a", "island", MessageKind.DATA, 1))

    def test_disconnected_component_unreachable_both_ways(self):
        net = Network()
        net.add_link("a", "b")
        net.add_link("x", "y")
        with pytest.raises(NoRouteError):
            net.route("a", "y")
        with pytest.raises(NoRouteError):
            net.route("y", "a")
