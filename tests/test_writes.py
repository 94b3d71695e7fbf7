"""Tests for the mutable-document write path (repro.writes).

Covers the single-tree edit primitive, DocumentWriter routing (whole
documents, fragmented documents, replica coherence, catalog refresh),
document epochs as the cache-invalidation mechanism (plan keys, cost
memos, doc-size entries), the Session/engine integration, the seeded
read/write-mix scenario family, the differential write sweep against a
rebuild-from-scratch baseline, the fragment-prune soundness invariant
under writes (the stale-stats regression), and, under ``-m perf``, the
incremental path's wall time against drop-and-refragment.
"""

import random
import time

import pytest

from repro import connect
from repro.core.planspace import doc_epoch_signature
from repro.core.expressions import DocExpr, FragmentedDoc, GenericDoc
from repro.dist import Fragmenter
from repro.dist.pruning import fragment_can_match
from repro.errors import (
    DifferentialMismatchError,
    FragmentUnavailableError,
    SessionError,
    UnknownDocumentError,
    WriteError,
)
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import (
    WRITE_MIX_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.writes import (
    DeleteOp,
    DocumentWriter,
    InsertOp,
    UpdateOp,
    apply_to_tree,
    op_kind,
)
from repro.xmlcore import element, parse, serialize

QUERY = "for $i in $d//item where $i/price >= 0 return $i/name"


def catalog_doc(n=12):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


def fragmented_system(replicas=0, n=12, keep_original=True):
    system = AXMLSystem.with_peers(
        ["client", "d0", "d1", "d2"], bandwidth=200_000.0, latency=0.01
    )
    system.peer("d0").install_document("cat", catalog_doc(n))
    Fragmenter(system).fragment(
        "cat", "d0", ["d0", "d1", "d2"],
        replicas=replicas, keep_original=keep_original,
    )
    return system


def new_item(name, price):
    return element("item", element("name", name), element("price", str(price)))


def item_names(root):
    return [
        item.child_by_tag("name").string_value()
        for item in root.element_children
    ]


# ---------------------------------------------------------------------------
# the shared edit primitive
# ---------------------------------------------------------------------------


class TestApplyToTree:
    def test_insert_at_ordinal(self):
        root = catalog_doc(3)
        apply_to_tree(root, InsertOp("cat", new_item("x", 9), 1))
        assert item_names(root) == ["n0", "x", "n1", "n2"]

    def test_insert_none_appends(self):
        root = catalog_doc(2)
        apply_to_tree(root, InsertOp("cat", new_item("x", 9)))
        assert item_names(root) == ["n0", "n1", "x"]

    def test_inserted_item_is_id_free_copy(self):
        root = catalog_doc(1)
        item = new_item("x", 9)
        apply_to_tree(root, InsertOp("cat", item, 0))
        assert root.element_children[0] is not item
        assert root.element_children[0].node_id is None

    def test_update_replaces_existing_field(self):
        root = catalog_doc(3)
        apply_to_tree(root, UpdateOp("cat", 1, "price", "777"))
        assert root.element_children[1].child_by_tag("price").string_value() == "777"

    def test_update_appends_missing_field(self):
        root = catalog_doc(2)
        apply_to_tree(root, UpdateOp("cat", 0, "stock", "3"))
        assert root.element_children[0].child_by_tag("stock").string_value() == "3"

    def test_delete(self):
        root = catalog_doc(3)
        apply_to_tree(root, DeleteOp("cat", 1))
        assert item_names(root) == ["n0", "n2"]

    def test_offset_maps_absolute_ordinal_to_fragment_slice(self):
        root = catalog_doc(4)  # stands in for a fragment covering [10, 14)
        apply_to_tree(root, UpdateOp("cat", 12, "price", "5"), offset=10)
        assert root.element_children[2].child_by_tag("price").string_value() == "5"

    @pytest.mark.parametrize("op", [
        InsertOp("cat", new_item("x", 1), 5),
        UpdateOp("cat", 4, "price", "1"),
        DeleteOp("cat", -1),
    ])
    def test_out_of_bounds_raises_write_error(self, op):
        with pytest.raises(WriteError):
            apply_to_tree(catalog_doc(3), op)

    def test_op_kind(self):
        assert op_kind(InsertOp("d", new_item("x", 1))) == "insert"
        assert op_kind(UpdateOp("d", 0, "t", "v")) == "update"
        assert op_kind(DeleteOp("d", 0)) == "delete"
        with pytest.raises(WriteError):
            op_kind("not an op")


# ---------------------------------------------------------------------------
# whole-document writes
# ---------------------------------------------------------------------------


class TestWholeDocumentWrites:
    def plain_system(self):
        system = AXMLSystem.with_peers(["client", "d0", "d1"])
        system.peer("d0").install_document("cat", catalog_doc(4))
        return system

    def test_update_mutates_host_and_bumps_epoch(self):
        system = self.plain_system()
        result = DocumentWriter(system).apply(UpdateOp("cat", 2, "price", "99"))
        tree = system.peer("d0").documents["cat"]
        assert tree.element_children[2].child_by_tag("price").string_value() == "99"
        assert result.fragment is None
        assert result.primary == "d0"
        assert result.epoch == 1
        assert system.doc_epoch("cat") == 1
        assert system.doc_epoch("other") == 0

    def test_same_name_copies_receive_charged_delta(self):
        system = self.plain_system()
        system.peer("d1").install_document(
            "cat", system.peer("d0").documents["cat"].copy_without_ids()
        )
        result = DocumentWriter(system).apply(DeleteOp("cat", 0), now=1.0)
        assert result.replicas == ("d1",)
        assert result.settled_at > 1.0  # the delta paid latency + bytes
        assert serialize(system.peer("d1").documents["cat"]) == serialize(
            system.peer("d0").documents["cat"]
        )

    def test_generic_mirrors_receive_delta(self):
        system = self.plain_system()
        mirror = system.peer("d0").documents["cat"].copy_without_ids()
        system.peer("d1").install_document("cat.r1", mirror)
        system.registry.register_document("g-cat", "cat", "d0")
        system.registry.register_document("g-cat", "cat.r1", "d1")
        result = DocumentWriter(system).apply(UpdateOp("cat", 1, "price", "5"))
        assert "d1" in result.replicas
        assert set(result.touched) == {"cat", "g-cat", "cat.r1"}
        assert system.doc_epoch("g-cat") == 1
        assert serialize(system.peer("d1").documents["cat.r1"]) == serialize(
            system.peer("d0").documents["cat"]
        )

    def test_unknown_document_raises(self):
        with pytest.raises(UnknownDocumentError):
            DocumentWriter(self.plain_system()).apply(DeleteOp("ghost", 0))


# ---------------------------------------------------------------------------
# fragmented-document writes
# ---------------------------------------------------------------------------


class TestFragmentedWrites:
    def test_update_routes_to_owning_fragment(self):
        system = fragmented_system()
        result = Session(system).update("cat", 5, "price", "9999")
        assert result.fragment == "cat.f1"
        assert result.primary == "d1"
        f1 = system.peer("d1").documents["cat.f1"]
        assert f1.element_children[1].child_by_tag("price").string_value() == "9999"
        # the whole-doc baseline kept at the home is edited too
        baseline = system.peer("d0").documents["cat"]
        assert baseline.element_children[5].child_by_tag("price").string_value() == "9999"

    def test_insert_shifts_downstream_ordinals(self):
        system = fragmented_system()  # 12 items -> (0,4) (4,8) (8,12)
        Session(system).insert("cat", new_item("x", 50), ordinal=0)
        info = system.fragments.info("cat")
        assert info.total_items == 13
        assert [f.ordinals for f in info.fragments] == [(0, 5), (5, 9), (9, 13)]
        assert [f.count for f in info.fragments] == [5, 4, 4]

    def test_append_lands_in_last_fragment(self):
        system = fragmented_system()
        result = Session(system).insert("cat", new_item("tail", 50))
        assert result.fragment == "cat.f2"
        assert result.ordinal == 12
        f2 = system.peer("d2").documents["cat.f2"]
        assert item_names(f2)[-1] == "tail"

    def test_delete_shrinks_owner_and_shifts(self):
        system = fragmented_system()
        Session(system).delete("cat", 4)
        info = system.fragments.info("cat")
        assert [f.ordinals for f in info.fragments] == [(0, 4), (4, 7), (7, 11)]
        assert item_names(system.peer("d1").documents["cat.f1"]) == ["n5", "n6", "n7"]

    def test_stats_refresh_tracks_new_values(self):
        system = fragmented_system()
        before = system.fragments.info("cat").fragments[1]
        assert before.bounds("price") == (4.0, 7.0)
        Session(system).update("cat", 5, "price", "9999")
        after = system.fragments.info("cat").fragments[1]
        assert after.bounds("price") == (4.0, 9999.0)

    def test_replicas_stay_byte_identical_and_ship_is_charged(self):
        system = fragmented_system(replicas=1)
        result = Session(system).update("cat", 5, "price", "123")
        assert result.replicas  # at least the fragment mirror
        assert result.settled_at > 0.0
        owner = system.fragments.info("cat").fragments[1]
        copies = [
            serialize(system.peer(pid).documents[owner.name])
            for pid in owner.peers
        ]
        assert len(set(copies)) == 1

    def test_out_of_bounds_ordinal_raises(self):
        system = fragmented_system()
        with pytest.raises(WriteError):
            Session(system).delete("cat", 12)
        with pytest.raises(WriteError):
            Session(system).insert("cat", new_item("x", 1), ordinal=13)

    def test_write_then_query_sees_the_write(self):
        system = fragmented_system()
        session = connect(system)
        before = session.query(QUERY, at="client", bind={"d": "cat@dist"}).answers
        session.insert("cat", new_item("brand-new", 3), ordinal=2)
        after = session.query(QUERY, at="client", bind={"d": "cat@dist"}).answers
        assert "<name>brand-new</name>" in after
        assert len(after) == len(before) + 1


# ---------------------------------------------------------------------------
# epochs: exact cache invalidation
# ---------------------------------------------------------------------------


class TestEpochs:
    def test_epoch_bump_and_clone(self):
        system = AXMLSystem.with_peers(["p"])
        assert system.doc_epoch("cat") == 0
        assert system.bump_doc_epoch("cat") == 1
        twin = system.clone()
        assert twin.doc_epoch("cat") == 1
        twin.bump_doc_epoch("cat")
        assert system.doc_epoch("cat") == 1  # clones do not alias

    def test_signature_empty_without_writes(self):
        system = AXMLSystem.with_peers(["p"])
        assert doc_epoch_signature(system, DocExpr("cat", "p")) == ""

    def test_signature_names_only_touched_docs(self):
        system = AXMLSystem.with_peers(["p"])
        system.bump_doc_epoch("cat")
        system.bump_doc_epoch("cat")
        assert doc_epoch_signature(system, DocExpr("cat", "p")) == "cat:2"
        assert doc_epoch_signature(system, DocExpr("inv", "p")) == ""
        assert doc_epoch_signature(system, GenericDoc("cat")) == "cat:2"
        assert doc_epoch_signature(system, FragmentedDoc("cat")) == "cat:2"

    def test_write_invalidates_only_the_touched_docs_memos(self):
        system = AXMLSystem.with_peers(["client", "d0", "d1"])
        system.peer("d0").install_document("cat", catalog_doc(6))
        system.peer("d1").install_document("inv", catalog_doc(6))
        session = connect(system)

        def ask(doc):
            return session.query(QUERY, at="client", bind={"d": f"{doc}@d{0 if doc == 'cat' else 1}"})

        ask("cat"), ask("inv")
        inv_before = tuple(ask("inv").answers)
        session.update("cat", 1, "price", "424242")

        # the untouched doc keeps serving its warm memos (the whole
        # search outcome: nothing is re-costed)...
        warm = ask("inv")
        assert warm.plan_cache.prepared_hits == 1
        assert warm.plan_cache.plans_scored == 0
        assert tuple(warm.answers) == inv_before
        # ...while the written doc is planned again, and its answers
        # reflect the write, not a stale cached estimate of the old content
        cold = ask("cat")
        assert cold.plan_cache.prepared_misses == 1
        assert cold.plan_cache.plans_scored > 0
        assert "<name>n1</name>" in cold.answers

    def test_doc_size_keys_fold_epoch(self):
        from repro.core.cost import CostEstimator
        from repro.core.planspace import PlanCache

        system = AXMLSystem.with_peers(["p"])
        system.peer("p").install_document("cat", catalog_doc(3))
        cache = PlanCache()
        estimator = CostEstimator(system, cache=cache)
        estimator._doc_bytes("cat", "p")
        assert ("doc_bytes", "cat", "p") in cache.estimates  # epoch 0: no salt
        system.bump_doc_epoch("cat")
        estimator._doc_bytes("cat", "p")
        assert ("doc_bytes", "cat", "p", 1) in cache.estimates
        assert ("doc_bytes", "cat", "p") in cache.estimates  # orphaned, not clobbered


# ---------------------------------------------------------------------------
# session + serving engine integration
# ---------------------------------------------------------------------------


class TestEngineWrites:
    def test_submit_write_interleaves_with_queries(self):
        system = fragmented_system()
        session = connect(system, isolate=False)
        session.submit_write(DeleteOp("cat", 0), arrival=0.0, name="w0")
        session.submit(
            QUERY, at="client", bind={"d": "cat@dist"}, arrival=1.0, name="q0"
        )
        report = session.drain()
        jobs = {job.name: job for job in report.jobs}
        assert jobs["w0"].write_result is not None
        assert jobs["w0"].write_result.kind == "delete"
        assert "<name>n0</name>" not in jobs["q0"].answers
        assert len(jobs["q0"].answers) == 11

    def test_submit_write_requires_non_isolated_session(self):
        session = connect(fragmented_system())  # isolate=True default
        with pytest.raises(SessionError):
            session.submit_write(DeleteOp("cat", 0))

    def test_failed_write_job_carries_typed_error(self):
        system = fragmented_system()
        session = connect(system, isolate=False)
        session.submit_write(DeleteOp("ghost", 0), name="bad")
        report = session.drain()
        (job,) = report.jobs
        assert isinstance(job.error, UnknownDocumentError)


# ---------------------------------------------------------------------------
# incremental writes against drop-and-refragment (``-m perf``)
# ---------------------------------------------------------------------------


def seeded_writes(seed, count, items):
    """A 40/40/20 insert/update/delete mix with every ordinal in bounds;
    deletes stop at one item per fragment."""
    rng = random.Random(seed)
    live, ops = items, []
    for k in range(count):
        roll = rng.random()
        if roll < 0.4:
            item = new_item(f"item-w{k}", rng.randint(0, items))
            ops.append(InsertOp("cat", item, ordinal=rng.randint(0, live)))
            live += 1
        elif roll < 0.8 or live <= 3:
            ops.append(UpdateOp("cat", rng.randint(0, live - 1), "price",
                                str(rng.randint(0, items))))
        else:
            ops.append(DeleteOp("cat", rng.randint(0, live - 1)))
            live -= 1
    return ops


def write_incrementally(system, ops):
    target = system.clone()
    session = Session(target)
    for op in ops:
        session.write(op)
    return target


def write_by_rebuilding(system, ops):
    """What a system without a write path does to stay queryable after
    every write: edit the whole document, drop every fragment and
    re-fragment over the same peers."""
    target = system.clone()
    home = target.peer("d0")
    for op in ops:
        tree = home.own_document("cat")
        apply_to_tree(tree, op)
        home.allocator.assign(tree)
        fragments = target.fragments.fragments("cat")
        across = [fragment.home for fragment in fragments]
        replicas = len(fragments[0].replicas)
        for fragment in fragments:
            for pid in fragment.peers:
                if target.peer(pid).has_document(fragment.name):
                    target.peer(pid).drop_document(fragment.name)
            for member in list(target.registry.document_members(fragment.generic)):
                target.registry.unregister_document(
                    fragment.generic, member.name, member.peer
                )
        target.fragments.drop("cat")
        Fragmenter(target).fragment("cat", "d0", across, replicas=replicas)
    return target


@pytest.mark.perf
def test_incremental_writes_beat_rebuilding_three_times_over():
    system = AXMLSystem.with_peers(["client", "d0", "d1", "d2"])
    system.peer("d0").install_document("cat", catalog_doc(400))
    Fragmenter(system).fragment("cat", "d0", ["d0", "d1", "d2"], replicas=1)
    ops = seeded_writes(11, 24, 400)

    def fastest(write):
        """(final system, seconds) of the fastest of three identical runs."""
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            written = write(system, ops)
            runs.append((time.perf_counter() - started, written))
        seconds, written = min(runs, key=lambda run: run[0])
        return written, seconds

    incremental, incremental_s = fastest(write_incrementally)
    rebuilt, rebuild_s = fastest(write_by_rebuilding)
    # the rebuild is the ground truth: the speed only counts if the
    # incremental path lands in exactly the same state
    for probe in (
        "for $i in $d//item where $i/price > 120 return $i/name",
        "for $i in $d//item where $i/price <= 40 return $i/price",
    ):
        answers = [
            Session(target).query(probe, at="client", bind={"d": "cat@dist"}).answers
            for target in (incremental, rebuilt)
        ]
        assert answers[0] == answers[1], probe
    assert rebuild_s >= 3 * incremental_s, (incremental_s, rebuild_s)


# ---------------------------------------------------------------------------
# generated read/write mixes + the differential write sweep
# ---------------------------------------------------------------------------


class TestGeneratedWrites:
    def test_write_mix_is_deterministic(self):
        one = ScenarioGenerator(seed=9).scenario(0, spec=WRITE_MIX_SPEC)
        two = ScenarioGenerator(seed=9).scenario(0, spec=WRITE_MIX_SPEC)
        assert one.serialize() == two.serialize()
        assert one.writes and len(one.writes) == WRITE_MIX_SPEC.writes

    def test_writes_gated_behind_spec_knob(self):
        # a spec without writes draws nothing new: pre-writes seeds keep
        # reproducing byte-identically
        scenario = ScenarioGenerator(seed=3).scenario(0)
        assert scenario.writes == []
        assert "write " not in scenario.serialize()
        mixed = ScenarioGenerator(seed=3).scenario(0, spec=WRITE_MIX_SPEC)
        assert any(
            line.startswith("write ") for line in mixed.serialize().splitlines()
        )

    def test_negative_writes_rejected(self):
        with pytest.raises(Exception):
            ScenarioGenerator(seed=1, spec=ScenarioSpec(writes=-1)).scenario(0)

    def test_generated_ops_materialize(self):
        scenario = ScenarioGenerator(seed=9).scenario(0, spec=WRITE_MIX_SPEC)
        kinds = {record.kind for record in scenario.writes}
        assert kinds <= {"insert", "update", "delete"}
        for record in scenario.writes:
            op = record.op()
            assert op.doc == record.doc

    def test_write_sweep_matches_rebuild(self):
        harness = DifferentialHarness(("beam", "greedy"), repro_dir=None)
        scenarios = [
            ScenarioGenerator(seed=9).scenario(i, spec=WRITE_MIX_SPEC)
            for i in range(2)
        ]
        report = harness.sweep("write", scenarios, raise_on_failure=True)
        assert report.ok
        assert report.scenarios == 2
        assert report.notes["writes applied"] == 2 * WRITE_MIX_SPEC.writes

    @pytest.mark.generated
    @pytest.mark.slow
    @pytest.mark.parametrize("index", range(6))
    def test_write_sweep_full(self, index):
        harness = DifferentialHarness(repro_dir=None)  # every strategy
        scenario = ScenarioGenerator(seed=41).scenario(index, spec=WRITE_MIX_SPEC)
        try:
            report = harness.sweep("write", [scenario], raise_on_failure=True)
        except DifferentialMismatchError as exc:  # pragma: no cover
            pytest.fail(str(exc))
        assert report.ok and report.scenarios == 1


# ---------------------------------------------------------------------------
# prune soundness under writes (the stale-stats regression)
# ---------------------------------------------------------------------------


def _matches(value, op, bound):
    return {
        ">": value > bound,
        ">=": value >= bound,
        "<": value < bound,
        "<=": value <= bound,
        "=": value == bound,
        "!=": value != bound,
    }[op]


class TestPruneSoundnessUnderWrites:
    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_pruning_never_drops_a_matching_fragment(self, seed):
        """After any seeded write sequence, a fragment that
        fragment_can_match rules out provably holds no matching item."""
        system = fragmented_system(n=12)
        session = Session(system)
        rng = random.Random(seed)
        live = 12
        for k in range(15):
            roll = rng.random()
            if roll < 0.4:
                session.insert(
                    "cat", new_item(f"w{k}", rng.randint(0, 40)),
                    ordinal=rng.randint(0, live),
                )
                live += 1
            elif roll < 0.8 or live <= 3:
                session.update(
                    "cat", rng.randint(0, live - 1), "price",
                    str(rng.randint(0, 40)),
                )
            else:
                session.delete("cat", rng.randint(0, live - 1))
                live -= 1

        probes = {0.0, 5.5, 12.0, 20.0, 40.0, 41.0}
        for fragment in system.fragments.info("cat").fragments:
            tree = system.peer(fragment.home).documents[fragment.name]
            prices = [
                float(item.child_by_tag("price").string_value())
                for item in tree.element_children
            ]
            probes_here = probes | set(prices)
            for op in (">", ">=", "<", "<=", "=", "!="):
                for bound in probes_here:
                    if not fragment_can_match(fragment, "price", op, bound):
                        assert not any(
                            _matches(price, op, bound) for price in prices
                        ), (
                            f"{fragment.name} pruned for price {op} {bound} "
                            f"but holds {prices}"
                        )

    def test_stale_stats_sentinel(self):
        # The invariant above only holds because writes refresh the
        # catalog stats: the pre-write entry would prune a fragment
        # that now holds a matching item.
        system = fragmented_system()
        stale = system.fragments.info("cat").fragments[1]  # prices 4..7
        connect(system).update("cat", 5, "price", "9999")
        assert not fragment_can_match(stale, "price", ">", 5000.0)
        prices = [
            float(item.child_by_tag("price").string_value())
            for item in system.peer("d1").documents["cat.f1"].element_children
        ]
        assert any(price > 5000.0 for price in prices)  # stale entry lies
        refreshed = system.fragments.info("cat").fragments[1]
        assert fragment_can_match(refreshed, "price", ">", 5000.0)
        # and end-to-end the pruned scatter-gather still finds the item
        answers = connect(system).query(
            "for $i in $d//item where $i/price > 5000 return $i/name",
            at="client", bind={"d": "cat@dist"},
        ).answers
        assert answers == ["<name>n5</name>"]
