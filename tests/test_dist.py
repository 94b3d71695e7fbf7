"""Tests for the fragmentation & scatter-gather layer (repro.dist).

Covers the fragmenter + catalog, the ``FragmentedDoc``/``Gather``
algebra (evaluation, serialization, fingerprints, cost), the
fragment-aware rewrites, Σ lifecycle with a registered catalog
(clone/reset independence), replica tie-breaking under queue-depth
admission, the generator's ``fragmented`` scenario family, the
differential byte-equality sweep against the whole-document baseline,
and the traffic pruned fragments save over whole-document shipping.
"""

import pytest

from repro import connect
from repro.core.expressions import (
    DocExpr,
    EvalAt,
    FragmentedDoc,
    Gather,
    QueryApply,
)
from repro.core.cost import CostEstimator
from repro.core.rules import FragmentPrune, FragmentPushSelection, Plan
from repro.core.serialize import expression_fingerprint
from repro.dist import Fragmenter, fragment_can_match, selection_bounds
from repro.engine import JobRequest
from repro.errors import FragmentationError, FrozenTreeError, SessionError
from repro.peers import AXMLSystem
from repro.peers.registry import GenericMember, QueueDepthPolicy
from repro.workloads import (
    FRAGMENTED_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import parse
from repro.xmlcore.canon import canonical_form
from repro.xquery import Query


def catalog_doc(n=30, payload=2):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price>"
            f"<desc>{'w ' * payload}</desc></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


def fragmented_system(n=30, replicas=0, payload=2,
                      peers=("client", "d0", "d1", "d2")):
    system = AXMLSystem.with_peers(
        list(peers), bandwidth=200_000.0, latency=0.015
    )
    system.peer("d0").install_document("cat", catalog_doc(n, payload))
    Fragmenter(system).fragment(
        "cat", "d0", [p for p in peers if p != "client"], replicas=replicas
    )
    return system


class TestFragmenter:
    def test_catalog_layout_and_stats(self):
        system = fragmented_system(n=30)
        info = system.fragments.info("cat")
        assert info.root_tag == "catalog"
        assert [f.name for f in info.fragments] == ["cat.f0", "cat.f1", "cat.f2"]
        assert [f.ordinals for f in info.fragments] == [(0, 10), (10, 20), (20, 30)]
        assert info.total_items == 30
        # numeric stats recorded per fragment; non-numeric tags excluded
        assert info.fragments[0].bounds("price") == (0.0, 9.0)
        assert info.fragments[2].bounds("price") == (20.0, 29.0)
        assert info.fragments[0].bounds("name") is None
        # fragment documents actually installed on their peers
        assert system.peer("d1").has_document("cat.f1")

    def test_uneven_split_covers_every_item(self):
        system = AXMLSystem.with_peers(["a", "b", "c"])
        system.peer("a").install_document("d", catalog_doc(10))
        info = Fragmenter(system).fragment("d", "a", ["a", "b", "c"])
        assert [f.count for f in info.fragments] == [4, 3, 3]
        assert info.fragments[-1].ordinals[1] == 10

    def test_replicas_register_generic_classes(self):
        system = fragmented_system(replicas=1)
        info = system.fragments.info("cat")
        for fragment in info.fragments:
            assert fragment.generic == fragment.name
            members = system.registry.document_members(fragment.generic)
            assert len(members) == 2
            assert {m.peer for m in members} == set(fragment.peers)
            for member in members:
                assert system.peer(member.peer).has_document(fragment.name)

    def test_fragmenter_rejects_bad_input(self):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document("d", catalog_doc(3))
        with pytest.raises(FragmentationError):
            Fragmenter(system).fragment("d", "a", [])
        with pytest.raises(FragmentationError):
            Fragmenter(system).fragment("d", "a", ["a", "b", "a", "b"])
        mixed = parse("<r>text<item/></r>")
        system.peer("a").install_document("mixed", mixed)
        with pytest.raises(FragmentationError):
            Fragmenter(system).fragment("mixed", "a", ["a", "b"])
        Fragmenter(system).fragment("d", "a", ["a", "b"])
        with pytest.raises(FragmentationError):
            Fragmenter(system).fragment("d", "a", ["a", "b"])

    def test_drop_original(self):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document("d", catalog_doc(4))
        Fragmenter(system).fragment("d", "a", ["a", "b"], keep_original=False)
        assert not system.peer("a").has_document("d")
        assert system.peer("a").has_document("d.f0")


class TestScatterGatherEvaluation:
    QUERY = "for $i in $d//item where $i/price > 24 return $i/name"

    def test_reassembly_is_byte_identical_to_baseline(self):
        system = fragmented_system()
        session = connect(system)
        base = session.query(
            self.QUERY, at="client", bind={"d": "cat@d0"}, optimize=False
        )
        frag = session.query(
            self.QUERY, at="client", bind={"d": "cat@dist"}, optimize=False
        )
        assert frag.answers == base.answers
        # full-document reads reassemble the original tree exactly
        whole = session.query(
            "count($d//item)", at="client", bind={"d": "cat@dist"},
            optimize=False,
        )
        assert whole.answers == ["<value>30</value>"]

    def test_replicated_fragments_resolve_through_registry(self):
        system = fragmented_system(replicas=1)
        session = connect(system)
        frag = session.query(
            self.QUERY, at="client", bind={"d": "cat@dist"}, optimize=False
        )
        base = session.query(
            self.QUERY, at="client", bind={"d": "cat@d0"}, optimize=False
        )
        assert frag.answers == base.answers

    def test_optimizer_pushes_and_prunes(self):
        # data shipping must dominate (the regime the paper targets), so
        # the document is large relative to the WAN link
        system = fragmented_system(n=240, payload=8)
        session = connect(system)
        query = "for $i in $d//item where $i/price > 228 return $i/name"
        naive = session.query(
            query, at="client", bind={"d": "cat@dist"}, optimize=False
        )
        best = session.query(query, at="client", bind={"d": "cat@dist"})
        assert best.answers == naive.answers
        # the pushed/pruned plan ships far less than fragment reassembly
        assert best.network["bytes"] < naive.network["bytes"] / 3
        assert best.best_cost.scalar() < best.original_cost.scalar()

    def test_prune_rule_contacts_only_matching_fragments(self):
        system = fragmented_system(n=30)
        session = connect(system)
        plan = session.plan(
            "for $i in $d//item where $i/price > 24 return $i/name",
            at="client",
            bind={"d": "cat@dist"},
        )
        rewrites = FragmentPrune().apply(plan, system)
        assert len(rewrites) == 1
        assert "1/3" in rewrites[0].note
        gather = rewrites[0].plan.expr.args[0]
        assert isinstance(gather, Gather)
        assert len(gather.parts) == 1
        scatter = FragmentPushSelection().apply(plan, system)
        assert len(scatter) == 1
        full_gather = scatter[0].plan.expr.args[0]
        assert len(full_gather.parts) == 3

    def test_pruned_plan_verifies_equivalent(self):
        system = fragmented_system(n=30)
        session = connect(system, verify=True)
        report = session.query(
            "for $i in $d//item where $i/price > 24 return $i/name",
            at="client",
            bind={"d": "cat@dist"},
        )
        assert report.verification is not None
        assert report.verification.equivalent

    def test_gather_preserves_part_order(self):
        system = fragmented_system(n=12)
        session = connect(system)
        base = session.query(
            "for $i in $d//item return $i/name", at="client",
            bind={"d": "cat@d0"}, optimize=False,
        )
        frag = session.query(
            "for $i in $d//item return $i/name", at="client",
            bind={"d": "cat@dist"}, optimize=False,
        )
        assert frag.answers == base.answers  # order, not just multiset

    def test_local_fragment_survives_reassembly(self):
        # regression: reassembly must copy, not reparent — a fragment
        # local to the evaluation site hands back the stored tree (shared
        # with the live Σ by the run's clone), and moving its children
        # out emptied the fragment
        system = fragmented_system(n=30)
        session = connect(system)
        q = "for $i in $d//item return $i/price"
        first = session.query(q, at="d0", bind={"d": "cat@dist"}, optimize=False)
        assert len(system.peer("d0").document("cat.f0").children) == 10
        second = session.query(q, at="d0", bind={"d": "cat@dist"}, optimize=False)
        assert len(first.items) == 30
        assert second.answers == first.answers

    def test_dist_binding_requires_catalog_entry(self):
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document("d", catalog_doc(4))
        with pytest.raises(SessionError):
            connect(system).query(
                "count($d//item)", at="a", bind={"d": "d@dist"}
            )


class TestFragmentsAgainstWholeDocument:
    """A catalog fragmented over four data peers, the whole document kept
    at ``d0``, queried four ways: whole or fragmented, naive or optimized."""

    MODES = {
        "whole-naive": ("cat@d0", False),
        "whole-opt": ("cat@d0", True),
        "frag-naive": ("cat@dist", False),
        "frag-opt": ("cat@dist", True),
    }

    @pytest.mark.parametrize("n", (150, 300))
    def test_pruned_fragments_ship_a_third_of_the_whole_document(self, n):
        system = fragmented_system(
            n=n, payload=8, peers=("client", "d0", "d1", "d2", "d3")
        )
        session = connect(system)
        selective = f"for $i in $d//item where $i/price > {int(n * 0.95)} return $i/name"
        broad = f"for $i in $d//item where $i/price >= {n // 2} return $i/name"
        for query in (selective, broad):
            reports = {
                mode: session.query(query, at="client", name="d1",
                                    bind={"d": binding}, optimize=optimize)
                for mode, (binding, optimize) in self.MODES.items()
            }
            # fragmentation is invisible to query results
            reference = reports["whole-naive"].answers
            for mode, report in reports.items():
                assert report.answers == reference, (mode, query)
            if query is selective:
                # only fragments that can match are contacted at all
                whole = reports["whole-naive"].network["bytes"]
                pruned = reports["frag-opt"].network["bytes"]
                assert whole >= 3 * pruned, (whole, pruned)


class TestAlgebraPlumbing:
    def test_fingerprints_distinguish_views(self):
        frag = FragmentedDoc("cat")
        doc = DocExpr("cat", "dist")
        assert expression_fingerprint(frag) != expression_fingerprint(doc)
        assert expression_fingerprint(Gather((frag,))) != expression_fingerprint(frag)
        assert expression_fingerprint(Gather((frag,))) == expression_fingerprint(
            Gather((FragmentedDoc("cat"),))
        )

    def test_estimator_covers_fragment_plans(self):
        system = fragmented_system(n=30)
        estimator = CostEstimator(system)
        plan = Plan(FragmentedDoc("cat"), "client")
        cost = estimator.estimate(plan)
        assert cost.bytes > 0 and cost.messages == 3
        gather_plan = Plan(
            Gather((DocExpr("cat.f0", "d0"), DocExpr("cat.f1", "d1"))),
            "client",
        )
        assert estimator.estimate(gather_plan).messages == 2

    def test_selection_bounds_extraction(self):
        q = Query(
            "for $x in $d//item where $x/price > 10 return $x/name",
            params=("d",),
        )
        assert selection_bounds(q) == ("price", ">", 10.0)
        flipped = Query(
            "for $x in $d//item where 10 < $x/price return $x/name",
            params=("d",),
        )
        assert selection_bounds(flipped) == ("price", ">", 10.0)
        opaque = Query(
            "for $x in $d//item where $x/price > 10 and $x/price < 20 "
            "return $x/name",
            params=("d",),
        )
        assert selection_bounds(opaque) is None

    def test_non_finite_values_poison_stats(self):
        # regression: 'nan'/'inf' text must disqualify a tag from the
        # statistics entirely — a (nan, nan) range made every comparison
        # false and pruned fragments that held real answers
        system = AXMLSystem.with_peers(["a", "b"])
        system.peer("a").install_document(
            "d",
            parse(
                "<c><i><p>nan</p></i><i><p>1</p></i>"
                "<i><p>2</p></i><i><p>inf</p></i></c>"
            ),
        )
        info = Fragmenter(system).fragment("d", "a", ["a", "b"])
        assert all(f.bounds("p") is None for f in info.fragments)
        session = connect(system)
        q = "for $i in $d//i where $i/p < 3 return $i/p"
        base = session.query(q, at="b", bind={"d": "d@a"}, optimize=False)
        frag = session.query(q, at="b", bind={"d": "d@dist"})
        assert frag.answers == base.answers

    def test_scatter_reads_replicated_fragments_through_registry(self):
        # regression: optimized scatter plans must not pin replicated
        # fragments to their primary — the generic class keeps replica
        # choice (queue-depth admission) live in optimized plans too
        from repro.core.expressions import GenericDoc

        system = fragmented_system(n=30, replicas=1)
        session = connect(system)
        plan = session.plan(
            "for $i in $d//item where $i/price > 5 return $i/name",
            at="client",
            bind={"d": "cat@dist"},
        )
        rewrites = FragmentPushSelection().apply(plan, system)
        gather = rewrites[0].plan.expr.args[0]
        assert len(gather.parts) == 3
        for part in gather.parts:
            inner = part.expr if isinstance(part, EvalAt) else part
            assert isinstance(inner.args[0], GenericDoc)

    def test_fragment_can_match_is_conservative(self):
        system = fragmented_system(n=30)
        low, mid, high = system.fragments.fragments("cat")
        assert not fragment_can_match(low, "price", ">", 9.0)
        assert fragment_can_match(high, "price", ">", 9.0)
        assert fragment_can_match(low, "price", "<", 5.0)
        assert fragment_can_match(mid, "price", "=", 15.0)
        assert not fragment_can_match(mid, "price", "=", 50.0)
        # unknown tag: no statistics, never pruned
        assert fragment_can_match(low, "unknown", ">", 1e9)


class TestSystemLifecycleWithCatalog:
    def test_clone_does_not_alias_catalog_or_fragments(self):
        system = fragmented_system(n=12)
        twin = system.clone()
        assert twin.fragments.documents() == ["cat"]
        # registering on the twin never shows through to the original
        twin.peer("client").install_document("other", catalog_doc(4))
        Fragmenter(twin).fragment("other", "client", ["d0", "d1"])
        assert twin.fragments.is_fragmented("other")
        assert not system.fragments.is_fragmented("other")
        # fragment *documents* are shared until written: editing the
        # twin's fragment (owned first) leaves the original's canonical
        # form untouched, and vice versa; the read path refuses edits
        original_frag = system.peer("d1").document("cat.f1")
        before = canonical_form(original_frag)
        extra = parse("<item><price>99</price></item>")
        with pytest.raises(FrozenTreeError):
            twin.peer("d1").document("cat.f1").append(extra)
        twin.peer("d1").own_document("cat.f1").append(extra)
        assert canonical_form(original_frag) == before
        after = canonical_form(twin.peer("d1").document("cat.f1"))
        assert after != before
        system.peer("d1").own_document("cat.f1").append(extra.copy())
        system.peer("d1").own_document("cat.f1").append(extra.copy())
        assert canonical_form(twin.peer("d1").document("cat.f1")) == after
        # and dropping on the original leaves the twin queryable
        system.fragments.drop("cat")
        assert twin.fragments.is_fragmented("cat")

    def test_repeated_queries_keep_catalog_and_answers(self):
        system = fragmented_system(n=12)
        session = connect(system)
        first = session.query(
            "count($d//item)", at="client", bind={"d": "cat@dist"}
        )
        assert system.fragments.is_fragmented("cat")
        second = session.query(
            "count($d//item)", at="client", bind={"d": "cat@dist"}
        )
        assert first.answers == second.answers
        assert first.completed_at == second.completed_at

    def test_clone_equivalence_of_fragmented_queries(self):
        system = fragmented_system(n=12)
        twin = system.clone()
        q = "for $i in $d//item where $i/price > 5 return $i/name"
        a = connect(system).query(q, at="client", bind={"d": "cat@dist"})
        b = connect(twin).query(q, at="client", bind={"d": "cat@dist"})
        assert a.answers == b.answers


class TestReplicaAdmission:
    def test_queue_depth_tie_breaks_deterministically(self):
        system = fragmented_system(replicas=1)
        policy = QueueDepthPolicy()
        members = system.registry.document_members("cat.f0")
        assert len(members) == 2
        primary, mirror = members
        # equal queue depth, equal busy_until: locality wins
        chosen = policy.choose(members, primary.peer, system)
        assert chosen == primary
        chosen = policy.choose(members, mirror.peer, system)
        assert chosen == mirror
        # equal depth and no local member: registration order wins
        chosen = policy.choose(members, "client", system)
        assert chosen == primary
        # busy_until separates equal depths before locality
        system.peer(primary.peer).busy_until = 1.0
        chosen = policy.choose(members, primary.peer, system)
        assert chosen == mirror
        # queue depth dominates everything
        system.peer(primary.peer).busy_until = 0.0
        system.peer(mirror.peer).enqueue_job()
        chosen = policy.choose(members, mirror.peer, system)
        assert chosen == primary

    def test_serving_fragmented_queries_matches_sequential(self):
        system = fragmented_system(n=24, replicas=1)
        session = connect(system)
        query = "for $i in $d//item where $i/price > 12 return $i/name"
        sequential = session.query(
            query, at="client", bind={"d": "cat@dist"}
        )
        report = connect(system).serve([
            JobRequest(
                query, at="client", bind={"d": "cat@dist"},
                name=f"j{k}", arrival=k * 0.001,
            )
            for k in range(4)
        ])
        assert len(report.jobs) == 4
        for job in report.jobs:
            assert job.report.answers == sequential.answers


class TestFragmentedWorkloads:
    def test_fragmented_family_is_deterministic(self):
        a = ScenarioGenerator(seed=5, spec=FRAGMENTED_SPEC).scenario(0)
        b = ScenarioGenerator(seed=5, spec=FRAGMENTED_SPEC).scenario(0)
        assert a.serialize() == b.serialize()
        assert "fragmented" in a.serialize()

    def test_fragmented_docs_bind_at_dist(self):
        scenario = ScenarioGenerator(seed=5, spec=FRAGMENTED_SPEC).scenario(1)
        fragmented = {d.name for d in scenario.documents if d.fragmented}
        assert len(fragmented) == FRAGMENTED_SPEC.fragments
        targets = [
            target
            for query in scenario.queries
            for _, target in query.bind
        ]
        assert any(t.endswith("@dist") for t in targets)
        for name in fragmented:
            assert scenario.system.fragments.is_fragmented(name)

    def test_spec_validation(self):
        with pytest.raises(Exception):
            ScenarioSpec(peers=1, fragments=1).validate()
        with pytest.raises(Exception):
            ScenarioSpec(documents=2, replicas=1, fragments=2).validate()
        with pytest.raises(Exception):
            ScenarioSpec(peers=3, fragments=1, fragment_replicas=3).validate()

    def test_fragmentation_leaves_default_family_untouched(self):
        # adding the fragments knob must not perturb existing seeds
        plain = ScenarioSpec()
        a = ScenarioGenerator(seed=9, spec=plain).scenario(2)
        assert not a.system.fragments.documents()
        assert all(not d.fragmented for d in a.documents)

    def test_small_fragmented_differential_sweep(self):
        harness = DifferentialHarness(("beam", "greedy"), repro_dir=None)
        scenarios = ScenarioGenerator(seed=23, spec=FRAGMENTED_SPEC).scenarios(4)
        report = harness.sweep("fragmented", scenarios, raise_on_failure=True)
        assert report.ok
        assert report.notes["queries"] >= 4


@pytest.mark.generated
class TestFragmentedSweepFull:
    def test_25_scenario_fragmented_sweep(self):
        """Acceptance gate: ≥25 scenarios, every strategy byte-equal."""
        harness = DifferentialHarness(repro_dir=None)
        scenarios = ScenarioGenerator(seed=101, spec=FRAGMENTED_SPEC).scenarios(25)
        report = harness.sweep("fragmented", scenarios, raise_on_failure=True)
        assert report.ok
        assert report.scenarios == 25
        assert report.notes["queries"] >= 25
