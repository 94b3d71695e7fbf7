"""Workload generator determinism + differential conformance of strategies.

The fast subset here runs in tier-1; the full 50-scenario sweep is
marked ``generated`` and runs on demand:

    python -m pytest -m generated
"""

import os
import subprocess
import sys

import pytest

from repro.core.cost import Cost
from repro.core.rules import Plan
from repro.core.expressions import TreeExpr
from repro.core.strategies import (
    BeamSearchStrategy,
    OptimizationResult,
    improvement_ratio,
    register_strategy,
)
from repro.errors import DifferentialMismatchError, WorkloadError
from repro.session import Session
from repro.workloads import (
    FRAGMENTED_SPEC,
    QUERY_SHAPES,
    TOPOLOGIES,
    WRITE_MIX_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import element

SMALL = ScenarioSpec(
    peers=3, documents=2, axml_documents=1, items=8, services=1,
    replicas=1, queries=4,
)


class TestGeneratorDeterminism:
    def test_same_seed_is_byte_identical(self):
        a = ScenarioGenerator(seed=11).scenario(0)
        b = ScenarioGenerator(seed=11).scenario(0)
        assert a.serialize() == b.serialize()

    def test_same_seed_identical_across_indices(self):
        first = [s.serialize() for s in ScenarioGenerator(seed=4).scenarios(3)]
        second = [s.serialize() for s in ScenarioGenerator(seed=4).scenarios(3)]
        assert first == second

    def test_different_seeds_differ(self):
        a = ScenarioGenerator(seed=1).scenario(0)
        b = ScenarioGenerator(seed=2).scenario(0)
        assert a.serialize() != b.serialize()

    def test_different_indices_differ(self):
        gen = ScenarioGenerator(seed=1)
        assert gen.scenario(0).serialize() != gen.scenario(1).serialize()

    def test_index_rotates_topologies(self):
        gen = ScenarioGenerator(seed=0)
        seen = {gen.scenario(i).topology for i in range(len(TOPOLOGIES))}
        assert seen == set(TOPOLOGIES)

    def test_fixed_topology_respected(self):
        spec = ScenarioSpec(topology="clustered", peers=5)
        scenario = ScenarioGenerator(seed=0, spec=spec).scenario(0)
        assert scenario.topology == "clustered"

    def test_snapshot_equality_between_regenerations(self):
        # Σ itself (documents, services) is reproduced, not just the dump
        a = ScenarioGenerator(seed=8).scenario(2)
        b = ScenarioGenerator(seed=8).scenario(2)
        assert a.system.snapshot() == b.system.snapshot()


class TestGeneratedScenarioShape:
    def test_declared_sizes_present(self):
        scenario = ScenarioGenerator(seed=3, spec=SMALL).scenario(0)
        assert len(scenario.system.peers) == SMALL.peers
        assert len(scenario.documents) == SMALL.documents + SMALL.axml_documents
        assert len(scenario.queries) == SMALL.queries
        assert len(scenario.services) == SMALL.services

    def test_compute_speeds_are_heterogeneous(self):
        spec = ScenarioSpec(peers=10)
        scenario = ScenarioGenerator(seed=1, spec=spec).scenario(0)
        speeds = {
            scenario.system.peer(p).compute_speed for p in scenario.system.peers
        }
        assert len(speeds) > 1

    def test_replicated_document_registered_as_generic(self):
        scenario = ScenarioGenerator(seed=3, spec=SMALL).scenario(0)
        generics = [doc for doc in scenario.documents if doc.generic]
        assert generics
        members = scenario.system.registry.document_members(generics[0].generic)
        assert len(members) == 2
        assert scenario.system.registry.check_document_equivalence(
            generics[0].generic, scenario.system
        )

    def test_axml_document_embeds_service_call(self):
        scenario = ScenarioGenerator(seed=3, spec=SMALL).scenario(0)
        active = [doc for doc in scenario.documents if doc.active]
        assert active
        tree = scenario.system.peer(active[0].peer).document(active[0].name)
        assert any(
            child.tag == "sc" for child in tree.element_children
        )

    def test_every_query_is_runnable(self):
        scenario = ScenarioGenerator(seed=6, spec=SMALL).scenario(1)
        session = Session(scenario.system, strategy="greedy")
        for query in scenario.queries:
            report = session.query(**query.kwargs())
            assert report.executed

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec(peers=0).validate()
        with pytest.raises(WorkloadError):
            ScenarioSpec(topology="torus").validate()
        with pytest.raises(WorkloadError):
            ScenarioSpec(query_shapes=("project", "mystery")).validate()
        with pytest.raises(WorkloadError):
            ScenarioSpec(documents=1, replicas=2).validate()

    def test_query_lookup(self):
        scenario = ScenarioGenerator(seed=3, spec=SMALL).scenario(0)
        assert scenario.query("q0").name == "q0"
        with pytest.raises(WorkloadError):
            scenario.query("q999")


class TestDifferentialAgreement:
    """Seeded property tests: all strategies agree on generated scenarios."""

    @pytest.mark.parametrize("index", range(8))
    def test_strategies_agree_fast_subset(self, index):
        scenario = ScenarioGenerator(seed=1234, spec=SMALL).scenario(index)
        harness = DifferentialHarness(repro_dir=None)
        report = harness.sweep("differential", [scenario])
        assert report.ok, report.describe()

    def test_cost_monotonicity_every_strategy(self):
        scenario = ScenarioGenerator(seed=77, spec=SMALL).scenario(0)
        harness = DifferentialHarness(repro_dir=None)
        report = harness.sweep("differential", [scenario])
        for cell in report.cells:
            for outcome in cell.outcomes.values():
                assert outcome.monotonic
                assert improvement_ratio(
                    outcome.original_cost, outcome.best_cost
                ) >= 1.0

    def test_check_runs_all_query_shapes(self):
        spec = ScenarioSpec(
            peers=4, documents=3, axml_documents=0, items=8, services=0,
            replicas=0, queries=len(QUERY_SHAPES),
        )
        scenario = ScenarioGenerator(seed=5, spec=spec).scenario(0)
        assert {q.shape for q in scenario.queries} == set(QUERY_SHAPES)
        report = DifferentialHarness(repro_dir=None).sweep(
            "differential", [scenario]
        )
        assert report.ok, report.describe()

    def test_harness_needs_two_strategies(self):
        # misuse is a WorkloadError; DifferentialMismatchError is reserved
        # for genuine strategy disagreements
        with pytest.raises(WorkloadError):
            DifferentialHarness(strategies=("beam",))

    def test_unknown_sweep_kind_rejected(self):
        with pytest.raises(WorkloadError, match="unknown sweep kind 'parity'"):
            DifferentialHarness(repro_dir=None).sweep("parity", [])

    def test_negative_spec_counts_rejected(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec(replicas=-1).validate()
        with pytest.raises(WorkloadError):
            ScenarioSpec(services=-2).validate()

    @pytest.mark.generated
    @pytest.mark.slow
    @pytest.mark.parametrize("index", range(50))
    def test_strategies_agree_full_sweep(self, index):
        """The acceptance sweep: 50 seeded scenarios, default spec."""
        scenario = ScenarioGenerator(seed=2026).scenario(index)
        harness = DifferentialHarness(repro_dir=None)
        report = harness.sweep("differential", [scenario])
        assert report.ok, report.describe()

    @pytest.mark.generated
    def test_strategies_agree_as_scenarios_grow(self):
        """Four scenarios at each of four sizes: zero mismatches at every
        size, and bigger scenarios score more plans."""
        sizes = (
            ScenarioSpec(peers=3, documents=2, axml_documents=0, items=6,
                         services=1, replicas=0, queries=3),
            ScenarioSpec(peers=4, documents=3, axml_documents=1, items=12,
                         services=2, replicas=1, queries=5),
            ScenarioSpec(peers=6, documents=4, axml_documents=1, items=30,
                         services=2, replicas=2, queries=6),
            ScenarioSpec(peers=8, documents=6, axml_documents=2, items=60,
                         services=3, replicas=2, queries=8),
        )
        scored = []
        for spec in sizes:
            scenarios = ScenarioGenerator(seed=99, spec=spec).scenarios(4)
            report = DifferentialHarness(repro_dir=None).sweep("differential", scenarios)
            assert report.ok and not report.mismatches, report.describe()
            scored.append(report.notes["plans scored"])
        assert scored[-1] > scored[0], scored


class _BogusStrategy:
    """Deliberately wrong: 'optimizes' every plan into a constant tree."""

    name = "bogus"

    def search(self, plan, space):
        original_cost = space.score_original(plan)
        wrong = Plan(TreeExpr(element("bogus"), plan.site), plan.site)
        return OptimizationResult(
            best=wrong,
            best_cost=space.score(wrong) or original_cost,
            original_cost=original_cost,
            explored=2,
            strategy=self.name,
        )


@pytest.fixture()
def broken():
    register_strategy("bogus", _BogusStrategy, replace=True)
    return ("beam", "bogus")


class TestMismatchReporting:
    def test_mismatch_detected_and_minimized(self, broken, tmp_path):
        scenario = ScenarioGenerator(seed=9, spec=SMALL).scenario(0)
        harness = DifferentialHarness(
            strategies=broken, repro_dir=str(tmp_path)
        )
        report = harness.sweep("differential", [scenario])
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch.strategies == ("beam", "bogus")
        # minimization shrank the documents all the way down
        assert mismatch.spec.items < SMALL.items
        assert mismatch.repro_path is not None

    def test_repro_script_reproduces_from_seed(self, broken, tmp_path):
        scenario = ScenarioGenerator(seed=9, spec=SMALL).scenario(0)
        harness = DifferentialHarness(
            strategies=broken, repro_dir=str(tmp_path)
        )
        mismatch = harness.sweep("differential", [scenario]).mismatches[0]
        text = open(mismatch.repro_path, encoding="utf-8").read()
        assert "SEED = 9" in text
        assert f"ScenarioSpec(**{mismatch.spec.to_kwargs()!r}" in text
        # without the bogus strategy registered the script must exit 0
        # (strategies recorded in the script are only the real ones when
        # present); here we just check it is syntactically valid python.
        compile(text, mismatch.repro_path, "exec")

    def test_check_raises_when_asked(self, broken, tmp_path):
        gen = ScenarioGenerator(seed=9, spec=SMALL)
        harness = DifferentialHarness(
            strategies=broken, repro_dir=str(tmp_path), minimize=False
        )
        with pytest.raises(DifferentialMismatchError) as exc:
            harness.sweep("differential", gen.scenarios(2), raise_on_failure=True)
        assert exc.value.mismatch is not None

    def test_repro_script_passes_once_strategies_agree(self, tmp_path):
        # a script generated for two honest strategies exits 0: the
        # "mismatch" does not reproduce, which is the fixed-state path
        scenario = ScenarioGenerator(seed=9, spec=SMALL).scenario(0)
        harness = DifferentialHarness(
            strategies=("beam", "greedy"), repro_dir=str(tmp_path),
            minimize=False,
        )
        # force-record a fake mismatch so a script is written
        query = scenario.queries[0]
        outcomes = {
            name: harness.run_query(scenario, query, name)
            for name in ("beam", "greedy")
        }
        mismatch = harness._record_mismatch(
            scenario, query, outcomes, ("beam", "greedy")
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, mismatch.repro_path],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class _CostlierStrategy:
    """Right answers (it keeps the plan), at a cost it scored as worse."""

    name = "costlier"

    def search(self, plan, space):
        original = space.score_original(plan)
        return OptimizationResult(
            best=plan,
            best_cost=Cost(original.bytes + 1, original.messages, original.time + 1),
            original_cost=original,
            explored=1,
            strategy=self.name,
        )


class _AnalyticOnlyBogus:
    """Honest beam search, except when the analytic model prices the space."""

    name = "analytic-bogus"

    def search(self, plan, space):
        if space.cost_model.name == "analytic":
            return _BogusStrategy().search(plan, space)
        return BeamSearchStrategy().search(plan, space)


def _sigma_bytes(system) -> int:
    return sum(
        tree.serialized_size()
        for peer in system.peers.values()
        for tree in peer.documents.values()
    )


class _CrashesWhenShrunk:
    """Bogus on the full-size Σ, an untyped crash on any smaller one."""

    name = "shrink-crash"
    full_size = 0

    def search(self, plan, space):
        if _sigma_bytes(space.system) < self.full_size:
            raise KeyError("planted: not a ReproError")
        return _BogusStrategy().search(plan, space)


def _diverged(cell):
    return [o.variant for o in cell.failures if o.verdict == "diverged"]


class TestEverySweepCanFail:
    """One planted bug per sweep kind: the oracle's failure paths do fail."""

    def test_differential_sweep_names_the_non_monotonic_strategy(self):
        register_strategy("costlier", _CostlierStrategy, replace=True)
        harness = DifferentialHarness(("beam", "costlier"), repro_dir=None)
        scenarios = [ScenarioGenerator(seed=9, spec=SMALL).scenario(0)]
        report = harness.sweep("differential", scenarios)
        assert not report.ok
        assert not report.mismatches  # the answers agree: nothing to minimize
        assert {
            (o.variant, o.verdict) for cell in report.failures for o in cell.failures
        } == {("costlier", "non-monotonic")}
        with pytest.raises(
            DifferentialMismatchError, match="costlier non-monotonic"
        ) as exc:
            harness.sweep("differential", scenarios, raise_on_failure=True)
        assert exc.value.mismatch is None

    @pytest.mark.parametrize(
        "kind, spec, seed, baseline",
        [
            ("fragmented", FRAGMENTED_SPEC, 23, "the whole-document baseline"),
            ("write", WRITE_MIX_SPEC, 9, "the rebuild-from-scratch baseline"),
        ],
    )
    def test_byte_sweeps_name_the_diverging_strategy(
        self, broken, kind, spec, seed, baseline
    ):
        harness = DifferentialHarness(broken, repro_dir=None)
        scenarios = [ScenarioGenerator(seed=seed, spec=spec).scenario(0)]
        report = harness.sweep(kind, scenarios)
        assert not report.ok
        assert report.failures
        assert all(_diverged(cell) == ["bogus"] for cell in report.failures)
        assert f"vs {baseline}: bogus diverged" in report.describe()
        with pytest.raises(DifferentialMismatchError, match="bogus"):
            harness.sweep(kind, scenarios, raise_on_failure=True)

    def test_cost_model_sweep_names_the_diverging_model(self):
        register_strategy("analytic-bogus", _AnalyticOnlyBogus, replace=True)
        harness = DifferentialHarness(
            ("beam", "analytic-bogus"), repro_dir=None, minimize=False
        )
        scenarios = [ScenarioGenerator(seed=5, spec=SMALL).scenario(0)]
        report = harness.sweep("cost-model", scenarios)
        assert not report.ok
        failing = report.failures
        # one failing cell per query, all on the planted strategy's row,
        # and only the analytic model left the oracle's answer
        assert len(failing) == SMALL.queries
        assert {cell.strategy for cell in failing} == {"analytic-bogus"}
        assert all(_diverged(cell) == ["analytic"] for cell in failing)
        assert "vs the 'oracle' cost model: analytic diverged" in report.describe()
        with pytest.raises(DifferentialMismatchError, match="analytic"):
            harness.sweep("cost-model", scenarios, raise_on_failure=True)

    def test_untyped_error_while_shrinking_surfaces(self):
        # minimization may discard a shrunk scenario that fails *typed*
        # (not a valid shrink step); an untyped exception is a bug in the
        # code under test and must not be filed as "does not reproduce"
        register_strategy("shrink-crash", _CrashesWhenShrunk, replace=True)
        harness = DifferentialHarness(("beam", "shrink-crash"), repro_dir=None)
        scenario = ScenarioGenerator(seed=9, spec=SMALL).scenario(0)
        _CrashesWhenShrunk.full_size = _sigma_bytes(scenario.system)
        with pytest.raises(KeyError, match="planted"):
            harness.sweep("differential", [scenario])
