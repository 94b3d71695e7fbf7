"""The evaluator's effect seam: layering, bare/session parity, run scoping.

``core/evaluator.py`` is definitions (1)-(9) and nothing else; recovery,
fault injection, tracing and profiling attach from outside ``core`` by
overriding its effect seam (``repro.faults.RecoveringEvaluator``, the
evaluator every ``Session`` builds).  These tests pin the layering, that
the session's evaluator with nothing attached *is* the bare evaluator,
that the cost oracle and the equivalence checker never see faults, and
that fault state and tracer are scoped to one run.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import repro.core
from repro import Session, connect
from repro.core import ExpressionEvaluator, check_equivalence, measure
from repro.core.expressions import FragmentedDoc, GenericDoc
from repro.errors import MessageLostError
from repro.faults import (
    LINK_DROP,
    FaultEvent,
    FaultPlan,
    FaultState,
    RecoveringEvaluator,
)
from repro.obs import NO_TRACER, Tracer
from repro.workloads import (
    CHAOS_SPEC,
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
)
from repro.xmlcore.serializer import serialize

CORE = Path(repro.core.__file__).parent

#: The overridable primitives; everything else on the evaluator is a definition.
SEAM = {
    "_deliver",
    "_call_provider",
    "_on_cpu",
    "_lost",
    "_read_fragment",
    "_activate_document",
}

#: What the bare evaluator must not know about.
BANNED = {
    "recovery",
    "tracer",
    "profiler",
    "deadline_at",
    "partial",
    "losses",
    "counters",
    "faults",
}


def drop_everything(system) -> FaultPlan:
    """Every link loses every message, forever."""
    peers = list(system.peers)
    return FaultPlan(
        seed=1,
        events=tuple(
            FaultEvent(LINK_DROP, 0.0, 1e9, src=src, dst=dst)
            for src in peers
            for dst in peers
            if src != dst
        ),
    )


# ---------------------------------------------------------------------------
# (a) layering
# ---------------------------------------------------------------------------

def _imported_modules(path: Path):
    """Absolute names of every module ``path`` imports (or imports from)."""
    package = ["repro", "core"]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:  # ``from ..obs import tracer``
                yield f"{module}.{alias.name}"


class TestLayering:
    def test_core_imports_neither_faults_nor_the_tracer(self):
        offenders = [
            (path.name, module)
            for path in sorted(CORE.glob("*.py"))
            for module in _imported_modules(path)
            if module.startswith("repro.faults")
            or module in ("repro.obs.tracer", "repro.obs.Tracer")
        ]
        assert offenders == []

    def test_bare_constructor_is_system_and_pick_policy(self):
        params = list(inspect.signature(ExpressionEvaluator.__init__).parameters)
        assert params == ["self", "system", "pick_policy"]

    def test_evaluator_source_names_nothing_of_the_layers_above(self):
        source = (CORE / "evaluator.py").read_text()
        identifiers = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, ast.arg):
                identifiers.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                identifiers.add(node.arg)
        assert identifiers & BANNED == set()
        # docstrings and comments too: the words themselves are gone
        assert set(re.findall(r"[A-Za-z_]+", source)) & BANNED == set()

    def test_recovery_overrides_the_seam_and_only_the_seam(self):
        assert issubclass(RecoveringEvaluator, ExpressionEvaluator)
        shared = set(vars(RecoveringEvaluator)) & set(vars(ExpressionEvaluator))
        methods = {name for name in shared if not name.startswith("__")}
        assert methods == SEAM
        # in particular not ``eval``: bench/ wraps it on the base class
        assert RecoveringEvaluator.eval is ExpressionEvaluator.eval


# ---------------------------------------------------------------------------
# (b) nothing attached: the session's evaluator is the bare evaluator
# ---------------------------------------------------------------------------

def _observe(evaluator, plans):
    """Everything a sequence of evaluations leaves observable."""
    trail = []
    for plan in plans:
        outcome = evaluator.eval(plan.expr, plan.site)
        trail.append(
            (
                [serialize(item) for item in outcome.items],
                outcome.completed_at,
                outcome.installed,
                outcome.deployed,
                [str(node) for node in outcome.delivered],
            )
        )
    network = evaluator.system.network
    links = {(link.src, link.dst): link.busy_until for link in network.links()}
    return trail, network.stats.snapshot(), links, evaluator.system.stats_snapshot()


SCENARIOS = [
    (seed, spec)
    for seed in (2, 3, 5, 7, 11, 13, 17)
    for spec in (CHAOS_SPEC, FRAGMENTED_SPEC, WRITE_MIX_SPEC)
]


class TestBareParity:
    def test_sweep_is_wide_enough(self):
        assert len(SCENARIOS) >= 20
        shapes = set()
        for seed, spec in SCENARIOS:
            scenario = ScenarioGenerator(seed, spec).scenario(0)
            session = Session(scenario.system)
            for query in scenario.queries:
                plan = session.plan(**query.kwargs())
                shapes.update(type(arg) for arg in plan.expr.args)
            if any(
                scenario.system.peer(pid).document(name).has_service_calls()
                for pid in scenario.system.peers
                for name in scenario.system.peer(pid).documents
            ):
                shapes.add("axml")
        assert {GenericDoc, FragmentedDoc, "axml"} <= shapes

    @pytest.mark.parametrize(
        "seed,spec", SCENARIOS, ids=[f"s{s}-f{p.fragments}w{p.writes}" for s, p in SCENARIOS]
    )
    def test_session_evaluator_with_nothing_attached_is_the_bare_one(self, seed, spec):
        scenario = ScenarioGenerator(seed, spec).scenario(0)
        session = Session(scenario.system)
        plans = [session.plan(**query.kwargs()) for query in scenario.queries]
        attached = session._evaluator(None)
        assert type(attached) is RecoveringEvaluator
        assert attached.policy is None
        assert attached.system.network.tracer is NO_TRACER
        assert attached.system.network.faults is None
        bare = ExpressionEvaluator(scenario.system.clone())
        assert _observe(attached, plans) == _observe(bare, plans)
        assert attached.system.network.metrics.counters() == []


# ---------------------------------------------------------------------------
# (c) the oracle and the equivalence checker are fault- and trace-blind
# ---------------------------------------------------------------------------

class TestOracleBlindness:
    def test_measure_and_check_equivalence_ignore_a_faulted_live_system(self):
        scenario = ScenarioGenerator(7, CHAOS_SPEC).scenario(0)
        system = scenario.system
        session = Session(system, strategy="greedy")
        naive = next(
            plan
            for plan in (session.plan(**q.kwargs()) for q in scenario.queries)
            if measure(plan, system).bytes > 0
        )
        chosen = session.explain(naive).plan
        clean_costs = (measure(naive, system), measure(chosen, system))
        clean_verdict = check_equivalence(naive, chosen, system)
        assert clean_verdict.equivalent

        tracer = Tracer()
        system.network.faults = FaultState(drop_everything(system))
        system.network.tracer = tracer
        # the live network really is dead...
        with pytest.raises(MessageLostError):
            RecoveringEvaluator(system).eval(naive.expr, naive.site)
        spans_after_probe = len(tracer.run)
        # ...and neither the oracle nor the checker notices
        assert (measure(naive, system), measure(chosen, system)) == clean_costs
        faulted_verdict = check_equivalence(naive, chosen, system)
        assert faulted_verdict.equivalent
        assert faulted_verdict.reason == clean_verdict.reason
        assert len(tracer.run) == spans_after_probe
        assert tracer.jobs == {}


# ---------------------------------------------------------------------------
# run-scoped installation (regressions: both once leaked past their run)
# ---------------------------------------------------------------------------

class TestRunScopedInstallation:
    @staticmethod
    def _scenario():
        scenario = ScenarioGenerator(3, CHAOS_SPEC).scenario(0)
        return scenario.system, scenario.queries[0].kwargs()

    def test_fault_plan_does_not_outlive_its_session(self):
        system, query = self._scenario()
        expected = connect(system.clone()).query(**query).answers
        with pytest.raises(MessageLostError):
            connect(system, fault_plan=drop_everything(system)).query(**query)
        report = connect(system).query(**query)
        assert report.answers == expected
        assert system.network.faults is None

    def test_faulted_session_gets_fresh_state_per_run(self, monkeypatch):
        system, query = self._scenario()
        networks = []
        real = Session._evaluator

        def spy(self, pick_policy):
            evaluator = real(self, pick_policy)
            networks.append(evaluator.system.network)
            return evaluator

        monkeypatch.setattr(Session, "_evaluator", spy)
        session = connect(system, fault_plan=drop_everything(system))
        for _ in range(2):
            with pytest.raises(MessageLostError):
                session.query(**query)
        (faults0, tallies0), (faults1, tallies1) = [
            (network.faults, network.metrics) for network in networks
        ]
        assert faults0 is not None and faults1 is not None
        assert faults0 is not faults1 and tallies0 is not tallies1
        assert tallies0.to_dict() == tallies1.to_dict()
        assert system.network.faults is None

    def test_untraced_run_leaves_an_earlier_tracer_alone(self):
        system, query = self._scenario()
        tracer = Tracer()

        def recorded():
            spans = sum(1 for job in tracer.jobs.values() for _ in job.walk())
            return len(tracer.run), spans

        connect(system, tracer=tracer).query(**query)
        before = recorded()
        assert before[1] > 0
        connect(system).query(**query)
        assert system.network.tracer is NO_TRACER
        assert recorded() == before
