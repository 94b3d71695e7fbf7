"""A lone job is executed by the search's simulation of its plan.

Under the oracle model the search runs every candidate on a clone of Σ
(:func:`repro.core.cost.measure`).  When the bare evaluator would run the
chosen plan — no fault plan, retry policy, tracer or deadline, not
``partial`` — ``Session._pipeline`` fills the
report from the search's run of that plan instead of evaluating it on a
second clone.  These tests pin that the report is the one a forced
re-execution gives (answers, completion time, network and per-peer
statistics), that every other job still re-executes, what the counter
counts on the benchmark's quick passes, that no simulated clone of Σ
outlives its job, and the answer contract (items may be frozen).
"""

import gc
import importlib.util
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core import DocExpr, ExpressionEvaluator, Plan
from repro.core.cost import Simulations
from repro.engine import ClosedLoopFeed, JobRequest
from repro.errors import FrozenTreeError
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.plan import LINK_DEGRADE, FaultEvent
from repro.obs import Tracer
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import (
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import element, parse, serialize

FAMILIES = {
    "default": ScenarioSpec(),
    "fragmented": FRAGMENTED_SPEC,
    "axml": ScenarioSpec(axml_documents=3, services=3),
}

#: bench/workloads.py's ``rw_frag`` scenario (scenario 1 of this spec)
RW_FRAG_SPEC = replace(WRITE_MIX_SPEC, items=60, writes=3)

#: bench/workloads.py's serve scenario
SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def digest(items, completed_at, network, peers):
    return [serialize(item) for item in items], completed_at, network, peers


def executed(report):
    """What the session reported as the job's execution."""
    return digest(report.items, report.completed_at, report.network, report.peers)


def reference(system, report, pick_policy=None):
    """The chosen plan evaluated again, by the bare evaluator, on a clone."""
    twin = system.clone()
    outcome = ExpressionEvaluator(twin, pick_policy).eval(
        report.plan.expr, report.plan.site
    )
    return digest(
        outcome.items,
        outcome.completed_at,
        twin.network.stats.snapshot(),
        twin.stats_snapshot(),
    )


def sweep(spec, seed, count, strategies, start=0):
    """Every query of ``count`` scenarios, after each write (if any), on
    one session per strategy; returns (reports checked, reports reused)."""
    checked = reused = 0
    for scenario in ScenarioGenerator(seed, spec).scenarios(count, start):
        for strategy in strategies:
            session = Session(scenario.system.clone(), strategy=strategy)
            steps = [record.op() for record in scenario.writes] or [None]
            for op in steps:
                if op is not None:
                    session.write(op)
                for query in scenario.queries:
                    report = session.query(**query.kwargs())
                    assert executed(report) == reference(session.system, report), (
                        spec, seed, scenario.index, strategy, query.name
                    )
                    checked += 1
                    reused += report.plan_cache.executions_reused
    return checked, reused


# ---------------------------------------------------------------------------
# the differential pin: a reused run is the run a re-execution gives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_reused_run_equals_a_re_execution(family):
    checked, reused = sweep(FAMILIES[family], 7, 2, ("beam",))
    assert checked > 0 and reused == checked


def test_a_reused_run_equals_a_re_execution_after_writes():
    checked, reused = sweep(RW_FRAG_SPEC, 7, 1, ("greedy",), start=1)
    # a repeated read after a write that touched none of its documents is
    # a prepared hit: executed as before, and checked all the same
    assert 0 < reused < checked


@pytest.mark.generated
@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["rw_frag"])
def test_every_generated_report_equals_a_re_execution(family, seed):
    if family == "rw_frag":
        checked, reused = sweep(RW_FRAG_SPEC, seed, 1, ("beam", "greedy", "exhaustive"), start=1)
    else:
        checked, reused = sweep(
            FAMILIES[family], seed, 6, ("beam", "greedy", "exhaustive")
        )
    assert 0 < reused <= checked


# ---------------------------------------------------------------------------
# every job the bare evaluator would not run still re-executes
# ---------------------------------------------------------------------------

@pytest.fixture()
def system():
    system = AXMLSystem.with_peers(["client", "data"], bandwidth=50_000.0)
    items = "".join(
        f"<item><name>nm{i}</name><price>{i}</price></item>" for i in range(40)
    )
    system.peer("data").install_document("cat", parse(f"<catalog>{items}</catalog>"))
    return system


QUERY = dict(
    source="for $i in $d//item where $i/price > 30 return $i/name",
    at="client",
    bind={"d": "cat@data"},
)


def runs_counted(monkeypatch):
    """Calls of the one execution path, ``Session._run_report``."""
    runs = []
    real = Session._run_report
    monkeypatch.setattr(
        Session, "_run_report", lambda *a, **k: runs.append(1) or real(*a, **k)
    )
    return runs


def test_a_bare_isolated_query_is_not_evaluated_again(system, monkeypatch):
    runs = runs_counted(monkeypatch)
    report = repro.connect(system).query(**QUERY)
    assert runs == [] and report.executed
    assert report.plan_cache.executions_reused == 1
    assert executed(report) == reference(system, report)
    assert "executed by the search's simulation" in report.describe()


def quiet_fault_plan(system):
    """A non-empty plan whose one window opens long after any job settles."""
    link = next(iter(system.network.links()))
    event = FaultEvent(
        LINK_DEGRADE, 100.0, 101.0, src=link.src, dst=link.dst, factor=2.0
    )
    return FaultPlan(seed=1, events=(event,))


@pytest.mark.parametrize(
    "case", ["tracer", "retry", "fault_plan", "deadline", "partial"]
)
def test_every_other_job_re_executes(system, monkeypatch, case):
    session_kwargs, query_kwargs = {}, {}
    if case == "tracer":
        session_kwargs["tracer"] = Tracer()
    elif case == "retry":
        session_kwargs["retry"] = RetryPolicy()
    elif case == "fault_plan":
        session_kwargs["fault_plan"] = quiet_fault_plan(system)
    elif case == "deadline":
        query_kwargs["deadline"] = 10.0
    else:
        query_kwargs["partial"] = True
    expected = reference(system, repro.connect(system.clone()).query(**QUERY))
    runs = runs_counted(monkeypatch)
    session = repro.connect(system, **session_kwargs)
    report = session.query(**QUERY, **query_kwargs)
    assert runs == [1]
    assert report.plan_cache.executions_reused == 0
    assert session.plan_cache.stats.executions_reused == 0
    assert executed(report) == expected
    assert "executed by the search's simulation" not in report.describe()
    if case == "tracer":
        assert report.spans is not None and len(report.spans) > 0


def test_a_prepared_hit_re_executes(system, monkeypatch):
    session = repro.connect(system)
    session.query(**QUERY, name="q1")
    runs = runs_counted(monkeypatch)
    hit = session.query(**QUERY, name="q2")
    assert hit.plan_cache.prepared_hits == 1 and runs == [1]
    assert hit.plan_cache.executions_reused == 0
    assert session.plan_cache.stats.executions_reused == 1


def test_analytic_searches_simulate_nothing_to_reuse(system, monkeypatch):
    runs = runs_counted(monkeypatch)
    report = repro.connect(system, cost_model="analytic").query(**QUERY)
    assert runs == [1] and report.plan_cache.executions_reused == 0


def test_hybrid_reuses_its_final_check(system, monkeypatch):
    runs = runs_counted(monkeypatch)
    report = repro.connect(system, cost_model="hybrid").query(**QUERY)
    assert runs == [] and report.plan_cache.executions_reused == 1
    assert executed(report) == reference(system, report)


def test_unoptimized_oracle_query_clones_once(system, monkeypatch):
    clones = []
    real = AXMLSystem.clone
    monkeypatch.setattr(
        AXMLSystem, "clone", lambda self: clones.append(1) or real(self)
    )
    report = repro.connect(system).query(**QUERY, optimize=False)
    assert len(clones) == 1
    assert report.strategy == "none" and report.plan is report.original
    assert report.plan_cache.executions_reused == 1
    monkeypatch.undo()
    assert executed(report) == reference(system, report)


# ---------------------------------------------------------------------------
# count it: the benchmark's quick passes
# ---------------------------------------------------------------------------

def quick_pass(name):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    workload = module.make(name, module.QUICK)
    return workload.run(workload.setup(7))


def test_every_adhoc_cold_job_is_executed_by_its_search():
    result = quick_pass("adhoc_cold")
    assert result.errors == [] and result.reports
    assert all(r.plan_cache.executions_reused == 1 for r in result.reports)
    total = sum(s.plan_cache.stats.executions_reused for s in result.sessions)
    assert total == len(result.reports)


def test_rw_frag_reuses_every_searched_read_and_no_prepared_hit():
    result = quick_pass("rw_frag")
    assert result.errors == []
    searched = [r for r in result.reports if not r.plan_cache.prepared_hits]
    prepared = [r for r in result.reports if r.plan_cache.prepared_hits]
    assert searched and prepared
    assert all(r.plan_cache.executions_reused == 1 for r in searched)
    assert all(r.plan_cache.executions_reused == 0 for r in prepared)
    (session,) = result.sessions
    stats = session.plan_cache.stats
    assert stats.executions_reused == len(searched)
    assert stats.as_dict()["executions_reused"] == len(searched)
    assert stats.delta_since(searched[0].plan_cache).executions_reused == len(searched) - 1
    assert f"{len(searched)} executions reused" in stats.describe()


# ---------------------------------------------------------------------------
# no leaked twins
# ---------------------------------------------------------------------------

def test_a_search_keeps_every_plan_at_the_lowest_cost_by_identity():
    runs = Simulations()
    first, tie, dearer, cheaper = (Plan(DocExpr("d", "p"), "p") for _ in range(4))
    runs.offer(first, 2.0, "first")
    runs.offer(dearer, 3.0, "dearer")
    runs.offer(tie, 2.0, "tie")
    assert runs.simulation(first) == "first" and runs.simulation(tie) == "tie"
    assert runs.simulation(dearer) is None
    assert first == cheaper and runs.simulation(cheaper) is None  # equal, not it
    runs.offer(cheaper, 1.0, "cheaper")
    assert runs.winners == [(cheaper, "cheaper")]
    assert runs.simulation(first) is None


def simulated_twins(monkeypatch):
    """A weak reference to the clone of Σ behind every simulation offered."""
    twins = []
    real = Simulations.offer

    def offer(self, plan, scalar, simulation):
        twins.append(weakref.ref(simulation.system))
        return real(self, plan, scalar, simulation)

    monkeypatch.setattr(Simulations, "offer", offer)
    return twins


def all_dead(twins):
    gc.collect()
    return twins and all(ref() is None for ref in twins)


def test_no_twin_outlives_a_query(system, monkeypatch):
    twins = simulated_twins(monkeypatch)
    session = repro.connect(system)
    report = session.query(**QUERY)
    assert report.plan_cache.executions_reused == 1
    assert all_dead(twins)


def test_no_twin_outlives_a_served_stream(monkeypatch):
    twins = simulated_twins(monkeypatch)
    scenario = ScenarioGenerator(7, SERVE_SPEC).scenario(0)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 2)
    ]
    session = repro.connect(scenario.system)
    served = session.serve(feed=ClosedLoopFeed(requests, 4), seed=7)
    assert all(job.status == "done" for job in served.jobs)
    assert session.plan_cache.stats.executions_reused == 0
    assert all_dead(twins)


def test_no_twin_is_pinned_by_the_prepared_table(monkeypatch):
    twins = simulated_twins(monkeypatch)
    scenario = ScenarioGenerator(7, ScenarioSpec()).scenario(0)
    session = repro.connect(scenario.system)
    reports = [session.query(**q.kwargs()) for q in scenario.queries]
    assert len(session.plan_cache._prepared) == len(reports)
    assert all(r.plan_cache.executions_reused == 1 for r in reports)
    assert all_dead(twins)


# ---------------------------------------------------------------------------
# the answer contract: items are read-only values
# ---------------------------------------------------------------------------

def test_a_reused_answer_is_frozen_and_its_copy_is_editable(system):
    report = repro.connect(system).query(**QUERY)
    assert report.plan_cache.executions_reused == 1
    item = report.items[0]
    assert item.frozen
    with pytest.raises(FrozenTreeError):
        item.append(element("note"))
    copy = item.copy()
    copy.append(element("note"))
    assert serialize(copy) != serialize(item)
