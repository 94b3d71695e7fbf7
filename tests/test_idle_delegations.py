"""The search space holds no idle delegation.

An idle delegation is an ``EvalAt(p, e)`` reached at evaluation site
``p``: rule (10) proposes one under an existing ``EvalAt(p, ·)``, and
rules (11), (11f) and (14) wrap what is already evaluated where they
send it.  :meth:`SearchSpace.expand` drops every rewrite with more of
them than the plan it came from.  These tests pin that the drop is
sound (the plan without the wrapper answers alike and costs no more),
that it changes no search outcome, that it compares counts rather than
mere presence, and what it saves on the ``serve_repeat`` stream.  The
same generated searches also pin that a plan's key — a Merkle digest
kept on each node — groups their candidates exactly as the flat token
stream it replaced did.
"""

from hashlib import blake2b

import pytest

import repro
from repro.core import (
    DEFAULT_RULES,
    DocExpr,
    EvalAt,
    ExpressionEvaluator,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    SearchSpace,
    plan_fingerprint,
    strategies,
)
from repro.core.cost import measure
from repro.core.expressions import (
    ANY,
    DocDest,
    FragmentedDoc,
    Gather,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from repro.core.rules import idle_delegations
from repro.core.strategies import make_strategy
from repro.engine import ClosedLoopFeed, JobRequest
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import (
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import parse, serialize
from repro.xmlcore.serializer import escape_attr
from repro.xquery import Query

FAMILIES = {
    "default": ScenarioSpec(),
    "fragmented": FRAGMENTED_SPEC,
    "axml": ScenarioSpec(axml_documents=3, services=3),
}


def family_spec(family):
    return WRITE_MIX_SPEC if family == "write-mix" else FAMILIES[family]


#: bench/workloads.py's serve scenario
SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)


def strip_idle(expr, site):
    """``expr`` evaluated at ``site`` with every idle ``EvalAt`` removed."""
    if isinstance(expr, EvalAt):
        inner = strip_idle(expr.expr, expr.peer)
        return inner if expr.peer == site else EvalAt(expr.peer, inner)
    children = expr.children()
    if not children:
        return expr
    return expr.with_children(tuple(strip_idle(child, site) for child in children))


class TestPredicate:
    def test_the_site_travels_through_eval_at_only(self):
        doc = DocExpr("cat", "data")
        apply = QueryApply(QueryRef(Query("$d", params=("d",)), "client"), (doc,))
        assert idle_delegations(Plan(apply, "client")) == 0
        assert idle_delegations(Plan(EvalAt("client", apply), "client")) == 1
        assert idle_delegations(Plan(EvalAt("data", apply), "client")) == 0
        nested = EvalAt("data", QueryApply(apply.query, (EvalAt("data", doc),)))
        assert idle_delegations(Plan(nested, "client")) == 1
        assert idle_delegations(Plan(EvalAt("client", nested), "client")) == 2


# ---------------------------------------------------------------------------
# (a) soundness: every dropped rewrite, against itself without the wrapper
# ---------------------------------------------------------------------------

class _Recording:
    """A rule that logs everything it proposes."""

    def __init__(self, rule, log):
        self.rule, self.name, self.log = rule, rule.name, log

    def apply(self, plan, system):
        proposed = self.rule.apply(plan, system)
        self.log.extend(proposed)
        return proposed


def dropped_rewrites(system, plan):
    """The rewrites one beam search over ``plan`` proposed and dropped."""
    proposed, kept = [], []
    space = SearchSpace(system, rules=[_Recording(r, proposed) for r in DEFAULT_RULES])
    expand = space.expand

    def keeping(current):
        rewrites = expand(current)
        kept.extend(rewrites)
        return rewrites

    space.expand = keeping
    make_strategy("beam").search(plan, space)
    survivors = {id(rewrite) for rewrite in kept}
    return [rewrite for rewrite in proposed if id(rewrite) not in survivors]


def answers(plan, system):
    outcome = ExpressionEvaluator(system.clone()).eval(plan.expr, plan.site)
    return [serialize(item) for item in outcome.items]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_dropped_rewrite_answers_alike_and_costs_no_less(family):
    checked = 0
    for scenario in ScenarioGenerator(seed=7, spec=FAMILIES[family]).scenarios(2):
        session = Session(scenario.system)
        for query in scenario.queries:
            kwargs = query.kwargs()
            plan = session.plan(
                kwargs["source"], at=kwargs["at"], bind=kwargs["bind"], name=kwargs["name"]
            )
            seen = set()
            for rewrite in dropped_rewrites(scenario.system, plan):
                key = plan_fingerprint(rewrite.plan)
                if key in seen:
                    continue
                seen.add(key)
                bare = Plan(strip_idle(rewrite.plan.expr, rewrite.plan.site), rewrite.plan.site)
                assert idle_delegations(bare) == 0 < idle_delegations(rewrite.plan)
                wrapped_cost = measure(rewrite.plan, scenario.system)
                bare_cost = measure(bare, scenario.system)
                assert wrapped_cost.messages == bare_cost.messages, rewrite.describe()
                assert bare_cost.scalar() <= wrapped_cost.scalar(), rewrite.describe()
                assert answers(rewrite.plan, scenario.system) == answers(
                    bare, scenario.system
                ), rewrite.describe()
                checked += 1
    assert checked > 0, "no rewrite was dropped"


# ---------------------------------------------------------------------------
# (b) same choices: every strategy under every cost model, filter on / off
# ---------------------------------------------------------------------------

def search_outcomes(scenario, strategy, cost_model):
    """Per query: (chosen plan key, best cost, original cost), and the
    candidates the searches scored in total."""
    session = Session(scenario.system.clone())
    for record in scenario.writes:
        session.write(record.op())
    outcomes, scored = [], 0
    for query in scenario.queries:
        kwargs = query.kwargs()
        plan = session.plan(
            kwargs["source"], at=kwargs["at"], bind=kwargs["bind"], name=kwargs["name"]
        )
        optimizer = Optimizer(session.system, cost_model=cost_model)
        result = optimizer.optimize_with(strategy, plan)
        outcomes.append(
            (plan_fingerprint(result.best), result.best_cost, result.original_cost)
        )
        scored += result.cache.plans_scored
    return outcomes, scored


def every_search(scenarios):
    outcomes, scored = [], 0
    for scenario in scenarios:
        for strategy in ("beam", "greedy", "exhaustive"):
            for cost_model in ("oracle", "hybrid", "analytic"):
                found, count = search_outcomes(scenario, strategy, cost_model)
                outcomes.append((scenario.index, strategy, cost_model, found))
                scored += count
    return outcomes, scored


@pytest.mark.generated
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["write-mix"])
def test_b_dropping_idle_rewrites_changes_no_choice(family, monkeypatch):
    scenarios = list(ScenarioGenerator(seed=7, spec=family_spec(family)).scenarios(8))
    filtered, filtered_scored = every_search(scenarios)
    monkeypatch.setattr(strategies, "idle_delegations", lambda plan: 0)
    unfiltered, unfiltered_scored = every_search(scenarios)
    assert filtered == unfiltered
    assert filtered_scored < unfiltered_scored


# ---------------------------------------------------------------------------
# (b') same classes: the kept Merkle digest against the flat token stream
# ---------------------------------------------------------------------------

def flat_fingerprint(plan, name_widths=False):
    """The plan key as one flat token stream over the whole expression,
    as it was computed before each node kept its own digest: the reference
    the kept digest must split plans like."""
    digest = blake2b(digest_size=12)

    def token(*parts):
        for part in parts:
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")

    def feed(expr):
        if isinstance(expr, TreeExpr):
            token("x-tree", expr.home, expr.tree.content_fingerprint())
        elif isinstance(expr, DocExpr):
            token("x-doc", expr.name, expr.home)
        elif isinstance(expr, GenericDoc):
            token("x-doc", expr.name, ANY)
        elif isinstance(expr, FragmentedDoc):
            token("x-fragdoc", expr.name)
        elif isinstance(expr, Gather):
            token("x-gather", str(len(expr.parts)))
            for part in expr.parts:
                feed(part)
        elif isinstance(expr, QueryRef):
            name = expr.query.name or ""
            if name and name_widths:
                name = str(len(escape_attr(name).encode("utf-8")))
            token("x-query", expr.home, " ".join(expr.query.params), name,
                  expr.query.source)
        elif isinstance(expr, GenericService):
            token("x-service", expr.name, ANY)
        elif isinstance(expr, QueryApply):
            token("x-apply")
            feed(expr.query)
            token("x-args", str(len(expr.args)))
            for arg in expr.args:
                feed(arg)
        elif isinstance(expr, ServiceCallExpr):
            token("x-sc", expr.provider, expr.service, str(len(expr.params)))
            for param in expr.params:
                feed(param)
            for target in expr.forwards:
                token("x-forw", str(target))
        elif isinstance(expr, Send):
            token("x-send", " ".join(expr.via))
            dest = expr.dest
            if isinstance(dest, PeerDest):
                token("x-dest", "peer", dest.peer)
            elif isinstance(dest, NodesDest):
                token("x-dest", "nodes", *[str(n) for n in dest.nodes])
            else:
                assert isinstance(dest, DocDest)
                token("x-dest", "doc", dest.name, dest.peer)
            feed(expr.payload)
        elif isinstance(expr, EvalAt):
            token("x-eval", expr.peer)
            feed(expr.expr)
        else:
            assert isinstance(expr, Seq)
            token("x-seq", str(len(expr.steps)))
            for step in expr.steps:
                feed(step)

    feed(plan.expr)
    return f"{plan.site}|{digest.hexdigest()}"


def assert_same_classes(scenarios, monkeypatch):
    """Every candidate the searches key falls into the same classes under
    :func:`plan_fingerprint` as under :func:`flat_fingerprint`, for both
    spellings: no new collision, no new split."""
    pairs = {False: set(), True: set()}
    keyed = strategies.plan_fingerprint

    def recording(plan, name_widths=False):
        for widths, seen in pairs.items():
            seen.add((keyed(plan, widths), flat_fingerprint(plan, widths)))
        return keyed(plan, name_widths)

    monkeypatch.setattr(strategies, "plan_fingerprint", recording)
    every_search(scenarios)
    for seen in pairs.values():
        assert len(seen) > 1
        assert len(seen) == len({new for new, _ in seen}) == len({old for _, old in seen})


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["write-mix"])
def test_b_the_kept_digest_groups_candidates_as_the_flat_stream(family, monkeypatch):
    scenarios = list(ScenarioGenerator(seed=7, spec=family_spec(family)).scenarios(1))
    assert_same_classes(scenarios, monkeypatch)


@pytest.mark.generated
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["write-mix"])
def test_b_the_kept_digest_groups_every_sweep_candidate_alike(family, monkeypatch):
    scenarios = list(ScenarioGenerator(seed=7, spec=family_spec(family)).scenarios(8))
    assert_same_classes(scenarios, monkeypatch)


# ---------------------------------------------------------------------------
# (c) the filter counts: a plan that starts wrapped is still searched
# ---------------------------------------------------------------------------

@pytest.fixture()
def system():
    system = AXMLSystem.with_peers(["client", "data", "helper"], bandwidth=50_000.0)
    items = "".join(
        f"<item><name>nm{i}</name><price>{i}</price></item>" for i in range(40)
    )
    system.peer("data").install_document("cat", parse(f"<catalog>{items}</catalog>"))
    return system


def naive_plan():
    query = Query(
        "for $i in $d//item where $i/price > 30 return $i/name",
        params=("d",),
        name="sel",
    )
    return Plan(QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)), "client")


@pytest.mark.parametrize("strategy", ["beam", "greedy", "exhaustive"])
def test_c_a_plan_wrapped_at_its_own_site_is_still_improved(system, strategy):
    bare = naive_plan()
    wrapped = Plan(EvalAt(bare.site, bare.expr), bare.site)
    assert idle_delegations(wrapped) == 1
    optimizer = Optimizer(system)
    from_bare = optimizer.optimize_with(strategy, bare)
    from_wrapped = optimizer.optimize_with(strategy, wrapped)
    assert from_bare.best_cost < from_bare.original_cost
    assert from_wrapped.original_cost == from_bare.original_cost
    assert from_wrapped.best_cost == from_bare.best_cost


# ---------------------------------------------------------------------------
# (d) what the serve_repeat stream no longer simulates, and who dropped it
# ---------------------------------------------------------------------------

def serve_repeat(monkeypatch):
    """bench/workloads.py's ``serve_repeat`` pass: (session, report, measures)."""
    from repro.core import costmodel

    scenario = ScenarioGenerator(7, SERVE_SPEC).scenario(0)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 4)
    ]
    session = repro.connect(scenario.system)
    measures = []
    real = costmodel.measure
    monkeypatch.setattr(
        costmodel, "measure", lambda *a, **k: measures.append(1) or real(*a, **k)
    )
    report = session.serve(feed=ClosedLoopFeed(requests, 4), seed=7)
    assert len(report.jobs) == 24 and all(job.status == "done" for job in report.jobs)
    return session, report, len(measures)


def test_d_serve_repeat_simulates_at_most_150_candidates(monkeypatch):
    _session, _report, measures = serve_repeat(monkeypatch)
    assert measures <= 150  # 280 while idle delegations were simulated


def test_drops_are_counted_by_rule_and_reach_the_job_reports(monkeypatch):
    session, report, _ = serve_repeat(monkeypatch)
    registry = session.optimizer.registry
    assert registry.counter_value("rewrites_dropped", rule="query-delegation(10)") > 0
    by_rule = sum(c.value for c in registry.counters("rewrites_dropped"))
    per_job = sum(job.report.plan_cache.idle_rewrites_dropped for job in report.jobs)
    lifetime = session.plan_cache.stats
    assert by_rule == per_job == lifetime.idle_rewrites_dropped > 0
    assert lifetime.as_dict()["idle_rewrites_dropped"] == by_rule
    assert "idle rewrites dropped" in lifetime.describe()
