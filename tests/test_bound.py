"""The oracle search's lower bound, and the candidates it prunes.

``repro.core.cost.lower_bound`` prices a plan from one walk of its
expression, charging only what ``measure`` certainly charges.  Every
search scores the original plan, then simulates a candidate only when its
bound could still beat the best so far (``SearchSpace.price``).  Two
claims carry that:

* the bound never exceeds the simulation — bytes, messages, time and the
  scalar, each exactly, with no tolerance — on every candidate of
  ``scripts/golden.py``'s 272 searches and on generated plans;
* pruning changes nothing a search hands out: the same plan, best and
  original ``Cost``, producing rule and ``explored`` as with nothing
  pruned (the ``no_bound`` fixture), over those searches, a write
  stream and a served stream under a peer crash.
"""

import contextlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Session, connect
from repro.core import BeamSearchStrategy, Optimizer
from repro.core.cost import Cost, Simulations, lower_bound, measure
from repro.core.costmodel import OracleCostModel
from repro.core.expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Gather,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)
from repro.core.planspace import CacheStats, PlanCache, plan_fingerprint
from repro.core.rules import Plan, Rewrite, RewriteRule
from repro.engine import ClosedLoopFeed, JobRequest
from repro.errors import (
    DuplicateNameError,
    EvaluationUndefinedError,
    ExpressionError,
    GenericResolutionError,
    PeerDownError,
    ReproError,
    ServiceCallError,
    UnknownDocumentError,
    UnknownPeerError,
)
from repro.faults import PEER_CRASH, PEER_REJOIN, ChurnController, FaultEvent, FaultPlan
from repro.peers import AXMLSystem
from repro.peers.service import QueryMemo
from repro.workloads import (
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import NodeId, parse
from repro.xquery import Query

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def admissible(bound: Cost, cost: Cost) -> bool:
    """Whether ``bound`` is at most ``cost`` in every field, exactly."""
    return (
        bound.bytes <= cost.bytes
        and bound.messages <= cost.messages
        and bound.time <= cost.time
        and bound.scalar() <= cost.scalar()
    )


@contextlib.contextmanager
def bounded_scores(monkeypatch, pairs):
    """Every oracle score also bounds the plan first, over the search's
    memo and transcripts as they stand, and appends ``(bound or the
    error it raised, cost or the error it raised)`` to ``pairs``."""
    score = OracleCostModel.score

    def checked(self, plan):
        cache = self.cache
        runs = cache.simulations
        try:
            bound = lower_bound(
                plan, self.system, cache.query_memo,
                runs.transcripts if runs is not None else None, self.pick_policy,
            )
        except ReproError as exc:
            bound = exc
        try:
            cost = score(self, plan)
        except ReproError as exc:
            pairs.append((bound, exc))
            raise
        pairs.append((bound, cost))
        return cost

    with monkeypatch.context() as patch:
        patch.setattr(OracleCostModel, "score", checked)
        yield


def test_the_bound_is_admissible_on_every_golden_candidate(monkeypatch, no_bound):
    pairs = []
    with no_bound(), bounded_scores(monkeypatch, pairs):
        searches = sum(
            1 for _ in map(_explain, _golden().search_protocol())
        )
    assert searches == 272
    assert len(pairs) > 2000  # 2 543 when written: every candidate scored
    for bound, cost in pairs:
        if isinstance(bound, ReproError):
            assert isinstance(cost, ReproError), (bound, cost)
        elif isinstance(cost, Cost):
            assert admissible(bound, cost), (bound, cost)


def _explain(search):
    _key, session, query = search
    return session.explain(
        query.source, at=query.at, bind=query.bindings, name=query.name
    )


def _record(report):
    """What a search hands out: chosen plan and site, costs, rule, explored."""
    rule = next(rule for plan, _, rule in report.trace if plan is report.plan)
    return (
        plan_fingerprint(report.plan), report.best_cost, report.original_cost,
        rule, report.explored,
    )


def test_pruning_changes_no_golden_search(no_bound):
    golden = _golden()
    pruned = [_record(report) for report in map(_explain, golden.search_protocol())]
    with no_bound():
        unpruned = [
            _record(report) for report in map(_explain, golden.search_protocol())
        ]
    assert pruned == unpruned


def test_most_golden_candidates_are_not_simulated():
    scored = skipped = 0
    for report in map(_explain, _golden().search_protocol()):
        scored += report.plan_cache.plans_scored
        skipped += report.plan_cache.candidates_pruned
        assert len(report.pruned) == report.plan_cache.candidates_pruned
        assert report.explored == len(report.trace) + len(report.pruned)
    assert skipped > scored  # 1 865 pruned, 678 scored when written


def _write_stream(content_seed):
    """The ``rw_frag`` shape: one traced session over ``WRITE_MIX_SPEC``
    scenario 1 at 60 items, each write, then every query again."""
    spec = replace(WRITE_MIX_SPEC, items=60, writes=4)
    scenario = ScenarioGenerator(content_seed, spec).scenario(1)
    session = connect(scenario.system.clone(), trace=True)
    records = []
    for write in scenario.writes:
        session.write(write.op())
        for query in scenario.queries:
            report = session.query(
                query.source, at=query.at, bind=query.bindings, name=query.name
            )
            records.append((_record(report), report.answers))
    return records


@pytest.mark.parametrize("content_seed", [7, 11])
def test_pruning_changes_no_search_of_a_write_stream(content_seed, no_bound):
    pruned = _write_stream(content_seed)
    with no_bound():
        assert pruned == _write_stream(content_seed)


def _served_under_a_crash(seed):
    """Every query of a generated scenario served twice, while the
    scenario's second peer crashes at 0.03 and rejoins at 0.08."""
    scenario = ScenarioGenerator(seed, ScenarioSpec()).scenario(0)
    peer = sorted(scenario.system.peers)[1]
    plan = FaultPlan(events=(
        FaultEvent(PEER_CRASH, 0.03, peer=peer),
        FaultEvent(PEER_REJOIN, 0.08, peer=peer),
    ))
    session = connect(scenario.system, fault_plan=plan, trace=True)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 2)
    ]
    served = session.serve(feed=ClosedLoopFeed(requests, 4), seed=seed)
    return [
        (
            job.name, job.status, type(job.error), job.answers,
            None if job.report is None else _record(job.report),
        )
        for job in served.jobs
    ], served.events


@pytest.mark.parametrize("seed", [7, 11])
def test_pruning_changes_no_search_of_a_served_stream_under_a_crash(seed, no_bound):
    pruned = _served_under_a_crash(seed)
    with no_bound():
        assert pruned == _served_under_a_crash(seed)


# -- a winner two rewrites deep, through a pruned plan --------------------------


class Detour(RewriteRule):
    """Runs the whole plan at the far peer ``x``: always a loss."""

    name = "detour"

    def apply(self, plan, system):
        if isinstance(plan.expr, QueryApply):
            return [Rewrite(Plan(EvalAt("x", plan.expr), plan.site), self.name)]
        return []


class Home(RewriteRule):
    """Moves a detoured plan to its document's home: the win."""

    name = "home"

    def apply(self, plan, system):
        expr = plan.expr
        if isinstance(expr, EvalAt) and expr.peer == "x":
            return [Rewrite(Plan(EvalAt("data", expr.expr), plan.site), self.name)]
        return []


def _detour_system():
    system = AXMLSystem.with_peers(["client", "data", "x"], bandwidth=20_000.0)
    for peer in ("client", "data"):
        system.network.add_link(peer, "x", latency=1.0, bandwidth=20_000.0)
    system.peer("data").install_document("cat", parse(
        "<c>" + "".join(f"<i><p>{n}</p></i>" for n in range(80)) + "</c>"
    ))
    query = Query("for $i in $d//i where $i/p > 77 return $i", params=("d",), name="sel")
    plan = Plan(QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)), "client")
    return system, plan


def _search_detour():
    system, plan = _detour_system()
    optimizer = Optimizer(system, rules=[Detour(), Home()])
    return optimizer.optimize_with(BeamSearchStrategy(depth=2), plan)


def test_a_pruned_candidate_is_still_expanded(no_bound, monkeypatch):
    offered = []
    offer = Simulations.offer

    def recorded(self, plan, scalar, simulation):
        offered.append(plan)
        offer(self, plan, scalar, simulation)

    monkeypatch.setattr(Simulations, "offer", recorded)
    result = _search_detour()
    [(detour, bound, rule)] = result.pruned
    assert rule == "detour" and isinstance(detour.expr, EvalAt)
    assert bound.scalar() >= result.original_cost.scalar()
    assert result.best.expr.peer == "data"  # reached from the pruned detour
    assert result.best_cost < result.original_cost
    assert result.cache.candidates_pruned == 1
    assert all(plan is not detour for plan in offered)
    assert result.simulation is not None
    with no_bound():
        unpruned = _search_detour()
    assert not unpruned.pruned
    assert plan_fingerprint(unpruned.best) == plan_fingerprint(result.best)
    assert (unpruned.best_cost, unpruned.original_cost, unpruned.explored) == (
        result.best_cost, result.original_cost, result.explored,
    )


def test_a_traced_report_lists_pruned_candidates_apart():
    system, plan = _detour_system()
    session = Session(system, strategy=BeamSearchStrategy(depth=2), trace=True)
    session.optimizer.space.rules[:] = [Detour(), Home()]
    report = session.explain(
        "for $i in $d//i where $i/p > 77 return $i", at="client", bind={"d": "cat@data"},
    )
    text = report.describe()
    assert "pruned (not simulated; cost at least):" in text
    assert "≥ " in text.split("pruned (not simulated")[1]
    assert report.plan_cache.candidates_pruned == 1
    assert "1 pruned by their bound" in report.plan_cache.describe()
    assert len(report.pruned) == 1 and report.pruned[0][2] == "detour"


# -- the bound reads Σ and changes nothing ---------------------------------------


def test_bounding_leaves_the_system_as_it_was():
    for spec in (ScenarioSpec(), FRAGMENTED_SPEC, replace(WRITE_MIX_SPEC, items=20)):
        scenario = ScenarioGenerator(7, spec).scenario(0)
        system = scenario.system
        before = system.snapshot()
        epochs = dict(system.doc_epochs)
        links = len(list(system.network.built_links()))
        session = Session(system)
        cache = PlanCache()
        model = OracleCostModel(system, cache=cache)
        for query in scenario.queries:
            plan = session.plan(query.source, at=query.at, bind=query.bindings)
            cache.simulations = Simulations()
            model.score(plan)
            for rewrite in session.optimizer.space.expand(plan):
                try:
                    model.bound(rewrite.plan)
                except ReproError:
                    pass
            del cache.simulations
        assert system.snapshot() == before
        assert system.doc_epochs == epochs
        assert len(list(system.network.built_links())) == links


# -- a dead peer -------------------------------------------------------------------


def test_a_query_homed_on_a_dead_peer_raises_in_both():
    """``q@qhome`` ships its text from ``qhome``: once that peer is dead,
    the simulation and the bound both refuse the plan, as they do for a
    document homed on a dead peer."""
    system = AXMLSystem.with_peers(["client", "qhome", "data"])
    system.peer("data").install_document("cat", parse("<c><i>1</i></c>"))
    query = Query("for $i in $d//i return $i", params=("d",), name="q")
    plan = Plan(QueryApply(QueryRef(query, "qhome"), (DocExpr("cat", "data"),)), "client")
    assert admissible(lower_bound(plan, system), measure(plan, system))
    ChurnController(system).kill("qhome")
    with pytest.raises(PeerDownError, match="'q@qhome' is homed on dead peer 'qhome'"):
        measure(plan, system)
    with pytest.raises(PeerDownError, match="'q@qhome' is homed on dead peer 'qhome'"):
        lower_bound(plan, system)


# -- both walks refuse alike ------------------------------------------------------

_QUERY = Query("for $i in $d//i return $i", params=("d",), name="q")
_TREE = parse("<t><i>1</i></t>")
_CAT = DocExpr("cat", "data")


def _apply(head):
    return QueryApply(head, (_CAT,))


#: case -> (plan expression evaluated at ``client``, the error both raise).
#: ``gone`` is a peer that has left; ``nowhere`` is no peer at all.
REFUSALS = {
    "unknown site (EvalAt)": (EvalAt("nowhere", _CAT), UnknownPeerError),
    "dead site (EvalAt)": (EvalAt("gone", _CAT), PeerDownError),
    "unknown site (tree home)": (TreeExpr(_TREE, "nowhere"), UnknownPeerError),
    "dead site (tree home)": (TreeExpr(_TREE, "gone"), PeerDownError),
    "unknown document home": (DocExpr("cat", "nowhere"), UnknownPeerError),
    "missing document": (DocExpr("nope", "data"), UnknownDocumentError),
    "unknown query home": (_apply(QueryRef(_QUERY, "nowhere")), UnknownPeerError),
    "dead query home": (_apply(QueryRef(_QUERY, "gone")), PeerDownError),
    "unknown provider": (ServiceCallExpr("nowhere", "svc"), UnknownPeerError),
    "dead provider": (ServiceCallExpr("gone", "svc"), PeerDownError),
    "missing service": (ServiceCallExpr("prov", "nope"), ServiceCallError),
    "generic document, no live member": (GenericDoc("lost"), GenericResolutionError),
    "generic apply head, no live member": (
        _apply(GenericService("lost-svc")), GenericResolutionError,
    ),
    "generic call, no live member": (
        ServiceCallExpr(ANY, "lost-svc"), GenericResolutionError,
    ),
    "top-level generic service": (GenericService("svc-any"), ExpressionError),
    "send of data homed elsewhere": (
        Send(PeerDest("sink"), _CAT), EvaluationUndefinedError,
    ),
    "send of a query homed elsewhere": (
        Send(PeerDest("sink"), QueryRef(_QUERY, "data")), EvaluationUndefinedError,
    ),
    "query sent to a document": (
        Send(DocDest("q-copy", "sink"), QueryRef(_QUERY, "client")), ExpressionError,
    ),
    "duplicate document": (
        Send(DocDest("cat", "data"), TreeExpr(_TREE, "client")), DuplicateNameError,
    ),
    "send to a dead peer": (
        Send(PeerDest("gone"), TreeExpr(_TREE, "client")), PeerDownError,
    ),
    "send to a dead document home": (
        Send(DocDest("copy", "gone"), TreeExpr(_TREE, "client")), PeerDownError,
    ),
    "send via a dead relay": (
        Send(PeerDest("sink"), TreeExpr(_TREE, "client"), via=("gone",)),
        PeerDownError,
    ),
    "send to a node on a dead peer": (
        Send(NodesDest((NodeId("gone", 0),)), TreeExpr(_TREE, "client")),
        PeerDownError,
    ),
}


def _refusing_system():
    system = AXMLSystem.with_peers(["client", "data", "prov", "sink", "gone"])
    system.peer("data").install_document("cat", parse("<c><i>1</i></c>"))
    system.peer("gone").install_document("cat", parse("<c><i>1</i></c>"))
    for peer in ("prov", "gone"):
        system.peer(peer).install_query_service("svc", "<ok/>")
    system.registry.register_document("lost", "cat", "gone")
    system.registry.register_service("lost-svc", "svc", "gone")
    system.registry.register_service("svc-any", "svc", "prov")
    ChurnController(system).kill("gone")
    return system


@pytest.mark.parametrize("case", list(REFUSALS))
def test_both_walks_refuse_alike(case):
    """Every refusal of E's definitions: the run and its bound raise the
    same type with the same message."""
    expr, error = REFUSALS[case]
    plan = Plan(expr, "client")
    system = _refusing_system()
    with pytest.raises(error) as run:
        measure(plan, system)
    with pytest.raises(error) as bound:
        lower_bound(plan, system)
    assert type(bound.value) is type(run.value)
    assert str(bound.value) == str(run.value)


# -- generated plans ---------------------------------------------------------------

#: Scenario families the generated plans are drawn over.
FAMILIES = (ScenarioSpec(items=8), replace(FRAGMENTED_SPEC, items=8),
            replace(WRITE_MIX_SPEC, items=8))


@st.composite
def plans(draw):
    """A system, its naive plan of one query, and a plan derived from it by
    up to three rewrites and up to two constructors drawn around parts;
    in a quarter of the draws one peer is then killed."""
    spec = draw(st.sampled_from(FAMILIES))
    scenario = ScenarioGenerator(draw(st.integers(0, 30)), spec).scenario(0)
    system = scenario.system
    query = draw(st.sampled_from(scenario.queries))
    naive = Session(system).plan(query.source, at=query.at, bind=query.bindings)
    space = Optimizer(system).space
    plan = naive
    for _ in range(draw(st.integers(0, 3))):
        rewrites = space.expand(plan)
        if not rewrites:
            break
        plan = draw(st.sampled_from(rewrites)).plan
    peers = sorted(system.peers)
    docs = sorted(
        (name, peer_id)
        for peer_id, peer in system.peers.items()
        for name in peer.documents
    )
    expr = plan.expr
    for _ in range(draw(st.integers(0, 2))):
        peer = draw(st.sampled_from(peers))
        name, home = draw(st.sampled_from(docs))
        shape = draw(st.sampled_from(
            ["eval", "gather", "seq", "send-peer", "send-via", "send-doc", "doc-first"]
        ))
        if shape == "eval":
            expr = EvalAt(peer, expr)
        elif shape == "gather":
            expr = Gather((expr, DocExpr(name, home)))
        elif shape == "seq":
            expr = Seq((DocExpr(name, home), expr))
        elif shape == "send-peer":
            expr = Seq((EvalAt(home, Send(PeerDest(peer), DocExpr(name, home))), expr))
        elif shape == "send-via":
            relay = draw(st.sampled_from(peers))
            send = Send(PeerDest(peer), DocExpr(name, home), via=(relay,))
            expr = Seq((EvalAt(home, send), expr))
        elif shape == "send-doc":
            expr = Seq((
                EvalAt(home, Send(DocDest(f"copy-{name}", peer), DocExpr(name, home))),
                Gather((DocExpr(f"copy-{name}", peer), expr)),
            ))
        else:
            expr = Gather((DocExpr(name, home), expr, DocExpr(name, home)))
    if draw(st.integers(0, 3)) == 0:
        ChurnController(system).kill(draw(st.sampled_from(peers)))
    return system, naive, Plan(expr, plan.site)


@given(plans())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_bound_is_admissible_on_generated_plans(drawn):
    system, naive, plan = drawn
    before = system.snapshot()
    # cold: no memo, no transcripts
    try:
        bound = lower_bound(plan, system)
    except ReproError as refused:
        with pytest.raises(ReproError) as run:
            measure(plan, system)
        assert type(run.value) is type(refused), (
            refused, run.value, plan.expr.describe(),
        )
        return
    try:
        cost = measure(plan, system)
    except ReproError:
        return
    assert admissible(bound, cost), (bound, cost, plan.expr.describe())
    # warm, as inside a search: the naive plan simulated first
    memo, runs = QueryMemo(CacheStats()), Simulations()
    try:
        measure(naive, system, None, memo, runs)
    except ReproError:
        pass  # the killed peer refuses it: the memo keeps what it holds
    warm = lower_bound(plan, system, memo, runs.transcripts)
    assert admissible(warm, measure(plan, system, None, memo, runs)), (
        warm, plan.expr.describe(),
    )
    assert system.snapshot() == before
