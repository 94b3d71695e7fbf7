"""One search fires a stored document's calls once: later candidates replay.

The oracle prices every candidate on its own clone of Σ.  Within one
search (``Simulations.transcripts``) the first activation of a stored
AXML document is recorded — per fired call its messages, parameters and
the query-memo entry that answered it — and every later candidate that
reads the same stored tree replays it through the evaluator's seam.
These tests pin that a replayed twin is the simulated twin (values,
completion times, links, traffic, CPU, stored documents, invocation
counts), that each excluded shape is simulated every time, that a lost
call takes the same path as when fired, and that sessions with and
without a plan cache still serve alike.
"""

from dataclasses import replace

import pytest

import repro
from repro.axml import make_service_call
from repro.axml.document import ANY_PROVIDER, ActivationMode
from repro.core import ExpressionEvaluator, Plan, measure, to_xml
from repro.core.cost import Simulations
from repro.core.expressions import (
    DocDest,
    DocExpr,
    EvalAt,
    Gather,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    TreeExpr,
)
from repro.core.planspace import CacheStats, PlanCache
from repro.engine import ClosedLoopFeed, JobRequest
from repro.errors import PeerDownError
from repro.peers import AXMLSystem
from repro.peers.service import NativeService, QueryMemo
from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec
from repro.xmlcore import element, iter_elements, parse, serialize
from repro.xquery import Query

PRICEY = (
    "for $i in doc('cat')//item where $i/price > number($m) return $i/name"
)


def catalog(n=30):
    items = "".join(
        f"<item><name>nm{i}</name><price>{i}</price></item>" for i in range(n)
    )
    return parse(f"<catalog>{items}</catalog>")


def world(*calls):
    """``client``, ``home`` and ``prov`` on a slow mesh; ``d@home`` holds
    ``calls`` (by default two calls of ``pricey@prov``)."""
    system = AXMLSystem.with_peers(["client", "home", "prov"], bandwidth=50_000.0)
    prov = system.peer("prov")
    prov.install_document("cat", catalog())
    prov.install_document("big", catalog(200))
    prov.install_query_service("pricey", PRICEY, params=("m",))
    if not calls:
        calls = (
            make_service_call("prov", "pricey", [element("min", "5")]),
            make_service_call("prov", "pricey", [element("min", "20")]),
        )
    system.peer("home").install_document("d", element("d", *calls))
    return system


def read(site="client"):
    """The document's value at ``site``."""
    return Plan(DocExpr("d", "home"), site)


def counted(site="client"):
    count = Query("count($x//name)", params=("x",))
    return Plan(QueryApply(QueryRef(count, site), (DocExpr("d", "home"),)), site)


def behind_a_shipment():
    """The calls' RESULT messages queue behind a large tree on prov->home."""
    return Plan(Gather((DocExpr("big", "prov"), DocExpr("d", "home"))), "home")


def twice():
    """Two activations in one plan: the second reads the installed value."""
    return Plan(Seq((EvalAt("home", DocExpr("d", "home")), DocExpr("d", "home"))), "client")


PLANS = {
    "read": read,
    "remote-site": lambda: read("prov"),
    "applied": counted,
    "busy-links": behind_a_shipment,
    "twice": twice,
}


def observe(system, plan, memo=None, transcripts=None, evaluator=ExpressionEvaluator):
    """Everything one run of ``plan`` on a clone of ``system`` leaves
    observable, as :func:`measure` runs it (``memo`` and ``transcripts``
    handed over the same way)."""
    twin = system.clone()
    runner = evaluator(twin)
    runner.memo = memo
    runner.transcripts = transcripts
    outcome = runner.eval(plan.expr, plan.site)
    network = twin.network
    return (
        [serialize(item) for item in outcome.items],
        outcome.completed_at,
        outcome.installed,
        network.stats.snapshot(),
        sorted((link.src, link.dst, link.busy_until) for link in network.links()),
        twin.stats_snapshot(),
        {
            pid: sorted(
                (name, serialize(tree), [n.node_id for n in iter_elements(tree)])
                for name, tree in peer.documents.items()
            )
            for pid, peer in twin.peers.items()
        },
        {pid: peer.allocator.next_serial for pid, peer in twin.peers.items()},
        dict(twin.doc_epochs),
        {
            (pid, name): service.invocations
            for pid, peer in twin.peers.items()
            for name, service in peer.services.items()
            if service.provider is peer
        },
    )


@pytest.fixture()
def memo():
    return QueryMemo(CacheStats())


class TestReplayIsTheSimulation:
    @pytest.mark.parametrize("shape", sorted(PLANS))
    def test_a_later_candidate_replays_what_firing_gives(self, memo, shape):
        system = world()
        table = {}
        reference = observe(system, PLANS[shape]())
        assert observe(system, read(), memo, table) == observe(system, read())
        assert memo.stats.activation_records == 1
        for _ in range(2):
            assert observe(system, PLANS[shape](), memo, table) == reference
        assert memo.stats.activation_replays == 2
        assert memo.stats.activation_records == 1

    def test_a_replayed_candidate_costs_what_measure_says(self, memo):
        system = world()
        runs = Simulations()
        costs = [
            measure(plan_for(), system, memo=memo, simulations=runs)
            for plan_for in (read, behind_a_shipment, counted)
        ]
        assert costs == [
            measure(plan_for(), system)
            for plan_for in (read, behind_a_shipment, counted)
        ]
        assert memo.stats.activation_replays == 2
        assert len(runs.transcripts) == 1

    def test_a_replay_fires_nothing(self, memo, monkeypatch):
        system = world()
        table = {}
        observe(system, read(), memo, table)
        fired = []
        real = ExpressionEvaluator._fire_calls
        monkeypatch.setattr(
            ExpressionEvaluator, "_fire_calls",
            lambda self, *args: fired.append(args) or real(self, *args),
        )
        observe(system, counted(), memo, table)
        assert fired == [] and memo.stats.activation_replays == 1


def shape_after():
    return (
        make_service_call("prov", "pricey", [element("min", "5")], name="first"),
        make_service_call("prov", "pricey", [element("min", "9")], after="first"),
    )


def shape_manual():
    return (
        make_service_call("prov", "pricey", [element("min", "5")]),
        make_service_call(
            "prov", "pricey", [element("min", "9")], mode=ActivationMode.MANUAL
        ),
    )


def shape_forwards(system):
    inbox = system.peer("client").install_document("inbox", element("inbox"))
    return (
        make_service_call(
            "prov", "pricey", [element("min", "25")], forwards=[inbox.node_id]
        ),
    )


def shape_forwards_nothing(system):
    """A forwarded call that returns nothing delivers nothing either."""
    inbox = system.peer("client").install_document("inbox", element("inbox"))
    return (
        make_service_call(
            "prov", "pricey", [element("min", "1000")], forwards=[inbox.node_id]
        ),
        make_service_call("prov", "pricey", [element("min", "5")]),
    )


def shape_native(system):
    system.peer("prov").install_service(
        NativeService("stamp", lambda params, peer: [element("stamp", "1")])
    )
    return (make_service_call("prov", "stamp"),)


def shape_any(system):
    system.registry.register_service("gprice", "pricey", "prov")
    return (make_service_call(ANY_PROVIDER, "gprice", [element("min", "5")]),)


def shape_nested_param():
    inner = make_service_call("prov", "pricey", [element("min", "28")])
    return (make_service_call("prov", "pricey", [element("wrap", inner)]),)


FALLBACKS = {
    "after": lambda system: shape_after(),
    "manual": lambda system: shape_manual(),
    "forwards": shape_forwards,
    "forwards-nothing": shape_forwards_nothing,
    "native": shape_native,
    "any": shape_any,
    "nested-param": lambda system: shape_nested_param(),
}


class TestFallbacks:
    @pytest.mark.parametrize("shape", sorted(FALLBACKS))
    def test_an_excluded_shape_is_simulated_every_time(self, memo, shape):
        system = world()
        home = system.peer("home")
        home.install_document(
            "d", element("d", *FALLBACKS[shape](system)), replace=True
        )
        table = {}
        for plan_for in (read, counted, behind_a_shipment):
            assert observe(system, plan_for(), memo, table) == observe(
                system, plan_for()
            )
        assert table == {}
        assert memo.stats.activation_records == memo.stats.activation_replays == 0

    def test_a_document_rewritten_under_the_service_misses(self, memo):
        # the service reads doc('extra'), which each candidate installs first
        system = world(make_service_call("prov", "extras", [element("min", "3")]))
        system.peer("prov").install_query_service(
            "extras",
            "for $i in doc('extra')//item where $i/price > number($m) return $i/name",
            params=("m",),
        )

        def installing(n):
            send = Send(DocDest("extra", "prov"), TreeExpr(catalog(n), "prov"))
            return Plan(Seq((send, DocExpr("d", "home"))), "prov")

        table = {}
        assert observe(system, installing(8), memo, table) == observe(
            system, installing(8)
        )
        assert memo.stats.activation_records == 1
        # a different tree under the same name: the doc() re-check misses
        assert observe(system, installing(12), memo, table) == observe(
            system, installing(12)
        )
        assert memo.stats.activation_replays == 0
        # the recorded content again: the recorded entry answers
        assert observe(system, installing(8), memo, table) == observe(
            system, installing(8)
        )
        assert memo.stats.activation_replays == 1

    def test_work_is_priced_on_the_twin_it_replays_into(self, memo):
        # the service names doc('extra') but never reads it: the memo's
        # re-check cannot see it arrive, and its size is part of the work
        system = world()
        system.peer("prov").install_query_service(
            "pricey",
            "if (number($m) > 1000) then doc('extra')//name else "
            "doc('cat')//item[price > number($m)]/name",
            params=("m",),
            replace=True,
        )
        installing = Plan(
            Seq((
                Send(DocDest("extra", "prov"), TreeExpr(catalog(50), "prov")),
                DocExpr("d", "home"),
            )),
            "prov",
        )
        table = {}
        observe(system, read("prov"), memo, table)
        assert observe(system, installing, memo, table) == observe(system, installing)
        assert memo.stats.activation_replays == 1

    def test_a_redefined_service_misses(self, memo):
        system = world()
        table = {}
        observe(system, read(), memo, table)
        system.peer("prov").install_query_service(
            "pricey", PRICEY.replace(">", ">="), params=("m",), replace=True
        )
        assert observe(system, read(), memo, table) == observe(system, read())
        assert memo.stats.activation_replays == 0

    def test_without_a_memo_nothing_is_recorded(self):
        system = world()
        table = {}
        observe(system, read(), None, table)
        assert table == {}


class Tolerant(ExpressionEvaluator):
    """Every call to ``prov`` after the first is lost, and tolerated."""

    def __init__(self, system, pick_policy=None):
        super().__init__(system, pick_policy)
        self.calls = 0
        self.lost = []

    def _call_provider(self, message, ready_at):
        self.calls += 1
        if self.calls > 1:
            raise PeerDownError(f"{message.dst} left")
        return super()._call_provider(message, ready_at)

    def _lost(self, kind, name, peers, exc):
        self.lost.append((kind, name, peers, type(exc).__name__))


def test_a_call_lost_in_a_replay_takes_the_fired_calls_path(memo):
    system = world()
    table = {}
    observe(system, read(), memo, table)
    simulated = observe(system, read(), evaluator=Tolerant)
    assert observe(system, read(), memo, table, evaluator=Tolerant) == simulated
    assert memo.stats.activation_replays == 1
    # the first call's 24 names stayed; the lost second call's 9 dropped out
    assert observe(system, read())[0][0].count("<name>") == 33
    assert simulated[0][0].count("<name>") == 24


def test_a_recording_that_loses_a_call_is_kept_by_nobody(memo):
    system = world()
    table = {}
    observe(system, read(), memo, table, evaluator=Tolerant)
    assert table == {}


def test_the_counters_are_described():
    stats = CacheStats(activation_records=2, activation_replays=18)
    assert "activations 2 recorded / 18 replayed" in stats.describe()
    assert "activations 0 recorded / 0 replayed" in PlanCache().describe()


# ---------------------------------------------------------------------------
# sessions: the default cache against none, on the benchmark's scenarios
# ---------------------------------------------------------------------------
#
# ``plan_cache=None`` drops only the prepared table: the optimizer keeps a
# private cache, so its searches replay too.  The uncached reference is
# therefore also run with every replay refused, so each of its candidates
# fires its calls.


def never_replay(monkeypatch):
    monkeypatch.setattr(
        ExpressionEvaluator, "_replay", lambda self, transcript, ready_at: None
    )

def report_image(report):
    return (
        serialize(to_xml(report.plan.expr)),
        report.best_cost,
        report.original_cost,
        report.explored,
        [serialize(item) for item in report.items],
        report.completed_at,
        report.network,
        report.peers,
    )


def rw_frag(content_seed, **session_kwargs):
    """bench/workloads.py's ``rw_frag`` stream: each write, then every read."""
    spec = replace(WRITE_MIX_SPEC, items=60, writes=3)
    scenario = ScenarioGenerator(content_seed, spec).scenario(1)
    session = repro.connect(scenario.system.clone(), **session_kwargs)
    images = []
    for write in scenario.writes:
        session.write(write.op())
        for query in scenario.queries:
            images.append(report_image(session.query(**query.kwargs())))
    return images, session


@pytest.mark.parametrize("content_seed", [7, 11])
def test_rw_frag_replays_and_answers_as_an_uncached_session(
    content_seed, monkeypatch, bare_oracle
):
    cached, session = rw_frag(content_seed)
    stats = session.plan_cache.stats
    assert stats.activation_replays > 0
    assert stats.activation_records > 0
    assert rw_frag(content_seed, plan_cache=None)[0] == cached
    with bare_oracle():
        bare, unmemoised = rw_frag(content_seed, plan_cache=None)
    assert bare == cached
    stats = unmemoised.optimizer.cache.stats
    assert stats.plans_scored > 0
    assert stats.query_memo_hits == stats.query_memo_misses == 0
    assert stats.activation_records == stats.executions_reused == 0
    never_replay(monkeypatch)
    uncached, simulated = rw_frag(content_seed, plan_cache=None)
    assert uncached == cached
    assert simulated.optimizer.cache.stats.activation_replays == 0


SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)


def serve(content_seed, **session_kwargs):
    """bench/workloads.py's ``serve_repeat`` stream."""
    scenario = ScenarioGenerator(content_seed, SERVE_SPEC).scenario(0)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 4)
    ]
    session = repro.connect(scenario.system, **session_kwargs)
    report = session.serve(feed=ClosedLoopFeed(requests, 4), seed=content_seed)
    jobs = [
        (job.name, job.status, job.answers, job.report and report_image(job.report))
        for job in report.jobs
    ]
    return (jobs, report.events, report.network, report.metrics), session


@pytest.mark.parametrize("content_seed", [7, 11])
def test_serve_repeat_serves_as_an_uncached_session(
    content_seed, monkeypatch, bare_oracle
):
    cached, session = serve(content_seed)
    assert session.plan_cache.stats.activation_replays > 0
    assert serve(content_seed, plan_cache=None)[0] == cached
    with bare_oracle():
        assert serve(content_seed, plan_cache=None)[0] == cached
    never_replay(monkeypatch)
    assert serve(content_seed, plan_cache=None)[0] == cached
