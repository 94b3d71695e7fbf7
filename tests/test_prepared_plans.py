"""The prepared-plan table in front of the search (``PlanCache``).

A job that repeats an already-planned (query text, site, bindings, name
width) under the same search configuration skips the search and gets the
stored plan relabelled with its own query names.  These tests pin the
table's two obligations — *effective* (a repeat costs nothing) and
*sound* (a hit is exactly what a cold search would have returned, and
nothing the outcome depends on is missing from the key) — plus when it
is bypassed, invalidated and evicted.
"""

import pytest

import repro.xquery
from repro import connect
from repro.axml import make_service_call
from repro.core import (
    DEFAULT_RULES,
    BeamSearchStrategy,
    Optimizer,
    OracleCostModel,
    PlanCache,
    planspace,
)
from repro.core.expressions import ANY, QueryApply, QueryRef, ServiceCallExpr
from repro.core.rules import Plan, PushSelection
from repro.core.serialize import to_xml
from repro.engine import ClosedLoopFeed, JobRequest
from repro.faults import PEER_CRASH, PEER_REJOIN, FaultEvent, FaultPlan
from repro.obs import Tracer
from repro.peers import AXMLSystem
from repro.peers.registry import FirstPolicy
from repro.session import Session
from repro.workloads import (
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.writes import InsertOp, UpdateOp
from repro.xmlcore import element, parse, serialize

SPEC = ScenarioSpec(
    peers=5, topology="mesh", documents=3, axml_documents=1,
    items=12, services=2, replicas=2, queries=6,
)

QUERY = "for $i in $d//i where $i/p > 197 return $i/p"


def catalog(count=200):
    return parse(
        "<c>" + "".join(f"<i><p>{n}</p></i>" for n in range(count)) + "</c>"
    )


def two_docs():
    system = AXMLSystem.with_peers(
        ["laptop", "d0", "d1"], bandwidth=50_000.0
    )
    system.peer("d0").install_document("cat", catalog())
    system.peer("d1").install_document("inv", catalog())
    return system


def job(name, doc="cat@d0", **kwargs):
    return JobRequest(
        source=QUERY, at="laptop", bind={"d": doc}, name=name, **kwargs
    )


def outcome(report):
    return (
        serialize(to_xml(report.plan.expr)),
        report.best_cost,
        report.original_cost,
        report.explored,
        report.strategy,
    )


def cold(system, request, **session_kwargs):
    """What a search with no table at all returns for ``request``."""
    return Session(system, plan_cache=None, **session_kwargs).plan_job(request)


class TestEffectiveness:
    def test_repeat_under_another_name_runs_no_search_and_no_parse(
        self, monkeypatch
    ):
        session = connect(two_docs())
        first = session.plan_job(job("q#1"))
        assert first.plan_cache.prepared_misses == 1
        assert first.plan_cache.plans_scored > 0

        calls = {"score": 0, "apply": 0, "parse": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            session.cost_model, "score",
            counting("score", session.cost_model.score),
        )
        for rule_type in {type(rule) for rule in session.optimizer.rules}:
            monkeypatch.setattr(
                rule_type, "apply", counting("apply", rule_type.apply)
            )
        monkeypatch.setattr(
            repro.xquery, "parse_query",
            counting("parse", repro.xquery.parse_query),
        )

        second = session.plan_job(job("q#2"))
        assert calls == {"score": 0, "apply": 0, "parse": 0}
        assert second.plan_cache.prepared_hits == 1
        assert second.plan_cache.plans_scored == 0
        assert session.plan_cache.stats.prepared_hits == 1
        assert session.plan_cache.stats.prepared_misses == 1
        assert "prepared plan (search skipped)" in second.describe()
        assert "prepared plan" not in first.describe()

    def test_hit_is_relabelled_with_the_jobs_own_names(self):
        system = two_docs()
        session = connect(system)
        session.plan_job(job("q#1"))
        served = session.plan_job(job("q#2"))
        assert served.plan_cache.prepared_hits == 1
        assert served.plan is not served.original  # a rewrite won
        text = serialize(to_xml(served.plan.expr))
        assert 'name="q#2"' in text and "q#1" not in text
        assert outcome(served) == outcome(cold(system, job("q#2")))
        assert served.original.expr.query.query.name == "q#2"

    def test_relabel_renames_derived_queries_and_shares_their_modules(self):
        system = two_docs()
        session = connect(system)
        planned = session.plan(QUERY, "laptop", {"d": "cat@d0"}, name="old")
        plan = session.plan(QUERY, "laptop", {"d": "cat@d0"}, name="new")
        (pushed,) = PushSelection().apply(planned, system)  # rule (11)
        relabelled = planspace.relabel(pushed.plan, planned, plan)
        outer, inner = relabelled.expr.query, relabelled.expr.args[0].expr.query
        assert (outer.query.name, inner.query.name) == ("new-outer", "new-inner")
        assert inner.query.module is pushed.plan.expr.args[0].expr.query.query.module
        (expected,) = PushSelection().apply(plan, system)
        assert serialize(to_xml(relabelled.expr)) == serialize(
            to_xml(expected.plan.expr)
        )
        # an unrewritten plan is answered by the job's own naive plan
        assert planspace.relabel(planned, planned, plan) is plan

    def test_same_name_again_returns_the_stored_plan(self):
        session = connect(two_docs())
        first = session.plan_job(job("q"))
        again = session.plan_job(job("q"))
        assert again.plan_cache.prepared_hits == 1
        assert outcome(again) == outcome(first)


#: bench/workloads.py's serve scenario (the serve_repeat stream)
SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)
PARITY_SPECS = {
    "serve": SERVE_SPEC,
    "default": ScenarioSpec(),
    "fragmented": FRAGMENTED_SPEC,
}


def serve_stream(spec, seed, index=0, churn=None, writes=False,
                 **session_kwargs):
    """Serve scenario ``index``'s queries in a closed loop of 4, optionally
    under a fault plan that crashes ``churn = (peer rank, crash at, rejoin
    at)``; returns the serving reports.  Without ``writes`` that is one
    stream of every query four times over; with it, the scenario's writes
    are applied in order through :meth:`Session.write`, and every query is
    served once after each."""
    scenario = ScenarioGenerator(seed=seed, spec=spec).scenario(index)
    requests = [
        JobRequest(
            source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}",
        )
        for k, q in enumerate(scenario.queries * (1 if writes else 4))
    ]
    if churn is not None:
        rank, crash_at, rejoin_at = churn
        peer = sorted(scenario.system.peers)[rank]
        session_kwargs["fault_plan"] = FaultPlan(events=(
            FaultEvent(PEER_CRASH, crash_at, peer=peer),
            FaultEvent(PEER_REJOIN, rejoin_at, peer=peer),
        ))
    session = connect(scenario.system, **session_kwargs)
    reports = []
    for write in scenario.writes if writes else [None]:
        if write is not None:
            session.write(write.op())
        reports.append(session.serve(feed=ClosedLoopFeed(requests, 4), seed=seed))
    return reports


def assert_same_serving(warm, uncached):
    """Serve by serve: equal events, traffic, per-job status, answers and
    plan outcome (plan, reported costs, plans explored, strategy)."""
    assert len(warm) == len(uncached)
    for served, other in zip(warm, uncached):
        assert [j.name for j in served.jobs] == [j.name for j in other.jobs]
        for left, right in zip(served.jobs, other.jobs):
            assert left.status == right.status, left.name
            assert type(left.error) is type(right.error), left.name
            assert left.answers == right.answers, left.name
            assert (left.report is None) == (right.report is None), left.name
            if left.report is not None:
                assert outcome(left.report) == outcome(right.report), left.name
        assert served.events == other.events
        assert served.network == other.network
        assert served.actions == other.actions


#: no fault, then a crash at 0.03 and a rejoin at 0.08 of each of the
#: first four peers (sorted by id)
CHURN = [None] + [(rank, 0.03, 0.08) for rank in range(4)]


class TestExactness:
    @pytest.mark.parametrize("churn", CHURN)
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("family", sorted(PARITY_SPECS))
    def test_cache_on_and_off_serve_alike_under_churn(
        self, family, seed, churn, bare_oracle
    ):
        spec = PARITY_SPECS[family]
        warm = serve_stream(spec, seed, churn=churn)
        assert_same_serving(
            warm, serve_stream(spec, seed, churn=churn, plan_cache=None)
        )
        with bare_oracle():
            bare = serve_stream(spec, seed, churn=churn, plan_cache=None)
        assert_same_serving(warm, bare)

    @pytest.mark.parametrize("seed,churn", [
        (seed, churn) for seed in (7, 11) for churn in CHURN
    ])
    def test_cache_on_and_off_serve_writes_alike_under_churn(
        self, seed, churn, bare_oracle
    ):
        warm = serve_stream(WRITE_MIX_SPEC, seed, churn=churn, writes=True)
        assert len(warm) == WRITE_MIX_SPEC.writes > 1
        uncached = dict(churn=churn, writes=True, plan_cache=None)
        assert_same_serving(warm, serve_stream(WRITE_MIX_SPEC, seed, **uncached))
        with bare_oracle():
            bare = serve_stream(WRITE_MIX_SPEC, seed, **uncached)
        assert_same_serving(warm, bare)

    @pytest.mark.generated
    @pytest.mark.parametrize("index", [1, 2, 3])
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("family", [*sorted(PARITY_SPECS), "write-mix"])
    def test_cache_parity_sweep(self, family, seed, index, bare_oracle):
        # every peer crashes once, early, mid-stream or late, and rejoins
        spec = PARITY_SPECS.get(family, WRITE_MIX_SPEC)
        writes = family == "write-mix"
        peers = ScenarioGenerator(seed=seed, spec=spec).scenario(index).system.peers
        cases = [None] + [
            (rank, crash_at, crash_at + 0.05)
            for rank in range(len(peers))
            for crash_at in (0.01, 0.03, 0.06)
        ]
        for churn in cases:
            warm = serve_stream(spec, seed, index, churn, writes)
            assert_same_serving(
                warm, serve_stream(spec, seed, index, churn, writes, plan_cache=None)
            )
            with bare_oracle():
                bare = serve_stream(spec, seed, index, churn, writes, plan_cache=None)
            assert_same_serving(warm, bare)

    def test_served_stream_equals_the_uncached_stream(self, bare_oracle):
        warm = serve_stream(SPEC, 7)
        uncached = serve_stream(SPEC, 7, plan_cache=None)
        assert_same_serving(warm, uncached)
        with bare_oracle():
            assert_same_serving(warm, serve_stream(SPEC, 7, plan_cache=None))
        ((warm,), (uncached,)) = (warm, uncached)
        assert len(warm.jobs) == 24
        assert all(job.error is None for job in warm.jobs)
        # 6 queries x 4 under names #0..#23: one- and two-digit suffixes
        # are two widths, so each query is searched twice and served twice
        hits = sum(j.report.plan_cache.prepared_hits for j in warm.jobs)
        assert hits == 12
        assert all(j.report.plan_cache.prepared_hits == 0 for j in uncached.jobs)


def fresh_memo_per_search(monkeypatch):
    """From here on every search starts from an empty query memo: the
    oracle's memory before the memo became a store of the cache."""
    real = Optimizer.optimize_with

    def optimize_with(self, *args, **kwargs):
        self.cache.query_memo.clear()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Optimizer, "optimize_with", optimize_with)


def memo_hits(reports):
    return sum(
        job.report.plan_cache.query_memo_hits
        for served in reports
        for job in served.jobs
        if job.report is not None
    )


class TestQueryMemoStore:
    """The oracle's query memo outlives a search (``PlanCache.query_memo``):
    a run with it kept is the run with a fresh memo per search — plans,
    reported costs, answers, events and traffic — only with more hits."""

    @pytest.mark.parametrize("churn", [None, (0, 0.03, 0.08)])
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("family", [*sorted(PARITY_SPECS), "write-mix"])
    def test_kept_and_per_search_memo_serve_alike(
        self, family, seed, churn, monkeypatch
    ):
        spec = PARITY_SPECS.get(family, WRITE_MIX_SPEC)
        # write-mix interleaves its writes between the searches
        writes = family == "write-mix"
        kept = serve_stream(spec, seed, churn=churn, writes=writes)
        fresh_memo_per_search(monkeypatch)
        fresh = serve_stream(spec, seed, churn=churn, writes=writes)
        assert_same_serving(kept, fresh)
        assert memo_hits(kept) >= memo_hits(fresh)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_a_write_between_two_searches(self, seed, monkeypatch):
        """bench/workloads.py's ``rw_frag`` pattern: each write, then
        every read, on one isolated session."""

        def run():
            scenario = ScenarioGenerator(seed=seed, spec=WRITE_MIX_SPEC).scenario(1)
            session = connect(scenario.system.clone())
            reports = []
            for write in scenario.writes:
                session.write(write.op())
                reports += [session.query(**q.kwargs()) for q in scenario.queries]
            return session.plan_cache.stats, reports

        kept_stats, kept = run()
        fresh_memo_per_search(monkeypatch)
        fresh_stats, fresh = run()
        assert len(kept) == len(fresh) > 0
        for left, right in zip(kept, fresh):
            assert outcome(left) == outcome(right)
            assert left.answers == right.answers
            assert left.network == right.network
            assert left.peers == right.peers
        assert kept_stats.query_memo_hits > fresh_stats.query_memo_hits


class TestNameWidth:
    def test_wider_name_misses_and_costs_what_a_cold_search_costs(self):
        system = two_docs()
        session = connect(system)
        nine = session.plan_job(job("q#9"))
        ten = session.plan_job(job("q#10"))
        assert ten.plan_cache.prepared_misses == 1
        assert ten.plan_cache.prepared_hits == 0
        assert outcome(ten) == outcome(cold(system, job("q#10")))
        # one more byte of name= on every shipped x-query: the name is
        # observable, which is why its width is part of the key
        assert ten.best_cost.bytes > nine.best_cost.bytes

    @pytest.mark.parametrize("model", ["analytic", "hybrid"])
    def test_estimating_models_serve_an_equally_wide_name(self, model):
        # the estimator never reads a query's name: "qb" is "qa" relabelled
        session = connect(two_docs(), cost_model=model)
        session.plan_job(job("qa"))
        assert session.plan_job(job("qb")).plan_cache.prepared_hits == 1


class TestIsolation:
    @pytest.mark.parametrize(
        "left,right",
        [
            ({"strategy": "beam"}, {"strategy": "greedy"}),
            (
                {"strategy": BeamSearchStrategy(depth=3)},
                {"strategy": BeamSearchStrategy(depth=1)},
            ),
            ({"cost_model": "oracle"}, {"cost_model": "analytic"}),
            ({"cost_model": "analytic"}, {"cost_model": "hybrid"}),
            ({}, {"rules": DEFAULT_RULES[:2]}),
            ({}, {"pick_policy": FirstPolicy()}),
            # the key holds the session's pick policy beside the model's
            # name: no per-model salt is needed to keep these apart
            (
                {"cost_model": "analytic"},
                {"cost_model": "analytic", "pick_policy": FirstPolicy()},
            ),
            (
                {"cost_model": "hybrid"},
                {"cost_model": "hybrid", "pick_policy": FirstPolicy()},
            ),
        ],
        ids=[
            "strategy", "strategy-options", "cost-model", "final-check",
            "rules", "pick-policy", "analytic-pick-policy",
            "hybrid-pick-policy",
        ],
    )
    def test_no_hit_across_differing_search_configuration(self, left, right):
        system = two_docs()
        shared = PlanCache()
        first = Session(system, plan_cache=shared, **left).plan_job(job("q"))
        other = Session(system, plan_cache=shared, **right)
        second = other.plan_job(job("q"))
        assert first.plan_cache.prepared_misses == 1
        assert second.plan_cache.prepared_hits == 0
        assert second.plan_cache.prepared_misses == 1
        # ... while the same configuration again does share
        again = Session(system, plan_cache=shared, **right).plan_job(job("q"))
        assert again.plan_cache.prepared_hits == 1

    def test_no_hit_across_systems_or_optimize_flag(self):
        system = two_docs()
        shared = PlanCache()
        Session(system, plan_cache=shared).plan_job(job("q"))
        twin = Session(system.clone(), plan_cache=shared).plan_job(job("q"))
        assert twin.plan_cache.prepared_hits == 0
        naive = Session(system, plan_cache=shared).plan_job(
            job("q", optimize=False)
        )
        assert naive.plan_cache.prepared_hits == 0
        assert naive.strategy == "none" and naive.plan is naive.original


class TestInvalidation:
    def test_write_orphans_only_plans_reading_the_written_document(self):
        session = connect(two_docs())
        session.plan_job(job("q", doc="inv@d1"))
        session.write(UpdateOp("cat", 1, "p", "0"))
        untouched = session.plan_job(job("q", doc="inv@d1"))
        assert untouched.plan_cache.prepared_hits == 1
        session.write(UpdateOp("inv", 1, "p", "0"))
        written = session.plan_job(job("q", doc="inv@d1"))
        assert written.plan_cache.prepared_hits == 0
        assert written.plan_cache.plans_scored > 0

    @pytest.mark.parametrize("generic", [False, True], ids=["data", "any"])
    def test_write_orphans_plans_calling_a_service_that_reads_the_document(
        self, generic
    ):
        # the plan names no document: its service reads one through doc()
        system = AXMLSystem.with_peers(["client", "data"], bandwidth=50_000.0)
        system.peer("data").install_document("cat", parse(
            "<catalog>" + "".join(
                f"<item><name>nm{n}</name><price>{n}</price></item>"
                for n in range(40)
            ) + "</catalog>"
        ))
        system.peer("data").install_query_service(
            "pricey", "for $i in doc('cat')//item where $i/price > 5 return $i/name"
        )
        call = ServiceCallExpr("data", "pricey", ())
        if generic:
            system.registry.register_service("pricey-any", "pricey", "data")
            call = ServiceCallExpr(ANY, "pricey-any", ())
        plan = Plan(call, "client")
        session = Session(system)
        before = session.explain(plan)
        assert session.explain(plan).plan_cache.prepared_hits == 1
        session.write(
            InsertOp("cat", parse("<item><name>new</name><price>99</price></item>"))
        )
        after = session.explain(plan)
        fresh = Session(system, plan_cache=None).explain(plan)
        assert after.plan_cache.prepared_hits == 0
        assert after.best_cost == fresh.best_cost
        assert after.best_cost.bytes == before.best_cost.bytes + 16  # the new item

    def test_write_orphans_plans_applying_a_query_that_reads_the_document(self):
        source = "count(doc('cat')//i)"
        session = connect(two_docs())
        plan = Plan(QueryApply(QueryRef(repro.xquery.Query(source), "d0")), "d0")
        session.explain(plan)
        assert session.explain(plan).plan_cache.prepared_hits == 1
        session.write(UpdateOp("cat", 1, "p", "0"))
        assert session.explain(plan).plan_cache.prepared_hits == 0

    def test_clear_empties_the_table(self):
        session = connect(two_docs())
        session.plan_job(job("q"))
        session.plan_cache.clear()
        assert session.plan_job(job("q")).plan_cache.prepared_hits == 0

    def test_scripted_crash_and_rejoin_keep_the_table(self):
        # a crash or rejoin changes the serving clone, never the live Σ
        # every job is planned against: the prepared plan still holds
        churn = FaultPlan(events=(
            FaultEvent(PEER_CRASH, 0.4, peer="d1"),
            FaultEvent(PEER_REJOIN, 0.6, peer="d1"),
        ))

        def second_job(fault_plan):
            session = connect(two_docs(), fault_plan=fault_plan)
            report = session.serve([job("q#1"), job("q#2", arrival=1.0)])
            return report.jobs[1].report

        calm, churned = second_job(None), second_job(churn)
        assert calm.plan_cache.prepared_hits == 1
        assert churned.plan_cache.prepared_hits == 1
        assert outcome(churned) == outcome(calm)
        assert churned.answers == calm.answers

    def test_a_served_activation_leaves_the_live_epochs(self):
        # serving installs the activated value on its clone of Σ: the live
        # document and its generic class keep their epochs, so every job
        # after the first is a prepared hit
        system = two_docs()
        system.peer("d1").install_query_service("hot", "doc('inv')//i[p > 190]")
        system.peer("d0").install_document(
            "ax", element("d", make_service_call("d1", "hot"))
        )
        system.registry.register_document("g-ax", "ax", "d0")
        session = connect(system)
        report = session.serve([
            job(f"q#{k}", doc="ax@d0", arrival=float(k)) for k in (1, 2, 3)
        ])
        assert all(j.status == "done" for j in report.jobs)
        hits = [j.report.plan_cache.prepared_hits for j in report.jobs]
        assert hits == [0, 1, 1]
        assert len({tuple(j.answers) for j in report.jobs}) == 1
        assert system.doc_epoch("ax") == system.doc_epoch("g-ax") == 0

    def test_a_lone_query_hits_the_plan_a_serve_prepared(self):
        session = connect(two_docs())
        session.serve([job("q")])
        again = session.query(QUERY, at="laptop", bind={"d": "cat@d0"}, name="q")
        assert again.plan_cache.prepared_hits == 1

    def test_least_recently_served_plan_is_evicted(self, monkeypatch):
        monkeypatch.setattr(planspace, "PREPARED_PLANS", 2)
        session = connect(two_docs())
        session.plan_job(job("a"))
        session.plan_job(job("bb"))
        assert session.plan_job(job("a")).plan_cache.prepared_hits == 1
        third = session.plan_job(job("ccc"))  # evicts "bb", not "a"
        assert third.plan_cache.prepared_evictions == 1
        assert session.plan_cache.stats.prepared_evictions == 1
        assert session.plan_job(job("a")).plan_cache.prepared_hits == 1
        assert session.plan_job(job("bb")).plan_cache.prepared_hits == 0


class TestBypass:
    def test_verify_and_trace_sessions_keep_their_by_products(self):
        system = two_docs()
        kwargs = dict(at="laptop", bind={"d": "cat@d0"})
        checked = connect(system, verify=True)
        checked.query(QUERY, **kwargs)
        second = checked.query(QUERY, **kwargs)
        assert second.verification is not None and second.verification.equivalent
        assert second.plan_cache.prepared_hits == 0

        traced = connect(system, trace=True)
        traced.query(QUERY, **kwargs)
        second = traced.query(QUERY, **kwargs)
        assert len(second.trace) + len(second.pruned) == second.explored > 1
        assert second.plan_cache.prepared_hits == 0
        assert (
            second.plan_cache.plans_scored + second.plan_cache.candidates_pruned
            >= second.explored
        )

    def test_no_plan_cache_means_no_table(self):
        session = connect(two_docs(), plan_cache=None)
        session.plan_job(job("q"))
        again = session.plan_job(job("q"))
        assert again.plan_cache.prepared_hits == 0
        assert again.plan_cache.prepared_misses == 0
        assert again.plan_cache.plans_scored > 0


class TestObservability:
    def test_plan_span_says_whether_the_plan_was_prepared(self):
        session = connect(two_docs(), tracer=Tracer())
        report = session.serve([job("q#1"), job("q#2", arrival=1.0)])
        prepared = [
            span.attrs["prepared"]
            for root in report.trace.jobs.values()
            for span in root.walk()
            if span.name == "plan"
        ]
        assert prepared == [False, True]

    def test_plan_span_names_a_model_instance(self):
        class Renamed(OracleCostModel):
            name = "renamed-oracle"

        system = two_docs()
        session = connect(system, tracer=Tracer(), cost_model=Renamed(system))
        report = session.serve([job("q")])
        models = [
            span.attrs["cost_model"]
            for root in report.trace.jobs.values()
            for span in root.walk()
            if span.name == "plan"
        ]
        assert models == ["renamed-oracle"]
