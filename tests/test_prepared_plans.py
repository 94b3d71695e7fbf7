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
from repro.core import DEFAULT_RULES, BeamSearchStrategy, PlanCache, planspace
from repro.core.rules import PushSelection
from repro.core.serialize import to_xml
from repro.engine import ClosedLoopFeed, JobRequest
from repro.obs import Tracer
from repro.peers import AXMLSystem
from repro.peers.registry import FirstPolicy
from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.xmlcore import parse, serialize

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


class TestExactness:
    def test_served_stream_equals_the_uncached_stream(self):
        def serve(**session_kwargs):
            scenario = ScenarioGenerator(seed=7, spec=SPEC).scenario(0)
            requests = [
                JobRequest(
                    source=q.source, at=q.at, bind=q.bindings,
                    name=f"{q.name}#{k}",
                )
                for k, q in enumerate(scenario.queries * 4)
            ]
            session = connect(scenario.system, **session_kwargs)
            return session.serve(feed=ClosedLoopFeed(requests, 4), seed=7)

        warm, uncached = serve(), serve(plan_cache=None)
        assert len(warm.jobs) == 24
        for left, right in zip(warm.jobs, uncached.jobs):
            assert left.name == right.name and left.error is None
            assert outcome(left.report) == outcome(right.report)
            assert left.answers == right.answers
        assert warm.events == uncached.events
        assert warm.network == uncached.network
        # 6 queries x 4 under names #0..#23: one- and two-digit suffixes
        # are two widths, so each query is searched twice and served twice
        hits = sum(j.report.plan_cache.prepared_hits for j in warm.jobs)
        assert hits == 12
        assert all(j.report.plan_cache.prepared_hits == 0 for j in uncached.jobs)


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
        ],
        ids=[
            "strategy", "strategy-options", "cost-model", "final-check",
            "rules", "pick-policy",
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
        session.update("cat", 1, "p", "0")
        untouched = session.plan_job(job("q", doc="inv@d1"))
        assert untouched.plan_cache.prepared_hits == 1
        session.update("inv", 1, "p", "0")
        written = session.plan_job(job("q", doc="inv@d1"))
        assert written.plan_cache.prepared_hits == 0
        assert written.plan_cache.plans_scored > 0

    def test_clear_empties_the_table(self):
        session = connect(two_docs())
        session.plan_job(job("q"))
        session.plan_cache.clear()
        assert session.plan_job(job("q")).plan_cache.prepared_hits == 0

    def test_placement_tick_empties_the_table(self):
        class Actor:
            interval = 0.5

            def on_tick(self, target, now):
                return ["moved something"]

        def second_job(actor):
            session = connect(two_docs())
            report = session.serve(
                [job("q#1"), job("q#2", arrival=1.0)], actor=actor
            )
            return report.jobs[1].report.plan_cache

        assert second_job(None).prepared_hits == 1
        assert second_job(Actor()).prepared_hits == 0

    def test_non_isolated_runs_never_hit(self):
        session = connect(two_docs(), isolate=False)
        kwargs = dict(at="laptop", bind={"d": "cat@d0"})
        session.query(QUERY, **kwargs)
        assert session.query(QUERY, **kwargs).plan_cache.prepared_hits == 0

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
        assert len(second.trace) == second.explored > 1
        assert second.plan_cache.prepared_hits == 0
        assert second.plan_cache.plans_scored >= second.explored

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
