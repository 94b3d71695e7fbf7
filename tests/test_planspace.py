"""Plan-space memoization: fingerprints, the transposition table, and the
cache-on/cache-off contract (same plans, fewer cost calls)."""

import pytest

from repro.core import (
    DocExpr,
    EvalAt,
    ExhaustiveStrategy,
    GreedyStrategy,
    Optimizer,
    Plan,
    PlanCache,
    QueryApply,
    QueryRef,
    SearchSpace,
    Send,
    Seq,
    TreeExpr,
    expression_fingerprint,
    plan_fingerprint,
)
from repro.core.cost import CostEstimator, Statistics
from repro.core.expressions import PeerDest
from repro.core.strategies import BeamSearchStrategy
from repro.session import Session, connect
from repro.peers import AXMLSystem
from repro.workloads import (
    QUERY_SHAPES,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import parse
from repro.xquery import Query


def catalog(n=40):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>nm{i}</name><price>{i}</price></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


@pytest.fixture()
def system():
    sys_ = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=50_000.0
    )
    sys_.peer("data").install_document("cat", catalog())
    return sys_


def naive_plan(site="client"):
    q = Query(
        "for $i in $d//item where $i/price > 30 return $i/name",
        params=("d",),
        name="sel",
    )
    return Plan(
        QueryApply(QueryRef(q, site), (DocExpr("cat", "data"),)), site
    )


class TestFingerprints:
    def test_equal_plans_equal_fingerprints(self):
        assert plan_fingerprint(naive_plan()) == plan_fingerprint(naive_plan())

    def test_site_and_structure_distinguish(self):
        base = naive_plan()
        assert plan_fingerprint(base) != plan_fingerprint(
            Plan(base.expr, "data")
        )
        other_doc = Plan(
            QueryApply(base.expr.query, (DocExpr("cat2", "data"),)), "client"
        )
        assert plan_fingerprint(base) != plan_fingerprint(other_doc)

    def test_interned_key_is_shared(self):
        assert plan_fingerprint(naive_plan()) is plan_fingerprint(naive_plan())

    def test_tree_literals_fingerprint_by_content(self):
        tree = parse("<a><b>x</b></a>")
        one = expression_fingerprint(TreeExpr(tree, "p"))
        two = expression_fingerprint(TreeExpr(tree.copy(), "p"))
        other = expression_fingerprint(TreeExpr(parse("<a><b>y</b></a>"), "p"))
        assert one == two
        assert one != other

    def test_rewrite_order_independence(self, system):
        """The same plan reached by applying rewrites in either order
        fingerprints identically (the diamond the table collapses)."""
        plan = naive_plan()
        inner = plan.expr

        # order 1: delegate to data, then wrap the result in a send
        delegated = EvalAt("data", inner)
        route_a = Plan(Seq((Send(PeerDest("helper"), delegated),)), "client")
        # order 2: build the identical tree bottom-up
        route_b = Plan(
            Seq((Send(PeerDest("helper"), EvalAt("data", naive_plan().expr)),)),
            "client",
        )
        assert plan_fingerprint(route_a) == plan_fingerprint(route_b)

    def test_no_collision_across_w1_query_shapes(self):
        """Every naive plan of every W1 query shape keys distinctly."""
        spec = ScenarioSpec(
            peers=4, documents=3, axml_documents=1, items=6, services=2,
            replicas=1, queries=12, query_shapes=QUERY_SHAPES,
        )
        scenario = ScenarioGenerator(seed=11, spec=spec).scenario(0)
        session = Session(scenario.system)
        seen = {}
        shapes_covered = set()
        for query in scenario.queries:
            kwargs = query.kwargs()
            plan = session.plan(
                kwargs["source"], at=kwargs["at"], bind=kwargs.get("bind"),
                name=kwargs.get("name"),
            )
            key = plan_fingerprint(plan)
            assert key not in seen or seen[key] == plan.describe(), (
                f"collision: {query.name} vs {seen[key]}"
            )
            seen[key] = plan.describe()
            shapes_covered.add(query.shape)
        assert shapes_covered == set(QUERY_SHAPES)
        assert len(seen) == len(scenario.queries)


class TestPlanCache:
    def test_cost_roundtrip_and_unevaluable(self):
        cache = PlanCache()
        key = plan_fingerprint(naive_plan())
        hit, _ = cache.lookup_cost(key)
        assert not hit
        cache.store_cost(key, None)  # known-unevaluable is a cachable verdict
        hit, cost = cache.lookup_cost(key)
        assert hit and cost is None

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.store_cost("k", None)
        cache.stats.cost_hits = 3
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.cost_hits == 3

    def test_search_space_memoizes_cost_and_expansion(self, system):
        cache = PlanCache()
        space = SearchSpace(system, cache=cache)
        plan = naive_plan()
        first = space.score(plan)
        second = space.score(plan)
        assert first == second
        assert space.metrics.cost_misses == 1
        assert space.metrics.cost_hits == 1
        one = space.expand(plan)
        two = space.expand(plan)
        assert [r.plan.describe() for r in one] == [
            r.plan.describe() for r in two
        ]
        assert space.metrics.expand_misses == 1
        assert space.metrics.expand_hits == 1

    def test_cache_shared_across_spaces(self, system):
        """A second strategy over the same system re-uses the first's work."""
        cache = PlanCache()
        optimizer = Optimizer(system, cache=cache)
        plan = naive_plan()
        optimizer.optimize_with(ExhaustiveStrategy(depth=2), plan)
        result = optimizer.optimize_with(BeamSearchStrategy(depth=2), plan)
        # beam's whole (shallower) search is covered by exhaustive's table
        assert result.cache.cost_misses == 0
        assert result.cache.cost_hits > 0


class TestCacheDisabledParity:
    """plan_cache=None must change the price of search, not its outcome."""

    @pytest.mark.parametrize("strategy", ["beam", "greedy", "exhaustive"])
    def test_identical_best_plan_and_cost(self, strategy):
        spec = ScenarioSpec(
            peers=4, documents=2, axml_documents=1, items=8, services=1,
            replicas=1, queries=3,
        )
        scenario = ScenarioGenerator(seed=5, spec=spec).scenario(0)
        options = {"depth": 3, "max_plans": 50_000} if strategy == "exhaustive" else None
        for query in scenario.queries:
            kwargs = query.kwargs()
            reports = {}
            for plan_cache in ("auto", None):
                session = Session(
                    scenario.system,
                    strategy=strategy,
                    strategy_options=options,
                    plan_cache=plan_cache,
                )
                reports[plan_cache] = session.explain(
                    kwargs["source"], at=kwargs["at"], bind=kwargs.get("bind")
                )
            memo, unmemo = reports["auto"], reports[None]
            assert memo.plan.describe() == unmemo.plan.describe()
            assert memo.best_cost == unmemo.best_cost

    def test_unmemoized_space_repays_across_searches(self, system):
        plan = naive_plan()
        strategy = ExhaustiveStrategy(depth=3, max_plans=50_000)
        memo_opt = Optimizer(system, cache=PlanCache())
        unmemo_opt = Optimizer(system)
        first_memo = memo_opt.optimize_with(strategy, plan)
        first_unmemo = unmemo_opt.optimize_with(strategy, plan)
        assert first_memo.best_cost == first_unmemo.best_cost
        assert first_memo.best.describe() == first_unmemo.best.describe()
        # a single fresh search pays the same either way (the visited set
        # keeps both on distinct plans)...
        assert first_memo.cache.cost_misses == first_unmemo.cache.cost_misses
        # ...but only the memoized space carries the work to the next
        # search: re-running costs nothing, while the unmemoized space
        # re-pays the whole bill
        second_memo = memo_opt.optimize_with(strategy, plan)
        second_unmemo = unmemo_opt.optimize_with(strategy, plan)
        assert second_memo.cache.cost_misses == 0
        assert second_memo.cache.cost_hits > 0
        assert second_unmemo.cache.cost_misses == first_unmemo.cache.cost_misses
        assert second_memo.best_cost == second_unmemo.best_cost


class TestSessionIntegration:
    def test_default_session_reports_cache_stats(self, system):
        report = connect(system, strategy="exhaustive").explain(naive_plan())
        assert report.plan_cache is not None
        assert report.plan_cache.cost_misses > 0
        assert report.plan_cache.plans_deduped >= 0

    def test_session_cache_persists_across_isolated_runs(self, system):
        session = Session(system, strategy="exhaustive")
        first = session.query(
            "for $i in $d//item where $i/price > 30 return $i/name",
            at="client",
            bind={"d": "cat@data"},
        )
        second = session.query(
            "for $i in $d//item where $i/price > 30 return $i/name",
            at="client",
            bind={"d": "cat@data"},
        )
        assert second.best_cost == first.best_cost
        # the second run is answered from the table: the whole search is
        # prepared, so not even a cost lookup is made
        assert second.plan_cache.cost_misses == 0
        assert second.plan_cache.prepared_hits == 1
        assert second.plan.describe() == first.plan.describe()

    def test_non_isolated_session_clears_cache_between_runs(self, system):
        session = Session(system, strategy="beam", isolate=False)
        session.query(
            "for $i in $d//item where $i/price > 30 return $i/name",
            at="client",
            bind={"d": "cat@data"},
        )
        assert session.plan_cache.distinct_plans > 0
        second = session.query(
            "for $i in $d//item where $i/price > 30 return $i/name",
            at="client",
            bind={"d": "cat@data"},
        )
        # Σ was mutated by the first execution, so nothing stale survives
        assert second.plan_cache.cost_misses > 0

    @pytest.mark.parametrize("full_first", [True, False])
    def test_shared_cache_keeps_rule_sets_apart(self, system, full_first):
        """The expansions table is keyed by rule set too: two sessions
        with different ``rules=`` sharing one cache used to replay each
        other's expansions."""
        from repro.core import DEFAULT_RULES
        from repro.core.rules import PushSelection

        cache = PlanCache()
        reduced = [r for r in DEFAULT_RULES if not isinstance(r, PushSelection)]
        configs = [DEFAULT_RULES, reduced] if full_first else [reduced, DEFAULT_RULES]
        proposed = {}
        for rules in configs:
            # trace=True: the search runs (no prepared hit) and is recorded
            session = Session(
                system, strategy="exhaustive", rules=rules,
                plan_cache=cache, trace=True,
            )
            report = session.explain(naive_plan())
            proposed[len(rules)] = {rule for _, _, rule in report.trace}
            alone = Session(
                system, strategy="exhaustive", rules=rules,
                plan_cache=None, trace=True,
            ).explain(naive_plan())
            assert proposed[len(rules)] == {rule for _, _, rule in alone.trace}
            assert report.best_cost == alone.best_cost
        assert PushSelection.name in proposed[len(DEFAULT_RULES)]
        assert PushSelection.name not in proposed[len(reduced)]

    def test_invalid_plan_cache_rejected(self, system):
        from repro.errors import SessionError

        with pytest.raises(SessionError, match="plan_cache"):
            Session(system, plan_cache="yes please")


class TestIncrementalEstimator:
    def test_memoized_estimates_match_fresh(self, system):
        stats = Statistics(selectivity={"sel": 0.1})
        fresh = CostEstimator(system, stats)
        memo = CostEstimator(system, stats, cache=PlanCache())
        plan = naive_plan()
        space = SearchSpace(system)
        plans = [plan] + [r.plan for r in space.expand(plan)]
        for candidate in plans:
            assert memo.estimate(candidate) == fresh.estimate(candidate)
        # and again, now fully from the subtree memo
        for candidate in plans:
            assert memo.estimate(candidate) == fresh.estimate(candidate)
        assert memo.cache.stats.estimator_hits > 0

    def test_rewrite_recost_only_walks_changed_spine(self, system):
        cache = PlanCache()
        estimator = CostEstimator(system, cache=cache)
        untouched = naive_plan().expr
        rewritten_from = Send(PeerDest("helper"), DocExpr("cat", "data"))
        base = Plan(Seq((untouched, rewritten_from)), "client")
        estimator.estimate(base)
        misses_before = cache.stats.estimator_misses
        # rewrite only the second step (drop the send, read the doc):
        # the untouched first step replays wholesale from the table
        rewritten = Plan(Seq((untouched, DocExpr("cat", "data"))), "client")
        estimator.estimate(rewritten)
        new_misses = cache.stats.estimator_misses - misses_before
        # one miss: the new Seq spine.  The untouched first step replays
        # as a single memo hit, and even the doc read was already
        # memoized at this site while costing the send's payload
        assert new_misses == 1
        assert cache.stats.estimator_hits > 0

    def test_doc_sizes_and_apply_samples_cached(self, system):
        cache = PlanCache()
        estimator = CostEstimator(system, cache=cache)
        estimator.estimate(naive_plan())
        assert cache.doc_sizes.get(("cat", "data")) == system.peer(
            "data"
        ).document("cat").serialized_size()
        # the apply was sampled once (exact bytes + work), not compiled
        # into a per-operator cardinality walk
        assert len(cache.apply_samples) >= 1

    def test_estimator_driven_search_with_shared_cache(self, system):
        cache = PlanCache()
        estimator = CostEstimator(system, cache=cache)
        optimizer = Optimizer(system, cost_model=estimator, cache=cache)
        result = optimizer.optimize_with(
            ExhaustiveStrategy(depth=2, max_plans=5_000), naive_plan()
        )
        assert result.best_cost.scalar() <= result.original_cost.scalar()
        assert cache.stats.estimator_hits > 0


class TestHarnessSharedCache:
    def test_shared_cache_sweep_agrees_and_saves(self):
        spec = ScenarioSpec(
            peers=4, documents=2, axml_documents=1, items=8, services=1,
            replicas=1, queries=3,
        )
        scenarios = list(
            ScenarioGenerator(seed=13, spec=spec).scenarios(2)
        )
        shared = DifferentialHarness(repro_dir=None)
        isolated = DifferentialHarness(repro_dir=None, share_plan_cache=False)
        shared_report = shared.check(scenarios)
        isolated_report = isolated.check(
            ScenarioGenerator(seed=13, spec=spec).scenarios(2)
        )
        assert shared_report.ok and isolated_report.ok
        assert shared_report.cost_calls_saved > 0
        assert isolated_report.cost_calls_saved == 0
        # same verdicts, same costs, strategy by strategy
        for left, right in zip(shared_report.reports, isolated_report.reports):
            for lq, rq in zip(left.results, right.results):
                for name in lq.outcomes:
                    assert lq.outcomes[name].answers == rq.outcomes[name].answers
                    assert lq.outcomes[name].best_cost == rq.outcomes[name].best_cost
