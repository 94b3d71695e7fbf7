"""Plan keys, the planner's three stores (prepared plans, estimator memo,
query memo),
what one search remembers on its own, and the cache-on/cache-off contract
(same plans either way)."""

import contextlib
from collections.abc import Sized

import pytest

from repro.core import (
    AnalyticCostModel,
    BeamSearchStrategy,
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
    expression_size,
    make_strategy,
    plan_fingerprint,
    serialize,
)
from repro.core.cost import Cost, CostEstimator
from repro.core.expressions import PeerDest
from repro.core.rules import Rewrite, RewriteRule
from repro.engine import JobRequest
from repro.errors import FragmentUnavailableError
from repro.session import Session, connect
from repro.peers import AXMLSystem
from repro.workloads import QUERY_SHAPES, ScenarioGenerator, ScenarioSpec
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

    def test_equal_keys_are_not_interned(self):
        # an interned key is immortal (PEP 683): a long-lived session
        # would keep every candidate's key for the life of the process
        one, two = plan_fingerprint(naive_plan()), plan_fingerprint(naive_plan())
        assert one == two
        assert one is not two

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

    def test_kept_facts_go_stale_never_and_are_recomputed_never(self, monkeypatch):
        """A node keeps its digest and size only once its literals are
        frozen (no false hit), and then answers without serializing or
        re-walking anything it already hashed (no false miss)."""
        tree = parse("<a><b>x</b></a>")
        literal = TreeExpr(tree, "client")
        apply = QueryApply(naive_plan().expr.query, (literal,))
        plan = Plan(apply, "client")

        def facts():
            return (
                plan_fingerprint(plan),
                plan_fingerprint(plan, name_widths=True),
                expression_size(apply),
            )

        before = facts()
        tree.append(parse("<c/>"))
        after = facts()
        assert all(old != new for old, new in zip(before, after))

        tree.freeze()
        assert facts() == after  # the first sealed call computes and keeps
        serialized, hashed = [], []
        real_to_xml, real_digest = serialize.to_xml, serialize._digest
        monkeypatch.setattr(
            serialize, "to_xml", lambda e: serialized.append(e) or real_to_xml(e)
        )
        monkeypatch.setattr(
            serialize,
            "_digest",
            lambda e, slot: hashed.append(e) or real_digest(e, slot),
        )
        assert facts() == after
        assert serialized == []
        assert literal not in hashed

        # a rewrite around the sealed node hashes only the node it added
        hashed.clear()
        wrapped = EvalAt("data", apply)
        plan_fingerprint(Plan(wrapped, "client"))
        assert [id(e) for e in hashed] == [id(wrapped), id(apply)]

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


QUERY = "for $i in $d//item where $i/price > 30 return $i/name"


def count_measures(monkeypatch):
    """Count oracle simulations from here on; returns the live list of
    the plans simulated."""
    from repro.core import costmodel

    calls = []
    real = costmodel.measure
    monkeypatch.setattr(
        costmodel, "measure", lambda plan, *a, **k: calls.append(plan) or real(plan, *a, **k)
    )
    return calls


class TestPlanCache:
    def test_fresh_cache_is_truthy(self):
        # a falsy empty cache would be dropped by any `cache or default`
        assert bool(PlanCache())

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.store_prepared("k", object())
        cache.stats.plans_scored = 3
        cache.clear()
        assert cache.lookup_prepared("k") is None
        assert cache.stats.plans_scored == cache.distinct_plans == 3

    def test_clear_empties_every_store(self, system):
        """Three stores, and ``clear()`` knows all three: a container
        added to the cache later fails here until ``clear()`` empties it
        too.  ``hybrid`` fills both memos: an analytic frontier, then
        the oracle's final check."""
        session = Session(system, cost_model="hybrid")
        session.query(QUERY, at="client", bind={"d": "cat@data"})
        cache = session.plan_cache
        stores = {k: v for k, v in vars(cache).items() if isinstance(v, Sized)}
        assert set(stores) == {"_prepared", "estimates", "query_memo"}
        assert set(vars(cache)) - set(stores) == {"stats"}
        assert all(len(store) > 0 for store in stores.values())
        cache.clear()
        assert all(len(store) == 0 for store in stores.values())


class TestOneSearchRemembers:
    """What the deleted cost table did for a single search, the search
    now does for itself."""

    def test_greedy_never_rescores_an_overlapping_neighbourhood(
        self, monkeypatch, no_bound
    ):
        # the bench's serve scenario; with nothing pruned, 39 simulations
        # for 44 explored plans: every revisit of an overlapping
        # neighbourhood is re-used, not re-simulated.  (It was 40 for 45
        # while the search space still held one idle delegation, an
        # EvalAt at its own site.)  Pruned by the bound, fewer plans are
        # simulated and as many explored.
        spec = ScenarioSpec(
            peers=6, topology="mesh", documents=4, axml_documents=1,
            items=20, services=2, replicas=2, queries=6,
        )
        scenario = ScenarioGenerator(seed=7, spec=spec).scenario(0)

        def search():
            calls = count_measures(monkeypatch)
            explored = 0
            for query in scenario.queries:
                session = Session(scenario.system, strategy="greedy", plan_cache=None)
                report = session.explain(
                    query.source, at=query.at, bind=query.bindings, name=query.name
                )
                assert report.plan_cache.plans_scored <= report.explored
                explored += report.explored
            return len(calls), explored

        with no_bound():
            assert search() == (39, 44)
        simulated, explored = search()
        assert simulated < 39 and explored == 44

    @pytest.mark.parametrize("strategy", [BeamSearchStrategy, ExhaustiveStrategy])
    def test_a_rejected_candidate_is_simulated_once(
        self, system, monkeypatch, strategy, no_bound
    ):
        """A candidate proposed again from a second frontier plan is not
        simulated again, even when the first verdict was "unevaluable".
        (With its bound, the missing document is seen and it is never
        simulated: the count is of the unpruned search.)"""
        start = naive_plan()
        frontier = [Plan(EvalAt(peer, start.expr), "client") for peer in ("data", "helper")]
        unevaluable = Plan(DocExpr("missing", "data"), "client")

        class Stub(RewriteRule):
            name = "stub"

            def apply(self, plan, system):
                if plan == start:
                    return [Rewrite(p, self.name) for p in frontier]
                if plan in frontier:
                    return [Rewrite(unevaluable, self.name)]
                return []

        space = SearchSpace(system, rules=[Stub()])
        calls = count_measures(monkeypatch)
        with no_bound():
            result = strategy().search(start, space)
        assert calls.count(unevaluable) == 1
        assert len(calls) == 4  # the start, two frontier plans, the rejected one
        assert result.explored == 3
        assert space.stats.plans_deduped == 1

    def test_failing_original_is_simulated_once(self, monkeypatch):
        from repro.dist import Fragmenter
        from repro.faults import ChurnController

        sys_ = AXMLSystem.with_peers(["client", "p0", "p1"])
        sys_.peer("p0").install_document("cat", catalog(8))
        Fragmenter(sys_).fragment("cat", "p0", ["p0", "p1"], keep_original=False)
        ChurnController(sys_).kill("p1")  # the last copy of one fragment
        calls = count_measures(monkeypatch)
        with pytest.raises(FragmentUnavailableError):
            Session(sys_).explain(QUERY, at="client", bind={"d": "cat@dist"})
        assert len(calls) == 1

    def test_failing_final_check_is_run_once(self, system):
        class Checked:
            name = "checked"
            checks = 0

            def score(self, plan):
                return Cost(0, 0, 1.0)

            def check(self, plan):
                self.checks += 1
                raise FragmentUnavailableError("cat.f1", ("p1",))

        model = Checked()
        with pytest.raises(FragmentUnavailableError):
            Optimizer(system, cost_model=model).optimize_with("greedy", naive_plan())
        assert model.checks == 1

    def test_estimator_hits_land_in_the_report(self, system):
        report = Session(system, cost_model="analytic").explain(naive_plan())
        assert report.plan_cache.estimator_hits > 0
        assert report.plan_cache.estimator_misses > 0


class TestCacheDisabledParity:
    """plan_cache=None must change the price of search, not its outcome."""

    @pytest.mark.parametrize("strategy", ["beam", "greedy", "exhaustive"])
    def test_identical_best_plan_and_cost(self, strategy, bare_oracle):
        spec = ScenarioSpec(
            peers=4, documents=2, axml_documents=1, items=8, services=1,
            replicas=1, queries=3,
        )
        scenario = ScenarioGenerator(seed=5, spec=spec).scenario(0)
        options = {"depth": 3, "max_plans": 50_000} if strategy == "exhaustive" else {}
        for query in scenario.queries:
            kwargs = query.kwargs()
            reports = []
            for plan_cache, oracle in (
                ("auto", contextlib.nullcontext()),
                (None, contextlib.nullcontext()),
                (None, bare_oracle()),
            ):
                session = Session(
                    scenario.system,
                    strategy=make_strategy(strategy, **options),
                    plan_cache=plan_cache,
                )
                with oracle:
                    reports.append(session.explain(
                        kwargs["source"], at=kwargs["at"], bind=kwargs.get("bind")
                    ))
            memo, *unmemo = reports
            for other in unmemo:
                assert memo.plan.describe() == other.plan.describe()
                assert memo.best_cost == other.best_cost

    def test_unmemoized_space_repays_across_searches(self, system):
        plan = naive_plan()
        strategy = ExhaustiveStrategy(depth=3, max_plans=50_000)
        memo_opt = Optimizer(system, cache=PlanCache())
        unmemo_opt = Optimizer(system)
        first_memo = memo_opt.optimize_with(strategy, plan)
        first_unmemo = unmemo_opt.optimize_with(strategy, plan)
        assert first_memo.best_cost == first_unmemo.best_cost
        assert first_memo.best.describe() == first_unmemo.best.describe()
        # a search pays the same either way (the visited set keeps both
        # on distinct plans), and a bare optimizer carries nothing to the
        # next one: skipping a repeated search is the prepared-plan
        # table's job, in front of it (Session)
        assert first_memo.cache.plans_scored == first_unmemo.cache.plans_scored
        second_memo = memo_opt.optimize_with(strategy, plan)
        second_unmemo = unmemo_opt.optimize_with(strategy, plan)
        assert second_memo.cache.plans_scored == first_memo.cache.plans_scored
        assert second_unmemo.cache.plans_scored == first_memo.cache.plans_scored
        assert second_memo.best_cost == second_unmemo.best_cost


class TestSessionIntegration:
    def test_default_session_reports_cache_stats(self, system):
        report = connect(system, strategy="exhaustive").explain(naive_plan())
        assert report.plan_cache is not None
        assert report.plan_cache.plans_scored > 0
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
        # prepared, so nothing is scored
        assert second.plan_cache.plans_scored == 0
        assert second.plan_cache.prepared_hits == 1
        assert second.plan.describe() == first.plan.describe()

    def test_serving_keeps_the_session_cache(self, system):
        session = Session(system, strategy="beam")
        request = JobRequest(
            "for $i in $d//item where $i/price > 30 return $i/name",
            at="client",
            bind={"d": "cat@data"},
            name="q",
        )
        session.serve([request])
        assert session.plan_cache.distinct_plans > 0
        served = session.serve([request]).jobs[0].report
        # a serve runs on a clone of Σ, so its plans stay good
        assert served.plan_cache.prepared_hits == 1
        assert served.plan_cache.plans_scored == 0

    @pytest.mark.parametrize("full_first", [True, False])
    def test_shared_cache_keeps_rule_sets_apart(self, system, full_first):
        """Two sessions with different ``rules=`` sharing one cache
        search their own rewrite spaces (a per-plan expansions table
        once replayed the other's)."""
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
            # scored or pruned by its bound: priced either way
            proposed[len(rules)] = {
                rule for _, _, rule in report.trace + report.pruned
            }
            alone = Session(
                system, strategy="exhaustive", rules=rules,
                plan_cache=None, trace=True,
            ).explain(naive_plan())
            assert proposed[len(rules)] == {
                rule for _, _, rule in alone.trace + alone.pruned
            }
            assert report.best_cost == alone.best_cost
        assert PushSelection.name in proposed[len(DEFAULT_RULES)]
        assert PushSelection.name not in proposed[len(reduced)]

    def test_invalid_plan_cache_rejected(self, system):
        from repro.errors import SessionError

        with pytest.raises(SessionError, match="plan_cache"):
            Session(system, plan_cache="yes please")


class TestIncrementalEstimator:
    def test_memoized_estimates_match_fresh(self, system):
        fresh = CostEstimator(system)
        memo = CostEstimator(system, cache=PlanCache())
        plan = naive_plan()
        space = SearchSpace(system)
        plans = [plan] + [r.plan for r in space.expand(plan)]
        for candidate in plans:
            assert memo.estimate(candidate) == fresh.estimate(candidate)
        # and again, now fully from the subtree memo
        for candidate in plans:
            assert memo.estimate(candidate) == fresh.estimate(candidate)
        assert memo.cache.stats.estimator_hits > 0
        assert fresh.cache is not memo.cache

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
        assert cache.estimates[("doc_bytes", "cat", "data")] == system.peer(
            "data"
        ).document("cat").serialized_size()
        # the apply was sampled once (exact bytes + work), not compiled
        # into a per-operator cardinality walk
        kinds = [key[0] for key in cache.estimates]
        assert kinds.count("apply") == 1 and "compiled" not in kinds

    def test_estimator_driven_search_with_shared_cache(self, system):
        cache = PlanCache()
        model = AnalyticCostModel(system, cache=cache)
        optimizer = Optimizer(system, cost_model=model, cache=cache)
        result = optimizer.optimize_with(
            ExhaustiveStrategy(depth=2, max_plans=5_000), naive_plan()
        )
        assert result.best_cost.scalar() <= result.original_cost.scalar()
        assert cache.stats.estimator_hits > 0
