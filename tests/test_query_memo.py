"""The oracle's query memo (:class:`repro.peers.service.QueryMemo`), a
store of the plan cache.

Soundness — memoised scoring prices every candidate exactly like the
unmemoised ``measure`` and so picks the same plan; the key is content,
``doc()`` reads are re-checked on the current peer, failures are never
stored, results are handed out frozen — and a count-based regression
gate on the ``serve_repeat`` stream (query evaluations, not seconds).
"""

import contextlib
from dataclasses import replace

import pytest

import repro
from repro.axml import make_service_call
from repro.core import Optimizer, PlanCache, SearchSpace, plan_fingerprint
from repro.core import (
    DocExpr,
    ExpressionEvaluator,
    Plan,
    QueryApply,
    QueryRef,
    ServiceCallExpr,
    TreeExpr,
)
from repro.core.cost import CostEstimator
from repro.core.expressions import FragmentedDoc
from repro.core.planspace import CacheStats
from repro.core.strategies import make_strategy
from repro.dist import Fragmenter
from repro.engine import ClosedLoopFeed, JobRequest
from repro.errors import FrozenTreeError, ServiceCallError, XQueryError
from repro.peers import AXMLSystem
from repro.peers.service import NativeService, QueryMemo
from repro.session import Session
from repro.workloads import (
    FRAGMENTED_SPEC,
    WRITE_MIX_SPEC,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import Element, element, iter_elements, parse
from repro.writes import InsertOp
from repro.xquery import Query

STRATEGIES = ("beam", "greedy", "exhaustive")
SPECS = {
    "default": ScenarioSpec(),
    "fragmented": FRAGMENTED_SPEC,
    "write-mix": WRITE_MIX_SPEC,
}


def catalog(n=8, tag="item"):
    items = "".join(
        f"<{tag}><name>nm{i}</name><price>{i}</price></{tag}>" for i in range(n)
    )
    return parse(f"<catalog>{items}</catalog>")


def count_runs(monkeypatch):
    """Every ``Query.run`` from here on appends to the returned list."""
    calls = []
    real = Query.run

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Query, "run", counting)
    return calls


# ---------------------------------------------------------------------------
# (i) memo on / memo off: the same Cost for every candidate, the same plan
# ---------------------------------------------------------------------------

def scored(result):
    return [(plan_fingerprint(plan), cost, rule) for plan, cost, rule in result.trace]


def assert_memo_changes_no_cost(scenario):
    """Every search of ``scenario``, memoised and not, scores alike.

    The memoised searches share one optimizer, so each starts from what
    the earlier ones left in its cache's query memo.  The reference is a
    bare ``SearchSpace(system)``: no cache, so every score is
    ``measure(plan, system)`` with nothing remembered.  Returns the
    (query, tree) memo hits of the memoised searches.
    """
    session = Session(scenario.system.clone())
    for record in scenario.writes:
        session.write(record.op())
    system = session.system
    optimizer = Optimizer(system)
    hits = trees = 0
    for query in scenario.queries:
        kwargs = query.kwargs()
        plan = session.plan(
            kwargs["source"], at=kwargs["at"], bind=kwargs["bind"], name=kwargs["name"]
        )
        for strategy in STRATEGIES:
            memoised = optimizer.optimize_with(strategy, plan)
            reference = make_strategy(strategy).search(plan, SearchSpace(system))
            assert scored(memoised) == scored(reference), (query.name, strategy)
            assert plan_fingerprint(memoised.best) == plan_fingerprint(reference.best)
            assert memoised.best_cost == reference.best_cost
            hits += memoised.cache.query_memo_hits
            trees += memoised.cache.tree_memo_hits
    return hits, trees


@pytest.mark.parametrize("family", sorted(SPECS))
def test_memoised_scoring_equals_unmemoised_measure(family, no_bound):
    hits = trees = 0
    for scenario in ScenarioGenerator(seed=7, spec=SPECS[family]).scenarios(5):
        with no_bound():  # every candidate scored, on both sides
            query_hits, tree_hits = assert_memo_changes_no_cost(scenario)
        hits, trees = hits + query_hits, trees + tree_hits
    assert hits > 0, "the sweep never exercised a memo hit"
    assert trees > 0, "the sweep never handed out a built tree"


@pytest.mark.generated
@pytest.mark.parametrize("family", sorted(SPECS))
def test_memoised_scoring_equals_unmemoised_measure_generated(family, no_bound):
    for scenario in ScenarioGenerator(seed=11, spec=SPECS[family]).scenarios(50):
        with no_bound():
            assert_memo_changes_no_cost(scenario)


# ---------------------------------------------------------------------------
# (ii)-(iv) the key, the doc() re-check, frozen hand-outs, failures
# ---------------------------------------------------------------------------

@pytest.fixture()
def system():
    system = AXMLSystem.with_peers(["a", "b"])
    system.peer("a").install_document("cat", catalog())
    system.peer("b").install_document("cat", catalog())
    return system


@pytest.fixture()
def memo():
    return QueryMemo(CacheStats())


SELECT = Query("for $i in $d//item where $i/price > 5 return $i/name", params=("d",))
READS_DOC = "for $i in doc('cat')//item where $i/price > 5 return $i/name"


def traffic(memo):
    return memo.stats.query_memo_hits, memo.stats.query_memo_misses


class TestKey:
    def test_content_not_identity(self, system, memo, monkeypatch):
        runs = count_runs(monkeypatch)
        peer = system.peer("a")
        first, _ = peer.evaluate(SELECT, [[catalog()]], memo=memo)
        # a shipped argument is a copy; a relabelled query shares the module
        again, _ = peer.evaluate(SELECT.copy("other"), [[catalog()]], memo=memo)
        assert [n.string_value() for n in again] == ["nm6", "nm7"]
        assert [n.string_value() for n in first] == ["nm6", "nm7"]
        assert traffic(memo) == (1, 1) and len(runs) == 1

    def test_an_edited_argument_misses(self, system, memo):
        peer = system.peer("a")
        tree = catalog()
        peer.evaluate(SELECT, [[tree]], memo=memo)
        tree.append(parse("<item><name>new</name><price>99</price></item>"))
        result, _ = peer.evaluate(SELECT, [[tree]], memo=memo)
        assert [n.string_value() for n in result] == ["nm6", "nm7", "new"]
        assert traffic(memo) == (0, 2)

    def test_parameter_names_and_atomic_types_are_part_of_the_key(self, system, memo):
        peer = system.peer("a")
        swapped = Query("$x", params=("x", "y"))
        peer.evaluate(swapped, [[1], [2]], memo=memo)
        (value,), _ = peer.evaluate(swapped.copy(None, params=("y", "x")), [[1], [2]], memo=memo)
        assert value == 2
        (value,), _ = peer.evaluate(swapped, [[True], [2]], memo=memo)
        assert value is True
        assert traffic(memo) == (0, 3)

    def test_one_tree_bound_twice_is_not_two_equal_trees(self, system, memo):
        peer = system.peer("a")
        union = Query("count($a | $b)", params=("a", "b"))
        tree = catalog()
        assert peer.evaluate(union, [[tree], [tree.copy()]], memo=memo)[0] == [2]
        assert peer.evaluate(union, [[tree], [tree]], memo=memo)[0] == [1]
        assert peer.evaluate(union, [[tree.copy()], [tree]], memo=memo)[0] == [2]
        assert traffic(memo) == (1, 2)

    def test_a_node_inside_a_larger_tree_is_not_keyed(self, system, memo):
        peer = system.peer("a")
        up = Query("$d/../name", params=("d",))
        for label in ("x", "y"):
            tree = parse(f"<item><name>{label}</name><price>1</price></item>")
            (name,), _ = peer.evaluate(up, [[tree.child_by_tag("price")]], memo=memo)
            assert name.string_value() == label
        assert traffic(memo) == (0, 0) and len(memo) == 0

    def test_work_is_charged_on_a_hit(self, system, memo):
        peer = system.peer("a")
        _, first = peer.evaluate(SELECT, [[catalog()]], memo=memo)
        _, second = peer.evaluate(SELECT, [[catalog()]], first, memo=memo)
        assert second == pytest.approx(2 * first) and first > 0


class TestDocReads:
    def test_an_edited_document_misses(self, system, memo):
        service = system.peer("a").install_query_service("big", READS_DOC)
        peer = system.peer("a")
        assert len(service.invoke([], peer, memo)) == 2
        assert len(service.invoke([], peer, memo)) == 2
        assert traffic(memo) == (1, 1)
        peer.own_document("cat").append(
            parse("<item><name>new</name><price>99</price></item>")
        )
        assert len(service.invoke([], peer, memo)) == 3
        assert traffic(memo) == (1, 2)
        assert service.invocations == 3

    def test_the_same_body_over_a_different_replica_misses(self, system, memo):
        body = Query(READS_DOC, name="big")
        here, there = system.peer("a"), system.peer("b")
        here.evaluate(body, memo=memo)
        there.evaluate(body, memo=memo)  # equal replica: one result serves both
        assert traffic(memo) == (1, 1)
        there.own_document("cat").append(
            parse("<item><name>new</name><price>99</price></item>")
        )
        result, _ = there.evaluate(body, memo=memo)
        assert len(result) == 3
        result, _ = here.evaluate(body, memo=memo)  # both variants are kept
        assert len(result) == 2
        assert traffic(memo) == (2, 2) and len(memo) == 2

    def test_a_read_that_is_an_argument_is_not_an_equal_argument(self, system, memo):
        peer = system.peer("a")
        same = Query('if ($x is doc("cat")) then "same" else "other"', params=("x",))
        stored = peer.documents["cat"]
        assert peer.evaluate(same, [[stored]], memo=memo)[0] == ["same"]
        # equal content, but not the tree doc() reads: an entry must not answer
        assert peer.evaluate(same, [[stored.copy()]], memo=memo)[0] == ["other"]
        assert peer.evaluate(same, [[stored]], memo=memo)[0] == ["same"]
        assert peer.evaluate(same, [[stored.copy()]], memo=memo)[0] == ["other"]
        assert traffic(memo) == (2, 2)

    def test_a_peer_without_the_document_fails_as_it_would_unmemoised(
        self, system, memo
    ):
        body = Query(READS_DOC, name="big")
        system.peer("a").evaluate(body, memo=memo)
        system.peer("b").drop_document("cat")
        with pytest.raises(type(_failure(system.peer("b"), body))):
            system.peer("b").evaluate(body, memo=memo)


def _failure(peer, query):
    try:
        peer.evaluate(query)
    except Exception as exc:
        return exc
    raise AssertionError("expected the unmemoised run to fail")


class TestHandOuts:
    def test_results_are_frozen_copies_and_the_entry_survives_an_attempted_edit(
        self, system, memo
    ):
        peer = system.peer("a")
        tree = catalog()
        (first, _), _ = peer.evaluate(SELECT, [[tree]], memo=memo)
        assert first.frozen and not tree.frozen
        assert first.parent is None  # cut loose from the argument it came from
        with pytest.raises(FrozenTreeError):
            first.append(parse("<x/>"))
        with pytest.raises(FrozenTreeError):
            first.set_attr("k", "v")
        result, _ = peer.evaluate(SELECT, [[tree]], memo=memo)
        assert [n.string_value() for n in result] == ["nm6", "nm7"]
        assert traffic(memo) == (1, 1)
        # a fresh list each time: dropping an item is the consumer's business
        result.pop()
        assert len(peer.evaluate(SELECT, [[tree]], memo=memo)[0]) == 2
        # the consumer that edits owns a copy
        first.copy().append(parse("<x/>"))

    def test_text_and_attribute_results_do_not_pin_the_argument(self, system, memo):
        tree = parse('<c><item id="7">seven</item></c>')
        both = Query("($d/item/text(), $d/item/@id)", params=("d",))
        text, attribute = system.peer("a").evaluate(both, [[tree]], memo=memo)[0]
        assert (text.value, text.parent) == ("seven", None)
        assert (attribute.value, attribute.owner) == ("7", None)


def count_copies(monkeypatch):
    """Every whole-tree copy from here on appends its original to the list."""
    copied = []
    original = Element._copy

    def counting(self, warm, ids=True):
        copied.append(self)
        return original(self, warm, ids)

    monkeypatch.setattr(Element, "_copy", counting)
    return copied


class TestSharing:
    """A tree the run built is frozen in place and shared; whatever the
    run was handed, or selected from inside a tree, is still a copy."""

    def test_a_constructed_result_is_frozen_in_place_and_the_hit_is_it(
        self, system, memo, monkeypatch
    ):
        peer = system.peer("a")
        built = Query("<n>{count($d//item)}</n>", params=("d",))
        copied = count_copies(monkeypatch)
        (first,), _ = peer.evaluate(built, [[catalog()]], memo=memo)
        assert first.frozen and first.parent is None
        assert first.string_value() == "8" and copied == []
        (again,), _ = peer.evaluate(built, [[catalog()]], memo=memo)
        assert again is first and traffic(memo) == (1, 1)
        with pytest.raises(FrozenTreeError):
            again.append(parse("<x/>"))

    @pytest.mark.parametrize("source, handed", [
        ("$d", lambda peer, tree: tree),
        ("doc('cat')", lambda peer, tree: peer.documents["cat"]),
        ("$d/item[1]", lambda peer, tree: tree.element_children[0]),
        ("doc('cat')/item[2]", lambda peer, tree: peer.documents["cat"].element_children[1]),
        ("<a><b>{$d/item[1]/name/text()}</b></a>/b", None),
    ])
    def test_an_argument_a_read_or_a_node_inside_a_tree_is_a_copy(
        self, system, memo, monkeypatch, source, handed
    ):
        peer = system.peer("a")
        tree = catalog()
        query = Query(source, params=("d",))
        copied = count_copies(monkeypatch)
        (expected,) = query.bind_resolver(peer.doc_resolver).run([tree])
        built = len(copied)  # a nested constructor copies its content
        (item,), _ = peer.evaluate(query, [[tree]], memo=memo)
        assert len(copied) == 2 * built + 1 and item is not expected
        assert item.frozen and item.parent is None
        assert item.content_fingerprint() == expected.content_fingerprint()
        if handed is not None:
            assert copied[-1] is handed(peer, tree) and not copied[-1].frozen
        assert not tree.frozen and not peer.documents["cat"].frozen

    def test_a_built_tree_returned_twice_stays_one_tree(self, system, memo):
        peer = system.peer("a")
        twice = Query("let $x := <a/> return ($x, $x)")
        first, last = twice.run()
        assert first is last  # unmemoised: one tree, twice
        for _ in range(2):
            first, last = peer.evaluate(twice, memo=memo)[0]
            assert first is last and first.frozen
        assert traffic(memo) == (1, 1)

    def test_an_outer_is_test_answers_as_unmemoised(self, bare_oracle):
        system = AXMLSystem.with_peers(["a", "b"])
        twice = Query("let $x := <a/> return ($x, $x)", name="twice")
        outer = "($r[1] is $r[2], count($r | $r), $r[2] is $r[2]/.)"
        for home in ("a", "b"):
            bind = {"r": QueryApply(QueryRef(twice, home), ())}
            answers = []
            for bare in (False, True):
                session = Session(system.clone())
                with bare_oracle() if bare else contextlib.nullcontext():
                    items = session.query(outer, at="a", bind=bind).items
                answers.append([item.string_value() for item in items])
            # binding one tree twice binds the repeat as a copy
            assert answers[0] == answers[1] == ["false", "2", "true"]


class TestFailures:
    def test_a_failing_query_fails_every_time_and_stores_nothing(self, system, memo):
        peer = system.peer("a")
        failing = Query("$d/item/price + 1", params=("d",))
        for _ in range(3):
            with pytest.raises(XQueryError):
                peer.evaluate(failing, [[catalog()]], memo=memo)
        assert traffic(memo) == (0, 3) and len(memo) == 0


# ---------------------------------------------------------------------------
# the trees a simulation builds: activated, installed, reassembled
# ---------------------------------------------------------------------------

def simulate(system, expr, at, memo):
    """One oracle simulation of ``expr`` at ``at``: (the twin, its outcome)."""
    twin = system.clone()
    evaluator = ExpressionEvaluator(twin)
    evaluator.memo = memo
    return twin, evaluator.eval(expr, at)


def values(outcome):
    return [item.string_value() for item in outcome.items]


class TestTreeMemo:
    """Each tree is built once per memo, keyed by the identities of its
    frozen inputs — and every one of those keys is exact."""

    TWICE = "($a is $b, count($a | $b))"

    @pytest.fixture()
    def world(self):
        system = AXMLSystem.with_peers(["a", "b", "c"])
        system.peer("b").install_document("cat", catalog())
        Fragmenter(system).fragment("cat", "b", ["b", "c"])
        system.peer("b").install_query_service("pricey", READS_DOC)
        system.peer("a").install_query_service("twice", self.TWICE, params=("a", "b"))
        system.peer("a").install_document(
            "ax", element("d", make_service_call("b", "pricey"))
        )
        return system

    @pytest.mark.parametrize("head", ["apply", "call"])
    @pytest.mark.parametrize("kind", ["fragmented", "sc-literal"])
    def test_a_built_tree_bound_twice_is_still_two_trees(self, world, memo, kind, head):
        if kind == "fragmented":
            arg = FragmentedDoc("cat")
        else:
            arg = TreeExpr(element("d", make_service_call("b", "pricey")), "a")
        if head == "apply":
            expr = QueryApply(QueryRef(Query(self.TWICE, params=("a", "b")), "a"), (arg, arg))
        else:
            expr = ServiceCallExpr("a", "twice", (arg, arg))
        for _ in range(2):
            _, outcome = simulate(world, expr, "a", memo)
            assert values(outcome) == ["false", "2"]
        assert memo.stats.tree_memo_hits >= 3  # the second binding, then a whole run

    def test_an_axml_document_read_twice_activates_once(self, world, memo):
        same = Query("$a is $b", params=("a", "b"))
        expr = QueryApply(QueryRef(same, "a"), (DocExpr("ax", "a"), DocExpr("ax", "a")))
        for _ in range(2):
            twin, outcome = simulate(world, expr, "a", memo)
            # the second read sees the installed document: plain data, no call
            assert values(outcome) == ["true"]
            assert twin.peer("b").service("pricey").invocations == 1
            assert not twin.peer("a").documents["ax"].has_service_calls()
        assert memo.stats.tree_memo_hits == 2  # activated value, installed form

    def test_a_hit_installs_and_numbers_as_installing_would(self, world, memo):
        def numbering(memo):
            twin, _ = simulate(world, DocExpr("ax", "a"), "c", memo)
            home = twin.peer("a")
            ids = [node.node_id for node in iter_elements(home.documents["ax"])]
            return home.allocator.next_serial, ids

        unmemoised = numbering(None)
        assert numbering(memo) == unmemoised  # misses: installed, then kept
        assert numbering(memo) == unmemoised  # hits: stored and numbered alike
        assert memo.stats.tree_memo_hits == 2

    def test_fresh_responses_never_hit(self, world, memo):
        stamps = []

        def stamp(params, peer):
            stamps.append(len(stamps) + 1)
            return [element("stamp", str(stamps[-1]))]

        world.peer("b").install_service(NativeService("stamp", stamp))
        world.peer("a").install_document(
            "live", element("d", make_service_call("b", "stamp"))
        )
        for expected in ("1", "2"):
            _, outcome = simulate(world, DocExpr("live", "a"), "a", memo)
            assert values(outcome) == [expected]
        assert memo.stats.tree_memo_hits == 0
        assert memo.stats.tree_memo_misses == 4

    def test_a_changed_fragment_misses(self, world, memo):
        whole = [values(simulate(world, FragmentedDoc("cat"), "a", memo)[1])]
        world.peer("c").own_document("cat.f1").append(
            parse("<item><name>new</name><price>99</price></item>")
        )
        whole.append(values(simulate(world, FragmentedDoc("cat"), "a", memo)[1]))
        assert whole[1][0] == whole[0][0] + "new99"
        assert memo.stats.tree_memo_hits == 0


# ---------------------------------------------------------------------------
# (v) lifetime: the plan cache's; the simulations: one search
# ---------------------------------------------------------------------------

class TestLifetime:
    QUERY = "for $i in $d//item where $i/price > 5 return $i/name"

    @pytest.fixture()
    def wide(self):
        system = AXMLSystem.with_peers(["client", "data", "helper"], bandwidth=50_000.0)
        system.peer("data").install_document("cat", catalog(40))
        return system

    def plan(self):
        query = Query(self.QUERY, params=("d",), name="sel")
        return Plan(QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)), "client")

    def test_the_memo_outlives_the_search_and_its_simulations_do_not(self, wide):
        cache = PlanCache()
        optimizer = Optimizer(wide, cache=cache)
        plan = self.plan()
        seen = []
        score = optimizer.cost_model.score

        def spying(candidate):
            seen.append((cache.query_memo, cache.simulations))
            return score(candidate)

        optimizer.cost_model.score = spying
        result = optimizer.optimize_with("beam", plan)
        store = cache.query_memo
        assert seen and all(memo is store for memo, _ in seen) and len(store) > 0
        assert all(runs is seen[0][1] for _, runs in seen) and seen[0][1] is not None
        assert cache.simulations is None and "simulations" not in vars(cache)
        assert result.simulation is not None  # the pick's run is handed on
        assert result.cache.query_memo_hits > 0
        assert "query memo" in result.cache.describe()
        entries = len(store)
        assert f"{entries} query memo entries" in cache.describe()
        # the next search over the same content evaluates nothing
        again = optimizer.optimize_with("beam", plan)
        assert cache.query_memo is store and len(store) == entries
        assert again.cache.query_memo_misses == 0
        assert again.cache.query_memo_hits > result.cache.query_memo_hits
        assert cache.simulations is None
        # clear() empties it: the search after starts from nothing
        cache.clear()
        assert cache.query_memo is store and len(store) == 0
        cold = optimizer.optimize_with("beam", plan)
        assert cold.cache.query_memo_misses == result.cache.query_memo_misses

    def test_the_memo_survives_a_search_that_raises(self, wide):
        cache = PlanCache()
        optimizer = Optimizer(wide, cache=cache)
        optimizer.optimize_with("beam", self.plan())
        entries = len(cache.query_memo)
        assert entries > 0
        with pytest.raises(Exception):
            optimizer.optimize_with("beam", Plan(DocExpr("nowhere", "data"), "client"))
        assert len(cache.query_memo) == entries
        assert cache.simulations is None and "simulations" not in vars(cache)

    def test_a_document_written_between_two_searches_misses(self, wide):
        wide.peer("data").install_query_service("pricey", READS_DOC)
        plan = Plan(ServiceCallExpr("data", "pricey", ()), "client")
        cache = PlanCache()
        optimizer = Optimizer(wide, cache=cache)
        first = optimizer.optimize_with("beam", plan)
        entries = len(cache.query_memo)
        assert entries > 0
        Session(wide, plan_cache=cache).write(InsertOp(
            "cat", parse("<item><name>new</name><price>99</price></item>")
        ))
        # no clear: the entry's doc() read is re-checked, and misses
        after = optimizer.optimize_with("beam", plan)
        assert after.cache.query_memo_misses > 0
        assert len(cache.query_memo) > entries
        assert after.best_cost == Optimizer(wide).optimize_with("beam", plan).best_cost
        assert after.best_cost.bytes > first.best_cost.bytes

    def test_another_query_over_the_same_axml_document_reuses_its_activation(
        self, wide
    ):
        wide.peer("data").install_query_service("pricey", READS_DOC)
        wide.peer("helper").install_document(
            "ax", element("d", make_service_call("data", "pricey"))
        )

        def plan(source, name):
            query = Query(source, params=("d",), name=name)
            return Plan(
                QueryApply(QueryRef(query, "client"), (DocExpr("ax", "helper"),)),
                "client",
            )

        first = plan("$d//name", "names")
        second = plan("count($d//name)", "count")
        # priced alone, one simulation of the second plan builds each tree once
        alone = Optimizer(wide).optimize_with(None, second)
        assert alone.cache.tree_memo_hits == 0 and alone.cache.tree_memo_misses > 0
        optimizer = Optimizer(wide)
        optimizer.optimize_with("beam", first)
        after = optimizer.optimize_with(None, second)
        # after a search over the first, the activated value and its
        # installed form are the first search's
        assert after.cache.tree_memo_hits > 0
        assert after.best_cost == alone.best_cost

    def test_an_answer_is_evaluated_not_looked_up(self, wide, monkeypatch):
        session = Session(wide)
        first = session.query(self.QUERY, at="client", bind={"d": "cat@data"})
        assert first.plan_cache.query_memo_hits > 0
        assert "query memo" in first.describe()
        runs = count_runs(monkeypatch)
        # a prepared hit: no search, so whatever runs now is the execution
        second = session.query(self.QUERY, at="client", bind={"d": "cat@data"})
        assert second.plan_cache.prepared_hits == 1
        assert second.plan_cache.query_memo_hits == 0
        assert second.plan_cache.query_memo_misses == 0
        assert len(runs) >= 1
        assert second.answers == first.answers

    def test_a_bare_search_space_is_the_unmemoised_reference(self, wide):
        query = Query(self.QUERY, params=("d",), name="sel")
        plan = Plan(QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)), "client")
        space = SearchSpace(wide)
        make_strategy("beam").search(plan, space)
        assert space.stats.plans_scored > 1
        assert space.stats.query_memo_hits == space.stats.query_memo_misses == 0


# ---------------------------------------------------------------------------
# the estimator no longer prices an engine crash as "no sample"
# ---------------------------------------------------------------------------

class TestEstimatorSamples:
    def plan(self):
        query = Query(TestLifetime.QUERY, params=("d",), name="sel")
        return Plan(QueryApply(QueryRef(query, "a"), (DocExpr("cat", "a"),)), "a")

    def test_a_typed_query_failure_is_no_sample(self, system, monkeypatch):
        def failing(self, *args, **kwargs):
            raise XQueryError("boom")

        monkeypatch.setattr(Query, "run", failing)
        assert CostEstimator(system).estimate(self.plan()).time > 0

    def test_an_untyped_crash_propagates(self, system, monkeypatch):
        def crashing(self, *args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(Query, "run", crashing)
        with pytest.raises(RuntimeError, match="engine bug"):
            CostEstimator(system).estimate(self.plan())

    def test_an_untyped_crash_in_a_service_body_propagates(self, system, monkeypatch):
        system.peer("a").install_document(
            "ax", parse("<r><sc><peer>a</peer><service>big</service></sc></r>")
        )
        system.peer("a").install_query_service("big", READS_DOC)
        plan = Plan(DocExpr("ax", "a"), "b")

        def crashing(self, *args, **kwargs):
            raise RuntimeError("engine bug")

        assert CostEstimator(system).estimate(plan).bytes > 0
        monkeypatch.setattr(Query, "run", crashing)
        # the call sample runs the evaluator, which types the crash
        with pytest.raises(ServiceCallError, match="engine bug") as raised:
            CostEstimator(system).estimate(plan)
        assert isinstance(raised.value.__cause__, RuntimeError)


# ---------------------------------------------------------------------------
# the regression gate: evaluations on the serve_repeat stream, counted
# ---------------------------------------------------------------------------

SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)


def serve_repeat(monkeypatch, **session_kwargs):
    """bench/workloads.py's ``serve_repeat`` pass: (report, Query.run calls)."""
    scenario = ScenarioGenerator(7, SERVE_SPEC).scenario(0)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 4)
    ]
    session = repro.connect(scenario.system, **session_kwargs)
    runs = count_runs(monkeypatch)
    report = session.serve(feed=ClosedLoopFeed(requests, 4), seed=7)
    assert len(report.jobs) == 24 and all(job.status == "done" for job in report.jobs)
    return session.plan_cache.stats, len(runs)


def test_serve_repeat_evaluates_each_sub_query_once_per_search(monkeypatch):
    stats, runs = serve_repeat(monkeypatch)
    assert runs <= 80  # 445 before the memo
    assert stats.query_memo_hits > 0
    assert stats.query_memo_hits + stats.query_memo_misses > runs // 2
    assert "query_memo_hits" in stats.as_dict()


def test_serve_repeat_ships_trees_by_reference(monkeypatch):
    copies = []
    original = Element.copy  # recursion inside a copy does not come back here
    monkeypatch.setattr(
        Element, "copy", lambda self: copies.append(self) or original(self)
    )
    serve_repeat(monkeypatch)
    assert len(copies) <= 1_139  # 5 697 copied trees when every shipment copied


def test_the_analytic_model_never_consults_the_memo(monkeypatch):
    stats, _ = serve_repeat(monkeypatch, cost_model="analytic")
    assert stats.query_memo_hits == stats.query_memo_misses == 0


# ---------------------------------------------------------------------------
# the second gate: element nodes copied on the rw_frag stream, counted
# ---------------------------------------------------------------------------

def rw_frag(**session_kwargs):
    """bench/workloads.py's ``rw_frag`` pass: each write, then every read."""
    spec = replace(WRITE_MIX_SPEC, items=60, writes=3)
    scenario = ScenarioGenerator(7, spec).scenario(1)
    session = repro.connect(scenario.system.clone(), **session_kwargs)
    for write in scenario.writes:
        session.write(write.op())
        for query in scenario.queries:
            session.query(**query.kwargs())
    return session.plan_cache.stats


def test_rw_frag_builds_each_derived_tree_once_per_search(monkeypatch):
    copied = []
    original = Element._copy  # one call per tree: count its element nodes

    def counting(self, warm, ids=True):
        copied.extend(iter_elements(self))
        return original(self, warm, ids)

    monkeypatch.setattr(Element, "_copy", counting)
    stats = rw_frag()
    assert len(copied) <= 12_816  # 25 633 nodes when every candidate rebuilt them
    assert stats.tree_memo_hits > 0
    for counter in ("tree_memo_hits", "tree_memo_misses"):
        assert stats.as_dict()[counter] == getattr(stats, counter)
        assert getattr(stats.delta_since(CacheStats()), counter) == getattr(stats, counter)
    assert "tree memo" in stats.describe()


def test_the_analytic_model_builds_no_tree_through_the_memo():
    stats = rw_frag(cost_model="analytic")
    assert stats.tree_memo_hits == stats.tree_memo_misses == 0
