"""Deterministic tracing & metrics layer (repro.obs).

Covers the tracer's zero-cost contract (tracing off and tracing on both
leave the scheduler event trace and every answer byte-identical, across
fault-free and faulted seeded scenarios), the critical-path analyzer's
exactness invariant (segments sum to the measured latency), the JSONL
round trip and Chrome-trace export schema, the metrics registry, and
the satellite fixes that rode along: the
``percentile`` edge cases, ``ServingReport.job`` KeyError, and the
makespan window spanning failed jobs on faulted runs.  Under ``-m perf``,
the wall overhead of tracing.
"""

import inspect
import json
import time

import pytest

from repro.engine import JobRequest, LoadGenerator, ServingReport, percentile
from repro.engine.jobs import DONE, FAILED
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.obs import (
    CAT_EVAL,
    CAT_FAULT,
    CAT_JOB,
    CAT_PLAN,
    NO_TRACER,
    SEGMENTS,
    MetricsRegistry,
    Span,
    Trace,
    Tracer,
    analyze,
    decompose,
    load_trace,
    to_chrome_trace,
    to_jsonl_records,
    write_jsonl,
)
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.writes import InsertOp
from repro.xmlcore import parse

SPEC = ScenarioSpec(
    peers=5, topology="mesh", documents=3, axml_documents=1,
    items=12, services=2, replicas=2, queries=5,
)

FAULT_SPEC = FaultSpec(
    link_drops=2, link_degrades=1, corruptions=1, service_failures=1,
    service_hangs=1, peer_stalls=1, peer_crashes=1, horizon=0.3,
)


def scenario_for(seed):
    return ScenarioGenerator(seed=seed, spec=SPEC).scenario(0)


def requests_for(scenario, deadline=None, partial=False):
    return [
        JobRequest(arrival=k * 0.01, deadline=deadline, partial=partial,
                   **q.kwargs())
        for k, q in enumerate(scenario.queries)
    ]


def serve_plain(seed, tracer=None):
    scenario = scenario_for(seed)
    session = Session(scenario.system, tracer=tracer)
    return session.serve(requests_for(scenario), seed=seed)


def serve_faulted(seed, fault_seed, tracer=None):
    scenario = scenario_for(seed)
    plan = FaultPlan.generate(fault_seed, scenario.system, FAULT_SPEC)
    session = Session(
        scenario.system, retry=RetryPolicy(max_attempts=3, backoff=0.005),
        fault_plan=plan, tracer=tracer,
    )
    return session.serve(
        requests_for(scenario, deadline=5.0, partial=True), seed=seed,
    )


def fault_counts(report):
    return {c.labels: c.value for c in report.registry.counters("faults")}


def answers_of(report):
    return {job.name: tuple(job.answers) for job in report.jobs
            if job.status == DONE}


# ---------------------------------------------------------------------------
# The zero-cost contract: tracing is invisible to the simulation
# ---------------------------------------------------------------------------

class TestTracingIsInvisible:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_fault_free_runs_identical_with_tracing_on(self, seed):
        off = serve_plain(seed)
        on = serve_plain(seed, tracer=Tracer())
        assert off.events == on.events
        assert answers_of(off) == answers_of(on)
        assert off.metrics.makespan == on.metrics.makespan
        assert off.trace is None
        assert on.trace is not None and len(on.trace.jobs) == len(on.jobs)

    @pytest.mark.parametrize("seed,fault_seed", [(3, 1), (7, 2)])
    def test_faulted_runs_identical_with_tracing_on(self, seed, fault_seed):
        off = serve_faulted(seed, fault_seed)
        on = serve_faulted(seed, fault_seed, tracer=Tracer())
        assert off.events == on.events
        assert answers_of(off) == answers_of(on)
        assert fault_counts(off) == fault_counts(on)
        # the faulted trace carries run-level fault windows and, per job,
        # whatever backoff/stall spans the recovery machinery spent
        assert any(s.cat == CAT_FAULT for s in on.trace.run)

    def test_every_traced_job_has_plan_and_eval_spans(self):
        report = serve_plain(7, tracer=Tracer())
        for root in report.trace.jobs.values():
            cats = [child.cat for child in root.children]
            assert CAT_PLAN in cats
            assert CAT_EVAL in cats
            assert root.cat == CAT_JOB

    def test_tracer_reuse_across_runs_resets(self):
        tracer = Tracer()
        first = serve_plain(3, tracer=tracer)
        second = serve_plain(3, tracer=tracer)
        assert len(first.trace.jobs) == len(second.trace.jobs)
        # a fresh drain resets the tracer: no job accumulation across runs
        assert set(second.trace.jobs) == set(first.trace.jobs)

    @pytest.mark.perf
    def test_tracing_costs_at_most_five_percent_wall_time(self):
        # interleaved off/on reps, so drift (warm-up, allocator state)
        # hits both modes alike; each mode's cost is its fastest rep
        spec = ScenarioSpec(
            peers=6, topology="mesh", documents=4, axml_documents=1,
            items=20, services=2, replicas=2, queries=6,
        )
        scenario = ScenarioGenerator(seed=7, spec=spec).scenario(0)
        load = LoadGenerator(scenario, seed=8)
        seconds = {False: [], True: []}
        reference = None
        for _ in range(5):
            for traced in (False, True):
                session = Session(scenario.system, tracer=Tracer() if traced else None)
                feed = load.closed_loop(16, 4)
                started = time.perf_counter()
                report = session.serve(feed=feed, seed=7)
                seconds[traced].append(time.perf_counter() - started)
                observed = (tuple(report.events), answers_of(report))
                assert reference is None or observed == reference, traced
                reference = observed
        ratio = min(seconds[True]) / min(seconds[False])
        assert ratio <= 1.05, seconds


class TestNoTracer:
    """Tracing off is one object: every hook on it records nothing."""

    def test_every_tracer_method_is_a_no_op(self):
        public = {
            name: member for name, member in vars(Tracer).items()
            if callable(member) and not name.startswith("_")
        }
        assert "hop" in public and "trace" in public
        for name, member in public.items():
            # overridden, so a method added to Tracer later fails here
            assert getattr(type(NO_TRACER), name) is not member, name
            params = list(inspect.signature(member).parameters.values())[1:]
            args = [0.0 for param in params if param.default is param.empty
                    and param.kind is param.POSITIONAL_OR_KEYWORD]
            assert getattr(NO_TRACER, name)(*args, attr=1) is None, name
        assert NO_TRACER.trace() is None
        assert (NO_TRACER.jobs, NO_TRACER.run, NO_TRACER._stack) == ({}, [], [])

    def test_untraced_faulted_serves_around_a_write_record_nothing(self):
        def serve(tracer):
            system = AXMLSystem.with_peers(["laptop", "server"])
            system.peer("server").install_document(
                "cat", parse("<c><i><p>40</p></i><i><p>3</p></i></c>")
            )
            plan = FaultPlan.generate(1, system, FAULT_SPEC)
            assert plan.events
            session = Session(
                system, fault_plan=plan, tracer=tracer,
                retry=RetryPolicy(max_attempts=3, backoff=0.005),
            )
            read = dict(
                source="for $i in $d//i where $i/p > 37 return $i/p",
                at="laptop", bind={"d": "cat@server"}, partial=True,
            )
            before = session.serve([JobRequest(name="before", **read)])
            session.write(InsertOp("cat", parse("<i><p>99</p></i>"), None))
            after = session.serve([JobRequest(name="after", **read)])
            return before, after

        traced = serve(Tracer())
        # traced, the same runs record job roots and run-level spans...
        assert [set(report.trace.jobs) for report in traced] == [
            {"before"}, {"after"}
        ]
        assert all(report.trace.run for report in traced)
        untraced = serve(None)
        assert [r.events for r in untraced] == [r.events for r in traced]
        # ...untraced, the shared null tracer still holds none
        assert [r.trace for r in untraced] == [None, None]
        assert (NO_TRACER.jobs, NO_TRACER.run, NO_TRACER._stack) == ({}, [], [])


# ---------------------------------------------------------------------------
# Critical path: segments sum exactly to the measured latency
# ---------------------------------------------------------------------------

class TestCriticalPath:
    @pytest.mark.parametrize("seed,faulted", [(3, False), (7, False),
                                              (7, True), (11, False)])
    def test_segments_sum_to_latency(self, seed, faulted):
        tracer = Tracer()
        if faulted:
            serve_faulted(seed, 1, tracer=tracer)
        else:
            serve_plain(seed, tracer=tracer)
        path = analyze(tracer.trace())
        assert path.jobs, "traced run produced no job paths"
        for job_path in path.jobs:
            assert job_path.total == pytest.approx(job_path.latency, abs=1e-9)
            assert all(v >= 0 for v in job_path.segments.values())
            assert job_path.bottleneck in SEGMENTS

    def test_decompose_empty_job_is_all_other(self):
        root = Span("idle", CAT_JOB, 0.0, 1.0)
        path = decompose(root)
        assert path.segments["other"] == pytest.approx(1.0)
        assert path.total == pytest.approx(path.latency)

    def test_bottleneck_names_dominant_segment(self):
        report = serve_plain(7, tracer=Tracer())
        path = analyze(report.trace)
        top = max(path.totals.items(), key=lambda kv: kv[1])
        assert path.bottleneck == top[0]


# ---------------------------------------------------------------------------
# Export: JSONL round trip and Chrome-trace schema
# ---------------------------------------------------------------------------

class TestExport:
    def test_jsonl_round_trip_preserves_decomposition(self, tmp_path):
        report = serve_faulted(7, 1, tracer=Tracer())
        path = tmp_path / "run.jsonl"
        write_jsonl(report.trace, str(path))
        loaded = load_trace(str(path))
        assert set(loaded.jobs) == set(report.trace.jobs)
        assert len(loaded.run) == len(report.trace.run)
        before = {p.job: p.segments for p in analyze(report.trace).jobs}
        after = {p.job: p.segments for p in analyze(loaded).jobs}
        assert after == before

    def test_jsonl_records_reference_valid_parents(self):
        report = serve_plain(3, tracer=Tracer())
        records = to_jsonl_records(report.trace)
        ids = {r["id"] for r in records}
        assert len(ids) == len(records)
        for record in records:
            assert record["parent"] is None or record["parent"] in ids
            assert record["end"] >= record["start"]

    def test_chrome_trace_schema(self):
        report = serve_faulted(7, 2, tracer=Tracer())
        events = to_chrome_trace(report.trace)["traceEvents"]
        assert events, "no trace events emitted"
        for event in events:
            assert event["ph"] in ("X", "M")
            assert "name" in event and "pid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
                assert "tid" in event
        # one metadata thread per job lane plus the run lane
        names = [e for e in events if e.get("name") == "thread_name"]
        assert len(names) == len(report.trace.jobs) + 1
        json.dumps(to_chrome_trace(report.trace))  # serializable end to end


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_serving_registry_is_the_runs_fault_tallies(self):
        # fault-free: nothing counted, and no copy of another surface
        assert serve_plain(7).registry.counters() == []
        scenario = scenario_for(7)
        plan = FaultPlan.generate(1, scenario.system, FAULT_SPEC)
        session = Session(
            scenario.system, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff=0.005),
        )
        report = session.serve(requests_for(scenario, partial=True), seed=7)
        # faulted: the serving clone's registry, faults only; the live
        # network counts nothing
        assert report.registry is not scenario.system.network.metrics
        assert scenario.system.network.metrics.counters() == []
        counters = report.registry.counters()
        assert counters and counters == report.registry.counters("faults")

    def test_get_or_create_is_stable_across_label_order(self):
        registry = MetricsRegistry()
        a = registry.counter("net", kind="doc", dir="in")
        b = registry.counter("net", dir="in", kind="doc")
        a.inc(2)
        assert b.value == 2


# ---------------------------------------------------------------------------
# Trace container edges
# ---------------------------------------------------------------------------

class TestTraceContainer:
    def test_job_lookup_keyerror(self):
        trace = Trace()
        with pytest.raises(KeyError):
            trace.job("nope")

    def test_serving_report_job_keyerror(self):
        with pytest.raises(KeyError):
            ServingReport().job("missing")

    def test_single_query_report_carries_spans(self):
        scenario = scenario_for(3)
        tracer = Tracer()
        session = Session(scenario.system, tracer=tracer)
        query = scenario.queries[0]
        report = session.query(**query.kwargs())
        assert report.spans is not None
        assert len(report.spans.jobs) == 1
        root = next(iter(report.spans.jobs.values()))
        assert root.attrs.get("status") == "done"

    def test_legacy_bool_trace_flag_still_works(self):
        scenario = scenario_for(3)
        session = Session(scenario.system, trace=True)
        query = scenario.queries[0]
        report = session.query(**query.kwargs())
        assert session.trace is True
        assert session.tracer is NO_TRACER
        assert report.spans is None


# ---------------------------------------------------------------------------
# Satellites: percentile edges and the makespan window fix
# ---------------------------------------------------------------------------

class TestPercentileEdges:
    def test_q0_returns_minimum(self):
        assert percentile([5.0, 1.0, 3.0], 0) == 1.0

    def test_q100_returns_maximum(self):
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0

    def test_single_element_any_q(self):
        for q in (0, 50, 99, 100):
            assert percentile([2.5], q) == 2.5

    def test_unsorted_input_is_sorted_first(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0]
        assert percentile(values, 50) == 5.0
        assert values == [9.0, 1.0, 7.0, 3.0, 5.0]  # input untouched

    def test_empty_returns_zero(self):
        assert percentile([], 95) == 0.0


class TestMakespanWindow:
    def test_makespan_spans_failed_jobs(self):
        # a run where faults fail some jobs: the window must still cover
        # every terminal job, not just the completed ones
        scenario = scenario_for(7)
        plan = FaultPlan.generate(1, scenario.system, FAULT_SPEC)
        session = Session(
            scenario.system, retry=RetryPolicy(max_attempts=1),
            fault_plan=plan,
        )
        report = session.serve(requests_for(scenario), seed=7)
        terminal = [j for j in report.jobs if j.finished_at is not None]
        assert terminal
        first = min(j.arrival for j in terminal)
        last = max(j.finished_at for j in terminal)
        assert report.metrics.makespan == pytest.approx(last - first)
        if report.metrics.failed:
            done_only = [j for j in report.jobs if j.status == DONE]
            if done_only:
                shrunk = (max(j.finished_at for j in done_only)
                          - min(j.arrival for j in done_only))
                assert report.metrics.makespan >= shrunk

    def test_qps_uses_full_window(self):
        report = serve_plain(3)
        metrics = report.metrics
        assert metrics.queries_per_sec == pytest.approx(
            metrics.jobs / metrics.makespan
        )

    def test_latency_p99_populated(self):
        metrics = serve_plain(3).metrics
        assert metrics.latency_p99 >= metrics.latency_p95
        assert metrics.latency_p99 <= metrics.latency_max
        assert "p99" in metrics.describe()
