"""The benchmark's four workloads, driven through public API only.

Each workload is three pure functions of ``(content_seed, seed, sizes)``:

* ``setup(seed)``   — generate the scenario(s), clone, ``repro.connect``:
  everything a pass needs that is not the operations themselves (timed
  by the runner as ``setup_s``); ``quarter=True`` prepares the first
  quarter of the stream, for the runner's counted run;
* ``run(state)``    — one *pass*: execute the operation stream once and
  return a :class:`PassResult` (the runner times this call);
* ``references(state)`` — the naive-plan answer of every distinct
  operation, for the runner's output check (never timed); ``thorough``
  adds the checks that are too slow to repeat in every run.

Why ``--seed`` draws the *order* of the operations and not the scenario
content: one generated scenario differs from the next by a coefficient
of variation of 36 % in wall time and 45 % in virtual makespan (measured
over seeds 1-10 x 3 scenarios of the serve spec), so a content-per-seed
benchmark would need dozens of scenarios per run before two seeds agree
within a regression bound.  The content is therefore drawn once from
``content_seed`` (default 7; ``--content-seed 11`` is the second-content
recipe) and every seed does the *same* work: ``adhoc_cold`` shuffles the
scenario and query order, ``rw_frag`` the read order after each write —
neither changes any virtual result.  The two serving workloads ignore
the seed: on a shared virtual clock any reordering moves the tail (a
shuffled stream moved virtual p95 by 8-15 %, a rotated one makespan by
3-6 %, different tie-breaking alone p95 by 7-14 %), and a metric that
wide could bound nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.engine import ClosedLoopFeed, JobRequest
from repro.workloads import (
    WRITE_MIX_SPEC,
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)

__all__ = ["CLIENTS", "FULL", "QUICK", "PassResult", "Sizes", "WORKLOADS", "make"]

_clock = time.perf_counter

#: Closed-loop clients of the two serving workloads.
CLIENTS = 4

#: The T1/S1 mesh scenario both serving workloads run on.
SERVE_SPEC = ScenarioSpec(
    peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
    services=2, replicas=2, queries=6,
)

#: One answer key: (scenario index, query name, writes applied so far).
Key = Tuple[int, str, int]


@dataclass(frozen=True)
class Sizes:
    """Operations per pass.  A pass is sized to ~2 s on the seed commit:
    the runner keeps, per operation, the fastest of its samples over the
    passes, and the host's slow phases last 5-20 s, so many short passes
    find a quiet moment for every operation where three long ones do not.
    Serve jobs are a multiple of 4 x the scenario's 6 queries, so the
    counted quarter is one whole round of them."""

    serve_repeat_jobs: int = 24
    serve_scan_jobs: int = 48
    adhoc_scenarios: int = 12
    rw_writes: int = 3


FULL = Sizes()
#: Test sizes: every layer still runs, the whole suite takes seconds.
QUICK = Sizes(serve_repeat_jobs=12, serve_scan_jobs=12, adhoc_scenarios=4, rw_writes=2)


@dataclass
class PassResult:
    """Everything one pass produced; the runner turns it into metrics."""

    #: Operation names in execution order (``len`` = operations attempted).
    ops: List[str] = field(default_factory=list)
    #: Operations that raised or came back failed: ``"op: ErrorType"``.
    errors: List[str] = field(default_factory=list)
    #: Per-operation wall seconds.  Interactive workloads time each call;
    #: serving workloads time the gap between successive job completions
    #: seen at the feed (``Session.serve`` is one call from outside).
    wall: List[float] = field(default_factory=list)
    #: (key, serialized answers) per read operation, for the output check.
    answers: List[Tuple[Key, Tuple[str, ...]]] = field(default_factory=list)
    #: Per-operation virtual latency (seconds on the simulated clock).
    virt_latency: List[float] = field(default_factory=list)
    virt_makespan: float = 0.0
    virt_bytes: int = 0
    #: Public report objects the per-layer counters are read from.
    reports: List[object] = field(default_factory=list)
    serving: Optional[object] = None
    write_results: List[object] = field(default_factory=list)
    sessions: List[object] = field(default_factory=list)

    def release(self) -> None:
        """Drop the report objects once read (they pin whole plan caches)."""
        self.reports, self.write_results, self.sessions = [], [], []
        self.serving = None


def _naive_answers(system, query) -> Tuple[str, ...]:
    """The reference: the unoptimized plan on a fresh clone, no plan cache."""
    session = repro.connect(system.clone(), plan_cache=None)
    return tuple(session.query(**query.kwargs(), optimize=False).answers)


def _quarter(items: Sequence) -> Sequence:
    return items[: max(1, len(items) // 4)]


def _rng(workload: str, seed: int) -> Random:
    return Random(f"bench:{workload}:{seed}")


class _TimedFeed(ClosedLoopFeed):
    """A closed-loop feed that notes the wall time of every completion."""

    def __init__(self, requests: Sequence[JobRequest]) -> None:
        super().__init__(requests, CLIENTS)
        self.completed_at: List[float] = []

    def on_complete(self, job, now):
        self.completed_at.append(_clock())
        return super().on_complete(job, now)


class Serve:
    """One scenario, one session, one ``serve`` call over a balanced stream."""

    def __init__(self, name, content_seed, jobs, items, session_kwargs) -> None:
        self.name = name
        self.content_seed = content_seed
        self.jobs = jobs
        self.spec = replace(SERVE_SPEC, items=items)
        self.session_kwargs = session_kwargs

    def setup(self, seed: int, quarter: bool = False):
        scenario = ScenarioGenerator(self.content_seed, self.spec).scenario(0)
        queries = scenario.queries
        rounds = self.jobs // len(queries)
        if quarter:
            rounds = max(1, rounds // 4)
        # round-robin: every query appears ``rounds`` times, in a fixed order
        stream = queries * rounds
        requests = [
            JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
            for k, q in enumerate(stream)
        ]
        session = repro.connect(scenario.system, **self.session_kwargs)
        return scenario, requests, session

    def run(self, state) -> PassResult:
        _scenario, requests, session = state
        result = PassResult(ops=[r.name for r in requests], sessions=[session])
        feed = _TimedFeed(requests)
        start = _clock()
        try:
            report = session.serve(feed=feed, seed=self.content_seed)
        except Exception as exc:  # the whole call failed: every job did
            result.errors = [f"{name}: {type(exc).__name__}" for name in result.ops]
            return result
        marks = [start] + feed.completed_at
        result.wall = [b - a for a, b in zip(marks, marks[1:])]
        result.serving = report
        for job in report.jobs:
            if job.status != "done":
                result.errors.append(f"{job.name}: {type(job.error).__name__}")
                continue
            result.answers.append(
                ((0, job.name.split("#")[0], 0), tuple(job.answers))
            )
            result.virt_latency.append(job.latency)
            result.reports.append(job.report)
        result.virt_makespan = report.metrics.makespan
        result.virt_bytes = report.network["bytes"]
        return result

    def references(self, state, thorough: bool = False) -> Dict[Key, Tuple[str, ...]]:
        scenario = state[0]
        return {
            (0, q.name, 0): _naive_answers(scenario.system, q)
            for q in scenario.queries
        }


def _timed_query(session, query, key: Key, result: PassResult) -> None:
    """One interactive read: time it, keep its answers and virtual cost."""
    result.ops.append(f"{key[0]}:{query.name}")
    start = _clock()
    try:
        report = session.query(**query.kwargs())
    except Exception as exc:
        result.wall.append(_clock() - start)
        result.errors.append(f"{result.ops[-1]}: {type(exc).__name__}")
        return
    result.wall.append(_clock() - start)
    result.answers.append((key, tuple(report.answers)))
    result.virt_latency.append(report.completed_at)
    result.virt_makespan += report.completed_at
    result.virt_bytes += report.network["bytes"]
    result.reports.append(report)


class AdhocCold:
    """Every (system, query) pair exactly once, on a fresh session each."""

    name = "adhoc_cold"

    def __init__(self, content_seed, scenarios) -> None:
        self.content_seed = content_seed
        self.count = scenarios

    def setup(self, seed: int, quarter: bool = False):
        generator = ScenarioGenerator(self.content_seed, ScenarioSpec())
        scenarios = [generator.scenario(index) for index in range(self.count)]
        if quarter:
            scenarios = _quarter(scenarios)
        rng = _rng(self.name, seed)
        rng.shuffle(scenarios)
        return [
            (scenario, rng.sample(scenario.queries, len(scenario.queries)))
            for scenario in scenarios
        ]

    def run(self, state) -> PassResult:
        result = PassResult()
        for scenario, queries in state:
            session = repro.connect(scenario.system)
            result.sessions.append(session)
            for query in queries:
                _timed_query(session, query, (scenario.index, query.name, 0), result)
        return result

    def references(self, state, thorough: bool = False) -> Dict[Key, Tuple[str, ...]]:
        return {
            (scenario.index, q.name, 0): _naive_answers(scenario.system, q)
            for scenario, _order in state
            for q in scenario.queries
        }


class RwFrag:
    """One long-lived session: each write, then every query again."""

    name = "rw_frag"
    #: Scenario 1, not 0: under content seed 7 scenario 0 writes only to
    #: unfragmented documents and its one ``@dist`` read is an equality
    #: join, so neither fragment routing nor pruning would ever run.
    #: Scenario 1 writes to the fragmented document and filters over it.
    INDEX = 1

    def __init__(self, content_seed, writes) -> None:
        self.content_seed = content_seed
        self.spec = replace(WRITE_MIX_SPEC, items=60, writes=writes)

    def setup(self, seed: int, quarter: bool = False):
        scenario = ScenarioGenerator(self.content_seed, self.spec).scenario(self.INDEX)
        rng = _rng(self.name, seed)
        steps = [
            (write.name, write.op(), rng.sample(scenario.queries, len(scenario.queries)))
            for write in (_quarter(scenario.writes) if quarter else scenario.writes)
        ]
        return scenario, steps, repro.connect(scenario.system.clone())

    def run(self, state) -> PassResult:
        _scenario, steps, session = state
        result = PassResult(sessions=[session])
        for version, (name, op, queries) in enumerate(steps, start=1):
            result.ops.append(name)
            start = _clock()
            try:
                written = session.write(op)
            except Exception as exc:
                result.wall.append(_clock() - start)
                result.errors.append(f"{name}: {type(exc).__name__}")
            else:
                result.wall.append(_clock() - start)
                result.write_results.append(written)
                result.virt_latency.append(written.settled_at)
                result.virt_makespan += written.settled_at
            for query in queries:
                _timed_query(session, query, (0, query.name, version), result)
        # write deltas are charged on the live system, reads on clones
        result.virt_bytes += session.system.network.stats.bytes
        return result

    def references(self, state, thorough: bool = False) -> Dict[Key, Tuple[str, ...]]:
        scenario, steps, _session = state
        system = scenario.system.clone()
        writer = repro.connect(system)
        refs: Dict[Key, Tuple[str, ...]] = {}
        for version, (_name, op, _queries) in enumerate(steps, start=1):
            writer.write(op)
            for query in scenario.queries:
                refs[(0, query.name, version)] = _naive_answers(system, query)
        if not thorough:
            return refs
        # the incremental write path itself is checked against the
        # rebuild-from-scratch baseline: after the last write both must
        # agree (~3 s of optimized queries, hence not in every run)
        harness = DifferentialHarness(strategies=("greedy", "beam"), repro_dir=None)
        for check in harness.check_writes_scenario(scenario):
            key = (0, check.query.name, len(steps))
            if not check.ok or tuple(check.baseline_answers) != refs[key]:
                refs[key] = ("<rebuild baseline disagrees>",)
        return refs


#: name -> one-line reason, in reporting order (mirrored in BENCHMARK.json).
WORKLOADS = {
    "serve_repeat": "6 distinct queries repeated in one default Session.serve: "
    "maximal sharing, tiny documents, plan search is ~97% of wall",
    "serve_scan": "same stream on 5x larger documents with the analytic cost "
    "model: evaluation-bound, planning under a quarter of wall",
    "adhoc_cold": "every (system, query) pair seen once on a fresh session: "
    "zero reuse, exposes per-query fixed costs; the cache-bypass workload",
    "rw_frag": "fragmented + replicated documents, a write then all reads, "
    "one long-lived session: epoch invalidation and re-planning",
}


def make(name: str, sizes: Sizes = FULL, content_seed: int = 7):
    """The workload object for ``name``."""
    if name == "serve_repeat":
        return Serve(name, content_seed, sizes.serve_repeat_jobs, 20, {})
    if name == "serve_scan":
        return Serve(
            name, content_seed, sizes.serve_scan_jobs, 100, {"cost_model": "analytic"}
        )
    if name == "adhoc_cold":
        return AdhocCold(content_seed, sizes.adhoc_scenarios)
    if name == "rw_frag":
        return RwFrag(content_seed, sizes.rw_writes)
    raise ValueError(f"unknown workload {name!r}; pick one of {', '.join(WORKLOADS)}")
