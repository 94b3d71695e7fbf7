"""Per-layer tracing from the outside: wrap public callables, record spans.

Nothing in ``src/`` knows about this file.  :class:`Tracer` replaces each
callable in :data:`TARGETS` with a timing wrapper — on the class for a
method, and in *every* ``repro`` module namespace that holds a reference
for a function (``from x import y`` copies the reference, so patching
the defining module alone would miss those call sites) — records one
in-memory span ``(name, start, end, parent, op)`` per call, and puts the
originals back on :meth:`Tracer.restore`.

A span's *self time* is its duration minus the durations of its direct
child spans, so self times over all spans sum to the duration of the
top-level spans: the layers add up to the total.  :func:`layer_metrics`
folds spans and the run's public report objects into the per-layer
metrics declared in ``BENCHMARK.json``; metric names ending ``_s`` are
wall self-seconds, ``_calls`` exact call counts.

Traced runs are for attribution only.  End-to-end metrics come from
untraced runs; ``trace.overhead_ratio`` is the price of the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_UNITS", "TARGETS", "Tracer", "layer_metrics"]

_clock = time.perf_counter


def _job_name(args, kwargs):
    return args[1].name  # Session.plan_job(self, request)


def _query_name(args, kwargs):
    return kwargs.get("name") or (args[4] if len(args) > 4 else "query")


def _write_name(args, kwargs):
    return "write"


def _count_rewrites(tracer, args, result):
    tracer.counts["rewrites_proposed"] += len(result)


def _count_prune(tracer, args, result):
    tracer.counts["prune_checks"] += 1
    if not result:
        tracer.counts["pruned"] += 1


def _note_source(tracer, args, result):
    tracer.parsed_sources.add(args[0])


#: (span name, module, qualified name, options).  ``subclasses`` wraps the
#: attribute on the class and on every subclass that overrides it;
#: ``outermost`` records only the outermost of nested calls of the same
#: span, so a recursive callable (``Element.copy`` visits ~10^6 nodes a
#: pass) pays one set lookup per node instead of one span.  (Putting the
#: original back on the class while a span is open was tried and is
#: slower: every class mutation de-specializes the interpreter's cached
#: method lookups);
#: ``op`` names the operation every later span belongs to; ``observe``
#: counts something about the call's result.
TARGETS: List[Tuple[str, str, str, dict]] = [
    ("session.compile", "repro.session", "Session.compile", {}),
    ("session.plan", "repro.session", "Session.plan", {}),
    ("session.plan_job", "repro.session", "Session.plan_job", {"op": _job_name}),
    ("session.query", "repro.session", "Session.query", {"op": _query_name}),
    ("session.write", "repro.session", "Session.write", {"op": _write_name}),
    ("core.optimizer.search", "repro.core.optimizer", "Optimizer.optimize_with", {}),
    ("core.strategies.expand", "repro.core.strategies", "SearchSpace.expand", {}),
    ("core.strategies.score", "repro.core.strategies", "SearchSpace.score", {}),
    ("core.planspace.fingerprint", "repro.core.planspace", "plan_fingerprint", {}),
    ("core.costmodel.score", "repro.core.costmodel", "OracleCostModel.score", {}),
    ("core.costmodel.score", "repro.core.costmodel", "AnalyticCostModel.score", {}),
    ("core.costmodel.score", "repro.core.costmodel", "HybridCostModel.score", {}),
    ("core.costmodel.score", "repro.core.costmodel", "HybridCostModel.check", {}),
    ("core.cost.measure", "repro.core.cost", "measure", {}),
    ("core.cost.estimate", "repro.core.cost", "CostEstimator.estimate", {}),
    ("core.rules.apply", "repro.core.rules", "RewriteRule.apply",
     {"subclasses": True, "observe": _count_rewrites}),
    ("core.evaluator.eval", "repro.core.evaluator", "ExpressionEvaluator.eval",
     {"outermost": True}),
    ("core.serialize.fingerprint", "repro.core.serialize", "expression_fingerprint", {}),
    ("xquery.parse", "repro.xquery.parser", "parse_query", {"observe": _note_source}),
    ("xquery.decompose", "repro.xquery.decompose", "push_selection", {}),
    ("xquery.run", "repro.xquery", "Query.run", {}),
    ("xmlcore.parse", "repro.xmlcore.parser", "parse", {}),
    ("xmlcore.serialize", "repro.xmlcore.serializer", "serialize", {}),
    ("xmlcore.copy", "repro.xmlcore.model", "Element.copy", {"outermost": True}),
    ("xmlcore.copy", "repro.xmlcore.model", "Element.copy_without_ids",
     {"outermost": True}),
    ("xmlcore.fingerprint", "repro.xmlcore.model", "Element.content_fingerprint",
     {"outermost": True}),
    ("net.deliver", "repro.net.network", "Network.deliver", {}),
    ("peers.clone", "repro.peers.system", "AXMLSystem.clone", {}),
    ("peers.invoke", "repro.peers.service", "Service.invoke", {"subclasses": True}),
    ("engine.drain", "repro.engine.scheduler", "Scheduler.drain", {}),
    ("dist.fragment", "repro.dist.fragmenter", "Fragmenter.fragment", {}),
    ("dist.prune_check", "repro.dist.pruning", "fragment_can_match",
     {"observe": _count_prune}),
    ("writes.apply", "repro.writes.writer", "DocumentWriter.apply", {}),
]

#: per-layer metric -> (span name, "self" | "inclusive" | "calls").
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "session.compile_s": ("session.compile", "self"),
    "session.plan_s": ("session.plan", "self"),
    "session.plan_job_s": ("session.plan_job", "inclusive"),
    "session.query_calls": ("session.query", "calls"),
    "session.write_calls": ("session.write", "calls"),
    "core.optimizer.search_s": ("core.optimizer.search", "self"),
    "core.optimizer.search_calls": ("core.optimizer.search", "calls"),
    "core.strategies.expand_s": ("core.strategies.expand", "self"),
    "core.strategies.expand_calls": ("core.strategies.expand", "calls"),
    "core.strategies.score_s": ("core.strategies.score", "self"),
    "core.strategies.score_calls": ("core.strategies.score", "calls"),
    "core.planspace.fingerprint_s": ("core.planspace.fingerprint", "self"),
    "core.costmodel.score_s": ("core.costmodel.score", "self"),
    "core.costmodel.score_calls": ("core.costmodel.score", "calls"),
    "core.cost.measure_s": ("core.cost.measure", "self"),
    "core.cost.measure_calls": ("core.cost.measure", "calls"),
    "core.cost.estimate_s": ("core.cost.estimate", "self"),
    "core.cost.estimate_calls": ("core.cost.estimate", "calls"),
    "core.rules.apply_s": ("core.rules.apply", "self"),
    "core.rules.apply_calls": ("core.rules.apply", "calls"),
    "core.evaluator.eval_s": ("core.evaluator.eval", "self"),
    "core.evaluator.eval_calls": ("core.evaluator.eval", "calls"),
    "core.serialize.fingerprint_s": ("core.serialize.fingerprint", "self"),
    "core.serialize.fingerprint_calls": ("core.serialize.fingerprint", "calls"),
    "xquery.parse_s": ("xquery.parse", "self"),
    "xquery.parse_calls": ("xquery.parse", "calls"),
    "xquery.decompose_s": ("xquery.decompose", "self"),
    "xquery.decompose_calls": ("xquery.decompose", "calls"),
    "xquery.run_s": ("xquery.run", "self"),
    "xquery.run_calls": ("xquery.run", "calls"),
    "xmlcore.parse_s": ("xmlcore.parse", "self"),
    "xmlcore.serialize_s": ("xmlcore.serialize", "self"),
    "xmlcore.serialize_calls": ("xmlcore.serialize", "calls"),
    "xmlcore.copy_s": ("xmlcore.copy", "self"),
    "xmlcore.copy_calls": ("xmlcore.copy", "calls"),
    "xmlcore.fingerprint_s": ("xmlcore.fingerprint", "self"),
    "net.deliver_s": ("net.deliver", "self"),
    "net.deliver_calls": ("net.deliver", "calls"),
    "peers.clone_s": ("peers.clone", "self"),
    "peers.clone_calls": ("peers.clone", "calls"),
    "peers.invoke_s": ("peers.invoke", "self"),
    "peers.invoke_calls": ("peers.invoke", "calls"),
    "engine.drain_self_s": ("engine.drain", "self"),
    "dist.fragment_s": ("dist.fragment", "self"),
    "writes.apply_s": ("writes.apply", "self"),
    "writes.apply_calls": ("writes.apply", "calls"),
}

#: per-layer metrics computed from counters and public report objects.
_COUNTER_UNITS: Dict[str, str] = {
    "core.strategies.explored_per_op": "plans",
    "core.strategies.plan_gain": "ratio",
    "core.planspace.cost_hit_rate": "ratio",
    "core.planspace.expand_hit_rate": "ratio",
    "core.planspace.estimator_hit_rate": "ratio",
    "core.planspace.plans_deduped": "count",
    "core.planspace.distinct_plans": "count",
    "core.rules.rewrites_proposed": "count",
    "core.rules.errors": "count",
    "xquery.reparse_ratio": "ratio",
    "net.messages": "count",
    "net.bytes": "bytes",
    "engine.events": "count",
    "engine.virt_wait_mean_ms": "virt_ms",
    "engine.virt_utilization_mean": "ratio",
    "dist.prune_checks": "count",
    "dist.pruned_share": "ratio",
    "writes.virt_delta_bytes": "bytes",
    "writes.epoch_bumps": "count",
    "trace.coverage": "ratio",
}

#: filled in by the runner, which alone has the untraced passes to compare
#: with: traced / typical untraced wall, and whole-operation wall latency.
RUNNER_UNITS: Dict[str, str] = {
    "trace.overhead_ratio": "ratio",
    "wall_op_ms_p50": "ms",
    "wall_op_ms_p90": "ms",
}

_KIND_UNITS = {"self": "s", "inclusive": "s", "calls": "calls"}

#: Every per-layer metric this module emits -> its unit.
LAYER_UNITS: Dict[str, str] = {
    **{name: _KIND_UNITS[kind] for name, (_span, kind) in SPAN_METRICS.items()},
    **_COUNTER_UNITS,
    **RUNNER_UNITS,
}


def _with_subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


class Tracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self) -> None:
        # one span = one index into five parallel lists: no per-span
        # container, so recording adds nothing for the garbage collector
        # to walk (100k small lists measurably slow the traced pass)
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: Index of the enclosing span, -1 at top level.
        self.parents: List[int] = []
        #: Operation (job / query name) each span belongs to.
        self.ops: List[Optional[str]] = []
        self.counts: Counter = Counter()
        self.parsed_sources: set = set()
        #: Operation the spans being recorded now belong to.
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._open: set = set()
        #: (namespace, attribute, original) for :meth:`restore`.
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for span, module_name, qualname, options in TARGETS:
            options = dict(options)
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if not owner_name:
                self._patch(span, getattr(module, attr), modules, options)
                continue
            owner = getattr(module, owner_name)
            classes = _with_subclasses(owner) if options.pop("subclasses", False) else [owner]
            for cls in classes:
                if attr in vars(cls):
                    self._patch(span, vars(cls)[attr], [cls], options)

    def _patch(self, span: str, original: Callable, namespaces, options: dict) -> None:
        """Replace every reference to ``original`` held by ``namespaces``:
        ``from x import y`` copies in other modules, and aliases in a class
        body (``__call__ = run``), hold the same object."""
        wrapper = self._wrap(span, original, **options)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._patched.append((namespace, attr, original))

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _wrap(self, span, original, outermost=False, op=None, observe=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack, open_spans = self.parents, self.ops, self._stack, self._open
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if outermost:
                if span in open_spans:
                    return original(*args, **kwargs)
                open_spans.add(span)
            if op is not None:
                tracer.op = op(args, kwargs)
            index = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
                if outermost:
                    open_spans.discard(span)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- reading -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """span name -> {"self": s, "inclusive": s, "calls": n}."""
        totals: Dict[str, Dict[str, float]] = {}
        for name, start, end, own in zip(
            self.names, self.starts, self.ends, self.self_times()
        ):
            entry = totals.setdefault(name, {"self": 0.0, "inclusive": 0.0, "calls": 0})
            entry["self"] += own
            entry["inclusive"] += end - start
            entry["calls"] += 1
        return totals

    def top_level_seconds(self, since: float) -> float:
        """Wall covered by parentless spans starting at or after ``since``."""
        return sum(
            end - start
            for parent, start, end in zip(self.parents, self.starts, self.ends)
            if parent < 0 and start >= since
        )

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, own in zip(
                self.names, self.starts, self.ends, self.parents, self.ops,
                self.self_times(),
            ):
                out.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                    "self": own,
                }))
                out.write("\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, result, run_start: float, run_wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, :data:`RUNNER_UNITS` aside
    (``result`` is the pass's :class:`workloads.PassResult`)."""
    totals = tracer.totals()
    metrics: Dict[str, float] = {
        name: totals.get(span, {}).get(kind, 0)
        for name, (span, kind) in SPAN_METRICS.items()
    }

    reports = result.reports
    cache = Counter()
    for report in reports:
        if report.plan_cache is not None:
            cache.update(report.plan_cache.as_dict())
    metrics["core.strategies.explored_per_op"] = _ratio(
        sum(r.explored for r in reports), len(reports)
    )
    metrics["core.strategies.plan_gain"] = _ratio(
        sum(r.original_cost.scalar() for r in reports),
        sum(r.best_cost.scalar() for r in reports),
    )
    for table in ("cost", "expand", "estimator"):
        hits, misses = cache[f"{table}_hits"], cache[f"{table}_misses"]
        metrics[f"core.planspace.{table}_hit_rate"] = _ratio(hits, hits + misses)
    metrics["core.planspace.plans_deduped"] = cache["plans_deduped"]
    metrics["core.planspace.distinct_plans"] = sum(
        s.plan_cache.distinct_plans for s in result.sessions if s.plan_cache is not None
    )
    metrics["core.rules.rewrites_proposed"] = tracer.counts["rewrites_proposed"]
    metrics["core.rules.errors"] = sum(
        counter.value
        for s in result.sessions
        for counter in s.optimizer.registry.counters("rule_errors")
    )
    metrics["xquery.reparse_ratio"] = _ratio(
        metrics["xquery.parse_calls"], len(tracer.parsed_sources)
    )

    serving = result.serving
    if serving is not None:
        metrics["net.messages"] = serving.network["messages"]
        metrics["engine.events"] = len(serving.events)
        metrics["engine.virt_wait_mean_ms"] = serving.metrics.wait_mean * 1000.0
        utilization = serving.metrics.utilization.values()
        metrics["engine.virt_utilization_mean"] = _ratio(sum(utilization), len(utilization))
    else:
        metrics["net.messages"] = sum(r.network["messages"] for r in reports) + sum(
            s.system.network.stats.messages for s in result.sessions
        )
        metrics["engine.events"] = 0
        metrics["engine.virt_wait_mean_ms"] = 0.0
        metrics["engine.virt_utilization_mean"] = 0.0
    metrics["net.bytes"] = result.virt_bytes
    metrics["dist.prune_checks"] = tracer.counts["prune_checks"]
    metrics["dist.pruned_share"] = _ratio(
        tracer.counts["pruned"], tracer.counts["prune_checks"]
    )
    metrics["writes.virt_delta_bytes"] = (
        sum(s.system.network.stats.bytes for s in result.sessions)
        if result.write_results else 0
    )
    metrics["writes.epoch_bumps"] = sum(len(w.touched) for w in result.write_results)
    metrics["trace.coverage"] = _ratio(tracer.top_level_seconds(run_start), run_wall)
    return metrics
