"""Differential conformance: strategies cross-check each other at scale.

Every registered optimizer strategy searches the *same* rewrite space, so
for any query all of them must produce plans with canonically-equal
answers — the optimizer and evaluator become their own test oracle (in
the spirit of implementation-validation work where independent
computation paths are compared, no hand-written expected outputs
needed).  :class:`DifferentialHarness` runs each generated query through
:class:`~repro.session.Session` under every strategy and checks:

* **answer agreement** — the answer forests, compared as multisets of
  canonical forms (:func:`repro.xmlcore.canon.canonical_form`, the
  paper's unordered tree model);
* **cost monotonicity** — no strategy ever returns a plan it scored
  worse than the original (``best_cost <= original_cost``), i.e. the
  improvement ratio is never below 1.

Disagreements become :class:`Mismatch` records: the harness first
*minimizes* the scenario (shrinking document sizes while the mismatch
reproduces) and then writes a standalone repro script that rebuilds the
exact failing scenario from its seed — ``python <script>`` exits 1 while
the bug exists and 0 once fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.cost import Cost, CostEstimator, measure
from ..core.planspace import PlanCache
from ..core.strategies import improvement_ratio
from ..errors import (
    DifferentialMismatchError,
    FaultError,
    FragmentUnavailableError,
    GenericResolutionError,
    PeerDownError,
    WorkloadError,
)
from ..faults import FaultActor, FaultPlan, FaultSpec, RetryPolicy
from ..session import Session
from ..xmlcore.canon import canonical_form
from .generator import GeneratedQuery, Scenario, ScenarioGenerator, ScenarioSpec

__all__ = [
    "StrategyOutcome",
    "QueryDifferential",
    "ScenarioReport",
    "HarnessReport",
    "Mismatch",
    "ParityResult",
    "ParitySweepReport",
    "FaultCheckResult",
    "FaultSweepReport",
    "DifferentialHarness",
    "DEFAULT_STRATEGIES",
    "DEFAULT_COST_MODELS",
]

DEFAULT_STRATEGIES: Tuple[str, ...] = ("beam", "greedy", "exhaustive")

#: Cost models the parity sweep cross-checks; the first is the reference
#: (the oracle — its answers define correctness for the others).
DEFAULT_COST_MODELS: Tuple[str, ...] = ("oracle", "analytic", "hybrid")

#: Default per-strategy options: exhaustive is bounded tighter than its
#: factory default so 50-scenario sweeps stay affordable.
DEFAULT_STRATEGY_OPTIONS: Dict[str, Dict[str, object]] = {
    "exhaustive": {"depth": 3, "max_plans": 256},
}

_COST_EPS = 1e-9


@dataclass
class StrategyOutcome:
    """One strategy's verdict on one query."""

    strategy: str
    #: Canonical multiset of the answer forest (sorted reprs).
    answers: Tuple[str, ...]
    original_cost: Cost
    best_cost: Cost
    explored: int

    @property
    def improvement(self) -> float:
        """See :func:`repro.core.strategies.improvement_ratio`."""
        return improvement_ratio(self.original_cost, self.best_cost)

    @property
    def monotonic(self) -> bool:
        """The chosen plan is never scored worse than the original."""
        return self.best_cost.scalar() <= self.original_cost.scalar() + _COST_EPS


@dataclass
class Mismatch:
    """A differential failure, minimized and reproducible from its seed.

    ``spec``, ``query`` and ``answers`` all describe the *same* scenario:
    when minimization shrank the original, the disagreeing strategies
    were re-run on the shrunk scenario and those answers recorded.
    """

    seed: int
    index: int
    spec: ScenarioSpec
    query: GeneratedQuery
    #: strategy -> canonical answers on the recorded (possibly shrunk)
    #: scenario, for the disagreeing strategies at least.
    answers: Dict[str, Tuple[str, ...]]
    #: The two strategies exhibiting the disagreement.
    strategies: Tuple[str, str]
    #: Per-strategy factory options the harness searched with — the repro
    #: script re-applies them so bounded searches reproduce faithfully.
    strategy_options: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: repr of the harness's pick policy when one was set (policies are
    #: not serializable; the repro script warns it must be re-applied).
    pick_policy_note: Optional[str] = None
    repro_path: Optional[str] = None

    def describe(self) -> str:
        a, b = self.strategies
        lines = [
            f"mismatch on query {self.query.name!r} ({self.query.shape}) of "
            f"scenario seed={self.seed} index={self.index}: "
            f"{a!r} vs {b!r} disagree",
            f"  {a}: {len(self.answers[a])} answers",
            f"  {b}: {len(self.answers[b])} answers",
        ]
        if self.repro_path:
            lines.append(f"  repro: {self.repro_path}")
        return "\n".join(lines)

    def repro_script(self) -> str:
        """Standalone script reproducing exactly this disagreement."""
        strategies = tuple(sorted(self.answers))
        policy_warning = ""
        if self.pick_policy_note:
            policy_warning = (
                f'\nprint("WARNING: the harness ran with pick_policy='
                f'{self.pick_policy_note}; re-apply it for a faithful repro")\n'
            )
        return _REPRO_TEMPLATE.format(
            query=self.query.name,
            shape=self.query.shape,
            pair=" vs ".join(self.strategies),
            seed=self.seed,
            index=self.index,
            spec_kwargs=repr(self.spec.to_kwargs()),
            strategies=strategies,
            strategy_options=repr(self.strategy_options),
            policy_warning=policy_warning,
        )


_REPRO_TEMPLATE = '''#!/usr/bin/env python3
"""Auto-generated differential repro (minimized).

Optimizer strategies disagreed on the answers of generated query
{query!r} (shape {shape!r}): {pair}.  This script rebuilds the exact
scenario from its seed and re-runs the query under every strategy;
it exits 1 while the disagreement reproduces and 0 once it is fixed.
"""

import sys

from repro.session import Session
from repro.workloads import ScenarioGenerator, ScenarioSpec
from repro.xmlcore.canon import canonical_form

SEED = {seed}
INDEX = {index}
SPEC = ScenarioSpec(**{spec_kwargs})
QUERY = {query!r}
STRATEGIES = {strategies!r}
# search bounds the harness used — without them a disagreement that only
# shows under a bounded search would falsely "not reproduce"
STRATEGY_OPTIONS = {strategy_options}
{policy_warning}
scenario = ScenarioGenerator(seed=SEED).scenario(INDEX, spec=SPEC)
query = scenario.query(QUERY)
answers = {{}}
for strategy in STRATEGIES:
    session = Session(
        scenario.system,
        strategy=strategy,
        strategy_options=STRATEGY_OPTIONS.get(strategy),
    )
    report = session.query(**query.kwargs())
    answers[strategy] = sorted(repr(canonical_form(i)) for i in report.items)
    print(f"{{strategy:12s}} {{len(answers[strategy])}} answers")

reference = answers[STRATEGIES[0]]
if all(candidate == reference for candidate in answers.values()):
    print("all strategies agree - mismatch no longer reproduces")
    sys.exit(0)
for strategy, candidate in answers.items():
    if candidate != reference:
        print(f"MISMATCH: {{STRATEGIES[0]}} vs {{strategy}}")
        print(f"  {{STRATEGIES[0]}}: {{reference}}")
        print(f"  {{strategy}}: {{candidate}}")
sys.exit(1)
'''


@dataclass
class QueryDifferential:
    """All strategies' outcomes for one query, plus the verdicts."""

    query: GeneratedQuery
    outcomes: Dict[str, StrategyOutcome]
    mismatch: Optional[Mismatch] = None

    @property
    def agreed(self) -> bool:
        return self.mismatch is None

    @property
    def monotonic(self) -> bool:
        return all(outcome.monotonic for outcome in self.outcomes.values())

    @property
    def ok(self) -> bool:
        return self.agreed and self.monotonic


@dataclass
class ScenarioReport:
    """Differential results for every query of one scenario."""

    scenario: Scenario
    results: List[QueryDifferential] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def mismatches(self) -> List[Mismatch]:
        return [r.mismatch for r in self.results if r.mismatch is not None]

    def describe(self) -> str:
        verdict = "ok" if self.ok else "MISMATCH"
        explored = sum(
            outcome.explored
            for result in self.results
            for outcome in result.outcomes.values()
        )
        return (
            f"{self.scenario.describe()}: {verdict} "
            f"({len(self.results)} queries, {explored} plans scored)"
        )


@dataclass
class HarnessReport:
    """Aggregate over a sweep of scenarios."""

    reports: List[ScenarioReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def mismatches(self) -> List[Mismatch]:
        return [m for report in self.reports for m in report.mismatches]

    @property
    def queries_checked(self) -> int:
        return sum(len(report.results) for report in self.reports)

    @property
    def plans_explored(self) -> int:
        return sum(
            outcome.explored
            for report in self.reports
            for result in report.results
            for outcome in result.outcomes.values()
        )

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        lines = [
            f"differential sweep: {len(self.reports)} scenarios, "
            f"{self.queries_checked} queries, {self.plans_explored} plans "
            f"scored -> {verdict}"
        ]
        for mismatch in self.mismatches:
            lines.append(mismatch.describe())
        return "\n".join(lines)


@dataclass
class ParityResult:
    """One query's serialized answers, per variant, against a byte baseline.

    ``baseline_answers`` are *serialized* answers (byte form, order
    kept) from the reference run; ``answers`` maps each variant — a
    strategy, or a cost model — to what it serialized for the same
    query.  The contract is byte equality, stronger than the
    canonical-multiset agreement of the plain differential check; what
    the baseline *is* (the whole document, a from-scratch rebuild, the
    oracle cost model) is the business of the sweep that built it.
    """

    query: GeneratedQuery
    baseline_answers: Tuple[str, ...]
    answers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: The strategy the cell searched with, when the variants are cost
    #: models rather than strategies.
    strategy: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.disagreeing

    @property
    def disagreeing(self) -> List[str]:
        return sorted(
            name for name, candidate in self.answers.items()
            if candidate != self.baseline_answers
        )


@dataclass
class ParitySweepReport:
    """Aggregate byte-equality verdict over one kind of parity sweep.

    The cost-model sweep adds a second invariant: every recorded
    estimate/oracle ratio stays within ``max_ratio`` in *both*
    directions.  A wildly-off estimate may still pick the right plan by
    luck; the bound catches the model drifting even when the ranking
    survives.
    """

    #: "fragmented", "write" or "cost-model".
    kind: str
    #: What every answer was compared against, for :meth:`describe`.
    baseline: str
    scenarios: int = 0
    results: List[ParityResult] = field(default_factory=list)
    writes_applied: int = 0
    max_ratio: float = 100.0
    #: Per-query scalar ratio (analytic estimate / oracle measurement)
    #: of the naive plan, 1.0 meaning a perfect estimate.
    ratios: List[float] = field(default_factory=list)

    @property
    def answers_ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def ratios_ok(self) -> bool:
        return all(
            1.0 / self.max_ratio <= ratio <= self.max_ratio
            for ratio in self.ratios
        )

    @property
    def ok(self) -> bool:
        return self.answers_ok and self.ratios_ok

    @property
    def queries_checked(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[ParityResult]:
        return [result for result in self.results if not result.ok]

    def describe(self) -> str:
        verdict = "ok" if self.ok else (
            f"{len(self.failures)} FAILURES"
            if not self.answers_ok else "estimate ratio out of bounds"
        )
        extras = ""
        if self.writes_applied:
            extras += f", {self.writes_applied} writes applied"
        if self.ratios:
            worst = max(
                (max(r, 1.0 / r) for r in self.ratios if r > 0), default=1.0
            )
            extras += f", worst estimate ratio {worst:.2f}x"
        lines = [
            f"{self.kind} sweep: {self.scenarios} scenarios, "
            f"{self.queries_checked} queries{extras} -> {verdict}"
        ]
        lines.extend(f"  {self._divergence(f)}" for f in self.failures)
        return "\n".join(lines)

    def _divergence(self, failure: ParityResult) -> str:
        cell = f" [{failure.strategy}]" if failure.strategy else ""
        return (
            f"query {failure.query.name!r} ({failure.query.shape}){cell}: "
            f"{', '.join(failure.disagreeing)} diverged from {self.baseline}"
        )

    def raise_on_failure(self, scenario: Scenario) -> None:
        """Raise :class:`DifferentialMismatchError` on the first failure."""
        if not self.answers_ok:
            raise DifferentialMismatchError(
                f"{self.kind} sweep, scenario seed={scenario.seed} "
                f"index={scenario.index}: {self._divergence(self.failures[0])}"
            )


#: Verdicts that satisfy the three-way fault invariant: a faulted run may
#: match the fault-free answer exactly, degrade to a provable subset of
#: it (with a :class:`~repro.faults.PartialAnswer` attached), or fail
#: with a *typed* error — never anything else.
FAULT_OK_VERDICTS = frozenset({"identical", "partial-subset", "typed-error"})


def _canonical_counts(items) -> Dict[str, int]:
    """The canonical multiset of an answer forest, as repr -> count."""
    counts: Dict[str, int] = {}
    for item in items:
        key = repr(canonical_form(item))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _is_subset(counts: Dict[str, int], reference: Dict[str, int]) -> bool:
    return all(
        count <= reference.get(key, 0) for key, count in counts.items()
    )


def _classify_fault_job(job, reference, fault_seed, strategy):
    """One faulted job against its fault-free reference answer."""
    from ..engine.jobs import DONE, FAILED

    def verdict(name, detail=""):
        return FaultCheckResult(
            job=job.name,
            fault_seed=fault_seed,
            strategy=strategy,
            verdict=name,
            detail=detail,
        )

    if reference is None:
        return verdict(
            "baseline-missing",
            "fault-free run produced no answer to compare against",
        )
    if job.status == FAILED:
        if isinstance(job.error, FAULT_TYPED_ERRORS):
            return verdict("typed-error", type(job.error).__name__)
        return verdict(
            "untyped-error", f"{type(job.error).__name__}: {job.error}"
        )
    if job.status != DONE or job.report is None:
        return verdict("unsettled", f"status {job.status!r} after drain")
    counts = _canonical_counts(job.report.items)
    if counts == reference:
        return verdict("identical")
    partial = getattr(job, "partial", None)
    if partial is not None and _is_subset(counts, reference):
        lost = len(getattr(partial, "lost", ()) or ())
        return verdict(
            "partial-subset",
            f"{sum(counts.values())}/{sum(reference.values())} "
            f"answers, {lost} parts lost",
        )
    if partial is not None:
        return verdict(
            "partial-superset",
            "partial answer contains items the fault-free run lacks",
        )
    return verdict(
        "silent-mismatch",
        f"{sum(counts.values())} answers vs "
        f"{sum(reference.values())} fault-free, no partial marker",
    )

#: Exception types a faulted job is *allowed* to fail with.  Anything
#: outside this taxonomy (a ``KeyError`` escaping the evaluator, say) is
#: an invariant violation, not graceful degradation.
FAULT_TYPED_ERRORS = (
    FaultError,
    FragmentUnavailableError,
    GenericResolutionError,
    PeerDownError,
)


@dataclass
class FaultCheckResult:
    """One served job of one (fault seed, strategy) cell, classified.

    ``verdict`` is one of:

    * ``identical`` — the answer's canonical multiset equals the
      fault-free run's (retries healed everything);
    * ``partial-subset`` — the job degraded to a
      :class:`~repro.faults.PartialAnswer` and its answer is a strict
      canonical-multiset subset of the fault-free answer;
    * ``typed-error`` — the job failed with an error from the
      :data:`FAULT_TYPED_ERRORS` taxonomy;
    * anything else (``silent-mismatch``, ``partial-superset``,
      ``untyped-error``, ``unsettled``, ``baseline-missing``) — an
      invariant violation.
    """

    job: str
    fault_seed: int
    strategy: str
    verdict: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in FAULT_OK_VERDICTS

    def describe(self) -> str:
        line = (
            f"job {self.job!r} [seed={self.fault_seed} {self.strategy}]: "
            f"{self.verdict}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class FaultSweepReport:
    """Aggregate three-way-invariant verdict over a chaos sweep."""

    scenarios: int = 0
    #: (scenario x fault seed x strategy) faulted serving runs.
    cells: int = 0
    results: List[FaultCheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violations(self) -> List[FaultCheckResult]:
        return [result for result in self.results if not result.ok]

    @property
    def verdicts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        mix = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.verdicts.items())
        )
        lines = [
            f"fault sweep: {self.scenarios} scenarios, {self.cells} faulted "
            f"runs, {len(self.results)} jobs checked -> {verdict}"
            + (f" [{mix}]" if mix else "")
        ]
        for violation in self.violations:
            lines.append(f"  {violation.describe()}")
        return "\n".join(lines)


class DifferentialHarness:
    """Run queries under every strategy and assert they agree.

    Parameters
    ----------
    strategies:
        Registered strategy names to cross-check (at least two).
    strategy_options:
        Per-strategy factory options, merged over
        :data:`DEFAULT_STRATEGY_OPTIONS`.
    repro_dir:
        Where mismatch repro scripts land (created on demand).  ``None``
        disables script writing.
    minimize:
        Shrink mismatching scenarios (halving document sizes while the
        disagreement still reproduces) before recording them.
    """

    def __init__(
        self,
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        strategy_options: Optional[Mapping[str, Mapping[str, object]]] = None,
        pick_policy=None,
        repro_dir: Optional[str] = "workload-repros",
        minimize: bool = True,
    ) -> None:
        if len(strategies) < 2:
            raise WorkloadError(
                "differential checking needs at least two strategies"
            )
        self.strategies = tuple(strategies)
        options: Dict[str, Dict[str, object]] = {
            name: dict(opts) for name, opts in DEFAULT_STRATEGY_OPTIONS.items()
        }
        for name, opts in dict(strategy_options or {}).items():
            options[name] = dict(opts)
        self.strategy_options = options
        self.pick_policy = pick_policy
        self.repro_dir = repro_dir
        self.minimize = minimize

    # -- running -----------------------------------------------------------------
    def _session(self, system, strategy: str, **session_kwargs) -> Session:
        """A session searching with ``strategy`` under the harness's options."""
        return Session(
            system,
            strategy=strategy,
            strategy_options=self.strategy_options.get(strategy),
            pick_policy=self.pick_policy,
            **session_kwargs,
        )

    def run_query(
        self, scenario: Scenario, query: GeneratedQuery, strategy: str
    ) -> StrategyOutcome:
        """One (query, strategy) cell: run through the façade, canonicalize."""
        session = self._session(scenario.system, strategy)
        report = session.query(**query.kwargs())
        answers = tuple(
            sorted(repr(canonical_form(item)) for item in report.items)
        )
        return StrategyOutcome(
            strategy=strategy,
            answers=answers,
            original_cost=report.original_cost,
            best_cost=report.best_cost,
            explored=report.explored,
        )

    def check_query(
        self, scenario: Scenario, query: GeneratedQuery
    ) -> QueryDifferential:
        outcomes = {
            strategy: self.run_query(scenario, query, strategy)
            for strategy in self.strategies
        }
        result = QueryDifferential(query=query, outcomes=outcomes)
        disagreement = self._find_disagreement(outcomes)
        if disagreement is not None:
            result.mismatch = self._record_mismatch(scenario, query, outcomes, disagreement)
        return result

    def check_scenario(self, scenario: Scenario) -> ScenarioReport:
        report = ScenarioReport(scenario=scenario)
        for query in scenario.queries:
            report.results.append(self.check_query(scenario, query))
        return report

    def check(
        self, scenarios: Iterable[Scenario], raise_on_mismatch: bool = False
    ) -> HarnessReport:
        """Sweep scenarios; optionally raise on the first disagreement."""
        report = HarnessReport()
        for scenario in scenarios:
            scenario_report = self.check_scenario(scenario)
            report.reports.append(scenario_report)
            if raise_on_mismatch and not scenario_report.ok:
                mismatches = scenario_report.mismatches
                detail = (
                    mismatches[0].describe()
                    if mismatches
                    else f"non-monotonic cost in {scenario.describe()}"
                )
                raise DifferentialMismatchError(
                    detail, mismatches[0] if mismatches else None
                )
        return report

    # -- fragmented sweeps ---------------------------------------------------------
    def check_fragmented_query(
        self, scenario: Scenario, query: GeneratedQuery
    ) -> ParityResult:
        """Byte-compare one fragmented query against its baseline.

        The baseline rewrites every ``@dist`` binding to the concrete
        whole document at its home peer (the generator keeps it
        installed), runs it once under the reference strategy, and the
        fragmented binding runs under *every* strategy; all serialized
        answer lists must be byte-identical, order included.
        """
        homes = {doc.name: doc.peer for doc in scenario.documents}
        baseline_bind: Dict[str, str] = {}
        for param, target in query.bind:
            name, _, peer = target.rpartition("@")
            if peer == "dist":
                baseline_bind[param] = f"{name}@{homes[name]}"
            else:
                baseline_bind[param] = target
        baseline = self._session(scenario.system, self.strategies[0]).query(
            query.source, query.at, bind=baseline_bind, name=query.name
        )
        result = ParityResult(query, tuple(baseline.answers))
        for strategy in self.strategies:
            session = self._session(scenario.system, strategy)
            report = session.query(**query.kwargs())
            result.answers[strategy] = tuple(report.answers)
        return result

    def check_fragmented(
        self,
        scenarios: Iterable[Scenario],
        raise_on_mismatch: bool = False,
    ) -> ParitySweepReport:
        """Sweep scenarios, byte-checking every ``@dist``-bound query.

        Queries without a fragmented binding are skipped here (the plain
        :meth:`check` sweep already covers them); a scenario generated
        from a spec with ``fragments=0`` contributes nothing.
        """
        report = ParitySweepReport("fragmented", "the whole-document baseline")
        for scenario in scenarios:
            report.scenarios += 1
            for query in scenario.queries:
                if not any(t.endswith("@dist") for _, t in query.bind):
                    continue
                report.results.append(
                    self.check_fragmented_query(scenario, query)
                )
            if raise_on_mismatch:
                report.raise_on_failure(scenario)
        return report

    # -- write sweeps ----------------------------------------------------------------
    def check_writes_scenario(self, scenario: Scenario) -> List[ParityResult]:
        """Byte-compare incremental writes against rebuild-from-scratch.

        The *incremental* side clones the pristine scenario system once
        per strategy, applies the write sequence through
        :meth:`Session.write <repro.session.Session.write>` (primary-copy
        routing, replica deltas, catalog stats refresh, epoch-keyed
        cache invalidation — the whole production path), then runs every
        scenario query.  The *baseline* side rebuilds each written
        document's whole tree with :func:`repro.writes.apply_to_tree`,
        drops all derived distributed state and re-fragments /
        re-mirrors from scratch, then runs the queries under the
        reference strategy.  Both sides must serialize byte-identically
        on every query — the two can only differ through distribution
        machinery, which is exactly what the check targets.
        """
        baseline_session = self._session(
            self._rebuild_after_writes(scenario), self.strategies[0]
        )
        results = {}
        for query in scenario.queries:
            baseline = baseline_session.query(**query.kwargs())
            results[query.name] = ParityResult(query, tuple(baseline.answers))
        for strategy in self.strategies:
            session = self._session(scenario.system.clone(), strategy)
            for record in scenario.writes:
                session.write(record.op())
            for query in scenario.queries:
                report = session.query(**query.kwargs())
                results[query.name].answers[strategy] = tuple(report.answers)
        return [results[query.name] for query in scenario.queries]

    def check_writes(
        self,
        scenarios: Iterable[Scenario],
        raise_on_mismatch: bool = False,
    ) -> ParitySweepReport:
        """Sweep scenarios, byte-checking write-then-query vs rebuild.

        Scenarios without writes (``spec.writes=0``) contribute nothing.
        """
        report = ParitySweepReport("write", "the rebuild-from-scratch baseline")
        for scenario in scenarios:
            if not scenario.writes:
                continue
            report.scenarios += 1
            report.writes_applied += len(scenario.writes)
            report.results.extend(self.check_writes_scenario(scenario))
            if raise_on_mismatch:
                report.raise_on_failure(scenario)
        return report

    def _rebuild_after_writes(self, scenario: Scenario):
        """The from-scratch baseline system for a write-mix scenario.

        Clones the pristine system, applies every write to each written
        document's whole tree at its home, then re-derives all
        distributed state from that tree: fragments are dropped and
        re-fragmented over the same peers with the same replica count,
        and whole-document mirrors are re-installed from fresh copies.
        """
        from ..dist.fragmenter import Fragmenter
        from ..writes import apply_to_tree

        system = scenario.system.clone()
        homes = {doc.name: doc.peer for doc in scenario.documents}
        generics = {doc.name: doc.generic for doc in scenario.documents}
        written: List[str] = []
        for record in scenario.writes:
            if record.doc not in written:
                written.append(record.doc)
        for name in written:
            home = homes[name]
            tree = system.peer(home).own_document(name)
            for record in scenario.writes:
                if record.doc == name:
                    apply_to_tree(tree, record.op())
            system.peer(home).allocator.assign(tree)
            if system.fragments.is_fragmented(name):
                fragments = system.fragments.fragments(name)
                across = [fragment.home for fragment in fragments]
                replicas = len(fragments[0].replicas) if fragments else 0
                for fragment in fragments:
                    for pid in fragment.peers:
                        if system.peer(pid).has_document(fragment.name):
                            system.peer(pid).drop_document(fragment.name)
                    if fragment.generic:
                        for member in list(
                            system.registry.document_members(fragment.generic)
                        ):
                            system.registry.unregister_document(
                                fragment.generic, member.name, member.peer
                            )
                system.fragments.drop(name)
                Fragmenter(system).fragment(name, home, across, replicas=replicas)
            generic = generics.get(name)
            if generic:
                for member in system.registry.document_members(generic):
                    if member.name == name and member.peer == home:
                        continue
                    system.peer(member.peer).install_document(
                        member.name, tree.copy_without_ids(), replace=True
                    )
        return system

    # -- cost-model sweeps -----------------------------------------------------------
    def check_cost_models_scenario(
        self,
        scenario: Scenario,
        cost_models: Sequence[str] = DEFAULT_COST_MODELS,
        report: Optional[ParitySweepReport] = None,
    ) -> ParitySweepReport:
        """Parity-check every cost model on one scenario (see sweep doc)."""
        if report is None:
            report = ParitySweepReport("cost-model", repr(cost_models[0]))
        probe = Session(scenario.system, pick_policy=self.pick_policy)
        estimator = CostEstimator(scenario.system, pick_policy=self.pick_policy)
        for query in scenario.queries:
            plan = probe.plan(**query.kwargs())
            exact = measure(plan, scenario.system, self.pick_policy)
            estimate = estimator.estimate(plan)
            if exact.scalar() > 0:
                report.ratios.append(estimate.scalar() / exact.scalar())
            for strategy in self.strategies:
                # one cache per cell-row, so the estimator memo is filled
                # once for both estimating models; prepared plans are
                # salted per model, so sharing is safe
                plan_cache = PlanCache()
                answers = {}
                for model in cost_models:
                    session = self._session(
                        scenario.system,
                        strategy,
                        plan_cache=plan_cache,
                        cost_model=model,
                    )
                    cell = session.query(**query.kwargs())
                    answers[model] = tuple(cell.answers)
                report.results.append(
                    ParityResult(
                        query=query,
                        baseline_answers=answers[cost_models[0]],
                        answers=answers,
                        strategy=strategy,
                    )
                )
        return report

    def check_cost_models(
        self,
        scenarios: Iterable[Scenario],
        cost_models: Sequence[str] = DEFAULT_COST_MODELS,
        max_ratio: float = 100.0,
        raise_on_mismatch: bool = False,
    ) -> ParitySweepReport:
        """Sweep scenarios; every cost model must answer like the oracle.

        For each generated query and each strategy, the query runs once
        per cost model and the serialized answers must be byte-identical
        to the reference model's (``cost_models[0]``).  Additionally the
        analytic estimate of each naive plan must stay within
        ``max_ratio`` of the oracle measurement in both directions —
        search-time pricing is allowed to be approximate, not unmoored.
        """
        report = ParitySweepReport(
            "cost-model", repr(cost_models[0]), max_ratio=max_ratio
        )
        for scenario in scenarios:
            report.scenarios += 1
            self.check_cost_models_scenario(
                scenario, cost_models=cost_models, report=report
            )
            if raise_on_mismatch:
                report.raise_on_failure(scenario)
        return report

    # -- fault sweeps ----------------------------------------------------------------
    def check_faults_scenario(
        self,
        scenario: Scenario,
        fault_seeds: Sequence[int] = (1, 2),
        spec: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
    ) -> List[FaultCheckResult]:
        """Serve one scenario under seeded fault schedules; classify jobs.

        For each strategy the scenario's queries are served twice: once
        fault-free (the reference answers) and once per fault seed with a
        generated :class:`~repro.faults.FaultPlan` installed, the
        :class:`~repro.faults.FaultActor` driving crash/rejoin instants,
        and the ``retry`` policy recovering transfers and calls.  Every
        faulted job must land in one of exactly three buckets — answer
        canonically identical to the fault-free run, a well-formed
        partial answer that is a multiset *subset* of it, or a typed
        error — and the drain must settle every job in bounded virtual
        time (a hang would never return).  Silent wrong answers are the
        one outcome with no bucket.
        """
        from ..engine.jobs import JobRequest

        spec = spec if spec is not None else FaultSpec()
        retry = retry if retry is not None else RetryPolicy()
        requests = [
            JobRequest(
                arrival=index * 0.01,
                partial=True,
                deadline=deadline,
                **query.kwargs(),
            )
            for index, query in enumerate(scenario.queries)
        ]
        results: List[FaultCheckResult] = []
        for strategy in self.strategies:
            baseline = self._session(scenario.system, strategy).serve(
                list(requests)
            )
            reference = {
                job.name: _canonical_counts(job.report.items)
                for job in baseline.jobs
                if job.report is not None
            }
            for fault_seed in fault_seeds:
                plan = FaultPlan.generate(fault_seed, scenario.system, spec)
                session = self._session(
                    scenario.system, strategy, retry=retry, fault_plan=plan
                )
                report = session.serve(list(requests), actor=FaultActor(plan))
                for job in report.jobs:
                    results.append(
                        _classify_fault_job(
                            job, reference.get(job.name), fault_seed, strategy
                        )
                    )
        return results

    def check_faults(
        self,
        scenarios: Iterable[Scenario],
        fault_seeds: Sequence[int] = (1, 2),
        spec: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
        raise_on_violation: bool = False,
    ) -> FaultSweepReport:
        """Sweep scenarios under seeded chaos; assert the fault invariant.

        The three-way invariant, per (scenario, fault seed, strategy)
        cell and per job: *identical answer, or provable partial subset,
        or typed error* — never a silent wrong answer, never a hang.
        """
        report = FaultSweepReport()
        for scenario in scenarios:
            report.scenarios += 1
            report.cells += len(self.strategies) * len(tuple(fault_seeds))
            for result in self.check_faults_scenario(
                scenario,
                fault_seeds=fault_seeds,
                spec=spec,
                retry=retry,
                deadline=deadline,
            ):
                report.results.append(result)
                if raise_on_violation and not result.ok:
                    raise DifferentialMismatchError(
                        f"fault invariant violated on scenario "
                        f"seed={scenario.seed} index={scenario.index}: "
                        f"{result.describe()}"
                    )
        return report

    # -- mismatch handling ---------------------------------------------------------
    def _find_disagreement(
        self, outcomes: Dict[str, StrategyOutcome]
    ) -> Optional[Tuple[str, str]]:
        reference = self.strategies[0]
        for other in self.strategies[1:]:
            if outcomes[other].answers != outcomes[reference].answers:
                return (reference, other)
        return None

    def _record_mismatch(
        self,
        scenario: Scenario,
        query: GeneratedQuery,
        outcomes: Dict[str, StrategyOutcome],
        strategies: Tuple[str, str],
    ) -> Mismatch:
        answers = {name: out.answers for name, out in outcomes.items()}
        spec, query, shrunk_answers = self._minimized(scenario, query, strategies)
        if shrunk_answers is not None:
            # spec/query/answers must describe the same (shrunk) scenario
            answers = shrunk_answers
        relevant_options = {
            name: dict(opts)
            for name, opts in self.strategy_options.items()
            if name in answers
        }
        mismatch = Mismatch(
            seed=scenario.seed,
            index=scenario.index,
            spec=spec,
            query=query,
            answers=answers,
            strategies=strategies,
            strategy_options=relevant_options,
            pick_policy_note=(
                repr(self.pick_policy) if self.pick_policy is not None else None
            ),
        )
        if self.repro_dir is not None:
            os.makedirs(self.repro_dir, exist_ok=True)
            path = os.path.join(
                self.repro_dir,
                f"repro-seed{scenario.seed}-idx{scenario.index}-{query.name}.py",
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(mismatch.repro_script())
            mismatch.repro_path = path
        return mismatch

    def _minimized(
        self,
        scenario: Scenario,
        query: GeneratedQuery,
        strategies: Tuple[str, str],
    ) -> Tuple[
        ScenarioSpec,
        GeneratedQuery,
        Optional[Dict[str, Tuple[str, ...]]],
    ]:
        """Shrink the scenario while the disagreement still reproduces.

        Regenerates the scenario from its seed with progressively smaller
        specs (documents halved in size, payload stripped); the smallest
        spec on which the same query still disagrees wins.  Generation is
        deterministic, so the repro script rebuilds the shrunk scenario
        exactly.  Returns the spec, the (regenerated) query, and the
        disagreeing strategies' answers on that shrunk scenario — or
        ``None`` for the answers when no shrinking happened.
        """
        if not self.minimize:
            return scenario.spec, query, None
        best: Optional[
            Tuple[ScenarioSpec, GeneratedQuery, Dict[str, Tuple[str, ...]]]
        ] = None
        for candidate in self._shrink_candidates(scenario.spec):
            shrunk_answers = self._disagreeing_answers(
                scenario, candidate, query.name, strategies
            )
            if shrunk_answers is None:
                continue
            regenerated = ScenarioGenerator(seed=scenario.seed, spec=candidate)
            best = (
                candidate,
                regenerated.scenario(scenario.index).query(query.name),
                shrunk_answers,
            )
        if best is None:
            return scenario.spec, query, None
        return best

    def _shrink_candidates(self, spec: ScenarioSpec) -> List[ScenarioSpec]:
        candidates: List[ScenarioSpec] = []
        items = spec.items
        payload = spec.payload_words
        while items > 1 or payload > 0:
            items = max(1, items // 2)
            payload = 0
            candidate = replace(spec, items=items, payload_words=payload)
            if candidate != spec and candidate not in candidates:
                candidates.append(candidate)
            if items == 1:
                break
        return candidates

    def _disagreeing_answers(
        self,
        scenario: Scenario,
        spec: ScenarioSpec,
        query_name: str,
        strategies: Tuple[str, str],
    ) -> Optional[Dict[str, Tuple[str, ...]]]:
        """The pair's answers on the shrunk scenario, or None if it agrees."""
        try:
            shrunk = ScenarioGenerator(seed=scenario.seed, spec=spec).scenario(
                scenario.index
            )
            query = shrunk.query(query_name)
            first = self.run_query(shrunk, query, strategies[0])
            second = self.run_query(shrunk, query, strategies[1])
        except Exception:
            # a shrunk scenario that fails for unrelated reasons is not a
            # valid minimization step
            return None
        if first.answers == second.answers:
            return None
        return {strategies[0]: first.answers, strategies[1]: second.answers}
