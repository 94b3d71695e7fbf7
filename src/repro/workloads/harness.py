"""Differential conformance: one query, one baseline, a verdict per variant.

The paper states rules (10)–(16) as *equivalences* under definitions
(1)–(9), so whatever the optimizer, the distribution machinery or the
recovery layer do to a query, its answer must not move.  The harness
holds the implementation to that with no hand-written expected outputs:
:meth:`DifferentialHarness.sweep` re-runs every generated query under a
set of *variants* and demands the *baseline's* answer back.  A
:class:`Cell` is one query against one baseline with a
:class:`VariantOutcome` (answers, verdict) per variant; a
:class:`SweepReport` is the cells of one sweep.  The five kinds
(:data:`SWEEPS`) differ only in what they run, which is the body of
their per-scenario check: strategies against the reference strategy
(``differential``), a fragmented binding against the whole document
(``fragmented``), incremental writes against a rebuild (``write``), cost
models against the oracle (``cost-model``), seeded fault schedules
against the fault-free serve (``fault``).

A diverging ``differential`` cell also carries a :class:`Mismatch`: the
harness *minimizes* the scenario (shrinking document sizes while the
disagreement reproduces) and writes a standalone repro script that
rebuilds the exact failing scenario from its seed — ``python <script>``
exits 1 while the bug exists and 0 once fixed.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cost import Cost, CostEstimator, measure
from ..core.planspace import PlanCache
from ..core.strategies import make_strategy
from ..dist.fragmenter import Fragmenter
from ..engine.jobs import DONE, FAILED, JobRequest
from ..errors import (
    DifferentialMismatchError,
    FaultError,
    FragmentUnavailableError,
    GenericResolutionError,
    PeerDownError,
    ReproError,
    WorkloadError,
)
from ..faults import FaultPlan, FaultSpec, RetryPolicy
from ..session import Session
from ..writes import apply_to_tree
from ..xmlcore.canon import canonical_form
from .generator import GeneratedQuery, Scenario, ScenarioGenerator, ScenarioSpec

__all__ = [
    "VariantOutcome",
    "Cell",
    "SweepReport",
    "Mismatch",
    "DifferentialHarness",
    "DEFAULT_STRATEGIES",
    "DEFAULT_COST_MODELS",
]

DEFAULT_STRATEGIES: Tuple[str, ...] = ("beam", "greedy", "exhaustive")

#: Cost models the ``cost-model`` sweep cross-checks; the first is the
#: baseline (the oracle — its answers define correctness for the others).
DEFAULT_COST_MODELS: Tuple[str, ...] = ("oracle", "analytic", "hybrid")

#: Per-strategy options every harness session searches with: exhaustive
#: is bounded tighter than its factory default so 50-scenario sweeps stay
#: affordable.
DEFAULT_STRATEGY_OPTIONS: Dict[str, Dict[str, object]] = {
    "exhaustive": {"depth": 3, "max_plans": 256},
}

#: How far, in either direction, the analytic estimate of a naive plan
#: may sit from the oracle measurement.  A wildly-off estimate may still
#: pick the right plan by luck; the bound catches the model drifting even
#: when the ranking survives.
MAX_ESTIMATE_RATIO = 100.0

_COST_EPS = 1e-9

#: One run's answers, in the form its sweep compares (see :class:`Cell`).
Answers = Tuple[str, ...]

#: The verdicts that leave a variant ok: what every sweep asks for, plus
#: the two ways the ``fault`` sweep's three-way invariant lets a faulted
#: run fall short of it (see :class:`VariantOutcome`).
OK_VERDICTS = frozenset({"identical", "partial-subset", "typed-error"})

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
class VariantOutcome:
    """One variant's run of a cell's query, and how it compares.

    ``verdict`` is ``identical`` (the baseline's answer came back),
    ``diverged`` (it did not), ``non-monotonic`` (same answer, but the
    strategy returned a plan it scored worse than the original), or one
    of the ``fault`` sweep's: ``partial-subset`` (a provable subset of
    the fault-free answer, :class:`~repro.faults.PartialAnswer`
    attached) and ``typed-error`` — both allowed — or a violation:
    ``silent-mismatch``, ``partial-superset``, ``untyped-error``,
    ``unsettled``, ``baseline-missing``.
    """

    variant: str
    #: ``None`` when it did not answer.
    answers: Optional[Answers] = None
    verdict: str = "identical"
    detail: str = ""
    #: The search's own scores, which only the ``differential`` sweep
    #: records (its cost-monotonicity check needs them).
    original_cost: Optional[Cost] = None
    best_cost: Optional[Cost] = None
    explored: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict in OK_VERDICTS

    @property
    def monotonic(self) -> bool:
        """The chosen plan is not scored worse than the original, i.e.
        :func:`~repro.core.strategies.improvement_ratio` is at least 1."""
        return self.best_cost.scalar() <= self.original_cost.scalar() + _COST_EPS

    def describe(self) -> str:
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.variant} {self.verdict}{detail}"


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
    answers: Dict[str, Answers]
    #: The two strategies exhibiting the disagreement.
    strategies: Tuple[str, str]
    #: Per-strategy factory options the harness searched with — the repro
    #: script re-applies them so bounded searches reproduce faithfully.
    strategy_options: Dict[str, Dict[str, object]] = field(default_factory=dict)
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
        return _REPRO_TEMPLATE.format(
            query=self.query.name,
            shape=self.query.shape,
            pair=" vs ".join(self.strategies),
            seed=self.seed,
            index=self.index,
            spec_kwargs=repr(self.spec.to_kwargs()),
            strategies=tuple(sorted(self.answers)),
            strategy_options=repr(self.strategy_options),
        )


_REPRO_TEMPLATE = '''#!/usr/bin/env python3
"""Auto-generated differential repro (minimized).

Optimizer strategies disagreed on the answers of generated query
{query!r} (shape {shape!r}): {pair}.  This script rebuilds the exact
scenario from its seed and re-runs the query under every strategy;
it exits 1 while the disagreement reproduces and 0 once it is fixed.
"""

import sys

from repro.core import make_strategy
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

scenario = ScenarioGenerator(seed=SEED).scenario(INDEX, spec=SPEC)
query = scenario.query(QUERY)
answers = {{}}
for strategy in STRATEGIES:
    session = Session(
        scenario.system,
        strategy=make_strategy(strategy, **STRATEGY_OPTIONS.get(strategy, {{}})),
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
class Cell:
    """One query (or served job) against one baseline, a verdict per variant.

    ``baseline_answers`` and every outcome's ``answers`` share one form,
    chosen by the sweep: sorted canonical forms
    (:func:`repro.xmlcore.canon.canonical_form`, the paper's unordered
    tree model) where the contract is multiset equality (``differential``,
    ``fault``), serialized items in answer order where it is byte
    equality.
    """

    scenario: Scenario
    query: GeneratedQuery
    #: ``None`` only when the baseline run produced no answer at all.
    baseline_answers: Optional[Answers]
    outcomes: Dict[str, VariantOutcome] = field(default_factory=dict)
    #: The strategy every run of the cell searched with, when the
    #: variants are not themselves strategies (cost models, fault seeds).
    strategy: Optional[str] = None
    #: ``cost-model`` cells: analytic estimate / oracle measurement of
    #: the query's naive plan (1.0 is a perfect estimate), on each of the
    #: query's rows.
    estimate_ratio: Optional[float] = None
    #: ``differential`` cells: the minimized record of a divergence.
    mismatch: Optional[Mismatch] = None

    def file(self, outcome: VariantOutcome) -> None:
        """Judge ``outcome`` against the baseline; keep it under its variant."""
        if outcome.answers != self.baseline_answers:
            outcome.verdict = "diverged"
        elif outcome.best_cost is not None and not outcome.monotonic:
            outcome.verdict = "non-monotonic"
            outcome.detail = (
                f"chose {outcome.best_cost.describe()} over the original "
                f"{outcome.original_cost.describe()}"
            )
        self.outcomes[outcome.variant] = outcome

    @property
    def failures(self) -> List[VariantOutcome]:
        return [o for o in self.outcomes.values() if not o.ok]

    @property
    def ratio_ok(self) -> bool:
        ratio = self.estimate_ratio
        return ratio is None or (
            1.0 / MAX_ESTIMATE_RATIO <= ratio <= MAX_ESTIMATE_RATIO
        )

    @property
    def ok(self) -> bool:
        return not self.failures and self.ratio_ok

    def describe(self, baseline: str) -> str:
        row = f" [{self.strategy}]" if self.strategy else ""
        found = [outcome.describe() for outcome in self.failures]
        if not self.ratio_ok:
            found.append(f"estimate ratio {self.estimate_ratio:.3g} out of bounds")
        text = (
            f"query {self.query.name!r} ({self.query.shape}){row} of scenario "
            f"seed={self.scenario.seed} index={self.scenario.index} vs "
            f"{baseline}: {', '.join(found) or 'ok'}"
        )
        if self.mismatch is not None:
            text += "\n" + self.mismatch.describe()
        return text


@dataclass
class SweepReport:
    """The cells of one sweep; everything it says is computed from them."""

    #: "differential", "fragmented", "write", "cost-model" or "fault".
    kind: str
    #: What every answer was compared against, for :meth:`describe`.
    baseline: str
    cells: List[Cell] = field(default_factory=list)

    @property
    def failures(self) -> List[Cell]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def mismatches(self) -> List[Mismatch]:
        return [c.mismatch for c in self.cells if c.mismatch is not None]

    @property
    def verdicts(self) -> Dict[str, int]:
        """How many variant outcomes ended on each verdict."""
        return dict(
            Counter(o.verdict for c in self.cells for o in c.outcomes.values())
        )

    @property
    def ratios(self) -> List[float]:
        return [
            c.estimate_ratio for c in self.cells if c.estimate_ratio is not None
        ]

    def _swept(self) -> List[Scenario]:
        """The scenarios that contributed at least one cell, in order."""
        return list({id(c.scenario): c.scenario for c in self.cells}.values())

    @property
    def scenarios(self) -> int:
        return len(self._swept())

    @property
    def notes(self) -> Dict[str, object]:
        """What the sweep counted beyond scenarios, in :meth:`describe` order."""
        notes: Dict[str, object] = {}
        if self.kind == "fault":
            # (scenario x strategy x fault seed) faulted serving runs
            notes["faulted runs"] = len({
                (id(c.scenario), c.strategy, variant)
                for c in self.cells for variant in c.outcomes
            })
            notes["jobs checked"] = sum(len(c.outcomes) for c in self.cells)
        else:
            notes["queries"] = len(self.cells)
        explored = sum(o.explored for c in self.cells for o in c.outcomes.values())
        if explored:
            notes["plans scored"] = explored
        if self.kind == "write":
            notes["writes applied"] = sum(len(s.writes) for s in self._swept())
        ratios = [r for r in self.ratios if r > 0]
        if ratios:
            worst = max(max(r, 1.0 / r) for r in ratios)
            notes["worst estimate ratio"] = f"{worst:.2f}x"
        return notes

    def describe(self) -> str:
        failures = self.failures
        counts = {"scenarios": self.scenarios, **self.notes}
        line = (
            f"{self.kind} sweep: "
            + ", ".join(f"{value} {label}" for label, value in counts.items())
            + " -> "
            + ("ok" if not failures else f"{len(failures)} FAILURES")
        )
        if self.kind == "fault" and self.cells:
            tally = sorted(self.verdicts.items())
            line += f" [{', '.join(f'{name}: {n}' for name, n in tally)}]"
        return "\n".join(
            [line] + [f"  {cell.describe(self.baseline)}" for cell in failures]
        )

    def raise_on_failure(self) -> None:
        """Raise :class:`DifferentialMismatchError` unless :attr:`ok`."""
        failures = self.failures
        if failures:
            raise DifferentialMismatchError(
                f"{self.kind} sweep: {failures[0].describe(self.baseline)}",
                failures[0].mismatch,
            )


def _canonical_answers(items) -> Answers:
    """The canonical multiset of an answer forest, as sorted reprs."""
    return tuple(sorted(repr(canonical_form(item)) for item in items))


def _classify_fault_job(job, reference, variant: str) -> VariantOutcome:
    """One faulted job against its fault-free reference answers."""

    def verdict(name, detail="", answers=None):
        return VariantOutcome(variant, answers, name, detail)

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
    answers = _canonical_answers(job.report.items)
    if answers == reference:
        return verdict("identical", answers=answers)
    if job.partial is None:
        return verdict(
            "silent-mismatch",
            f"{len(answers)} answers vs {len(reference)} fault-free, "
            "no partial marker",
            answers,
        )
    if Counter(answers) - Counter(reference):
        return verdict(
            "partial-superset",
            "partial answer contains items the fault-free run lacks",
            answers,
        )
    return verdict(
        "partial-subset",
        f"{len(answers)}/{len(reference)} answers, "
        f"{len(job.partial.lost)} parts lost",
        answers,
    )


#: kind -> (the per-scenario check, what it compares every answer against)
SWEEPS: Dict[str, Tuple[str, str]] = {
    "differential": ("check_scenario", "the reference strategy"),
    "fragmented": ("check_fragmented_scenario", "the whole-document baseline"),
    "write": ("check_writes_scenario", "the rebuild-from-scratch baseline"),
    "cost-model": (
        "check_cost_models_scenario", f"the {DEFAULT_COST_MODELS[0]!r} cost model"
    ),
    "fault": ("check_faults_scenario", "the fault-free run"),
}


class DifferentialHarness:
    """Run generated queries under every variant; demand the baseline's answer.

    Parameters
    ----------
    strategies:
        Registered strategy names to cross-check (at least two); the
        first is the reference the baselines run under.
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
        repro_dir: Optional[str] = "workload-repros",
        minimize: bool = True,
    ) -> None:
        if len(strategies) < 2:
            raise WorkloadError(
                "differential checking needs at least two strategies"
            )
        self.strategies = tuple(strategies)
        self.repro_dir = repro_dir
        self.minimize = minimize

    # -- the one driver ----------------------------------------------------------
    def sweep(
        self,
        kind: str,
        scenarios: Iterable[Scenario],
        raise_on_failure: bool = False,
        **options,
    ) -> SweepReport:
        """Run the ``kind`` check (see :data:`SWEEPS`) over ``scenarios``.

        ``options`` go to the per-scenario check (only ``fault`` takes
        any).  With ``raise_on_failure`` the sweep stops at the first
        scenario that leaves the report not :attr:`~SweepReport.ok` and
        raises :class:`~repro.errors.DifferentialMismatchError`.
        """
        if kind not in SWEEPS:
            raise WorkloadError(
                f"unknown sweep kind {kind!r}; available: {', '.join(SWEEPS)}"
            )
        check, baseline = SWEEPS[kind]
        check = getattr(self, check)
        report = SweepReport(kind, baseline)
        for scenario in scenarios:
            report.cells.extend(check(scenario, **options))
            if raise_on_failure:
                report.raise_on_failure()
        return report

    # -- running -----------------------------------------------------------------
    def _session(self, system, strategy: str, **session_kwargs) -> Session:
        """A session searching with ``strategy`` under the harness's options."""
        return Session(
            system,
            strategy=make_strategy(
                strategy, **DEFAULT_STRATEGY_OPTIONS.get(strategy, {})
            ),
            **session_kwargs,
        )

    def run_query(
        self, scenario: Scenario, query: GeneratedQuery, strategy: str
    ) -> VariantOutcome:
        """One (query, strategy) run through the façade, canonicalized."""
        session = self._session(scenario.system, strategy)
        report = session.query(**query.kwargs())
        return VariantOutcome(
            strategy,
            _canonical_answers(report.items),
            original_cost=report.original_cost,
            best_cost=report.best_cost,
            explored=report.explored,
        )

    # -- differential: strategies against the reference strategy --------------------
    def check_scenario(self, scenario: Scenario) -> List[Cell]:
        """Every strategy must answer like the first, and never pick a
        plan it scored worse than the original (improvement ratio >= 1)."""
        reference = self.strategies[0]
        cells = []
        for query in scenario.queries:
            outcomes = {
                strategy: self.run_query(scenario, query, strategy)
                for strategy in self.strategies
            }
            cell = Cell(scenario, query, outcomes[reference].answers)
            for outcome in outcomes.values():
                cell.file(outcome)
            diverged = [o.variant for o in outcomes.values() if o.verdict == "diverged"]
            if diverged:
                cell.mismatch = self._record_mismatch(
                    scenario, query, outcomes, (reference, diverged[0])
                )
            cells.append(cell)
        return cells

    # -- fragmented: doc@dist against the whole document ------------------------------
    def check_fragmented_scenario(self, scenario: Scenario) -> List[Cell]:
        """Byte-compare every ``@dist``-bound query against its baseline.

        The baseline rewrites every ``@dist`` binding to the concrete
        whole document at its home peer (the generator keeps it
        installed), runs it once under the reference strategy, and the
        fragmented binding runs under *every* strategy; all serialized
        answer lists must be byte-identical, order included.  Queries
        without a fragmented binding are skipped (the ``differential``
        sweep already covers them); a scenario generated from a spec
        with ``fragments=0`` contributes nothing.
        """
        homes = {doc.name: doc.peer for doc in scenario.documents}

        def whole(target: str) -> str:
            name, _, peer = target.rpartition("@")
            return f"{name}@{homes[name]}" if peer == "dist" else target

        cells = []
        for query in scenario.queries:
            if not any(t.endswith("@dist") for _, t in query.bind):
                continue
            baseline = self._session(scenario.system, self.strategies[0]).query(
                query.source,
                query.at,
                bind={param: whole(target) for param, target in query.bind},
                name=query.name,
            )
            cell = Cell(scenario, query, tuple(baseline.answers))
            for strategy in self.strategies:
                session = self._session(scenario.system, strategy)
                report = session.query(**query.kwargs())
                cell.file(VariantOutcome(strategy, tuple(report.answers)))
            cells.append(cell)
        return cells

    # -- write: incremental writes against rebuild-from-scratch -----------------------
    def check_writes_scenario(self, scenario: Scenario) -> List[Cell]:
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
        machinery, which is exactly what the check targets.  A scenario
        without writes (``spec.writes=0``) contributes nothing.
        """
        if not scenario.writes:
            return []
        baseline_session = self._session(
            self._rebuild_after_writes(scenario), self.strategies[0]
        )
        cells = {}
        for query in scenario.queries:
            baseline = baseline_session.query(**query.kwargs())
            cells[query.name] = Cell(scenario, query, tuple(baseline.answers))
        for strategy in self.strategies:
            session = self._session(scenario.system.clone(), strategy)
            for record in scenario.writes:
                session.write(record.op())
            for query in scenario.queries:
                report = session.query(**query.kwargs())
                cells[query.name].file(
                    VariantOutcome(strategy, tuple(report.answers))
                )
        return list(cells.values())

    def _rebuild_after_writes(self, scenario: Scenario):
        """The from-scratch baseline system for a write-mix scenario.

        Clones the pristine system, applies every write to each written
        document's whole tree at its home, then re-derives all
        distributed state from that tree: fragments are dropped and
        re-fragmented over the same peers with the same replica count,
        and whole-document mirrors are re-installed from fresh copies.
        """
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

    # -- cost-model: every model against the oracle -----------------------------------
    def check_cost_models_scenario(self, scenario: Scenario) -> List[Cell]:
        """Every cost model must answer like the oracle, per strategy.

        For each generated query and each strategy, the query runs once
        per model of :data:`DEFAULT_COST_MODELS` and the serialized
        answers must be byte-identical to the first one's: the model
        steers which plan runs, never what it answers.  Additionally the
        analytic estimate of each naive plan must stay within
        :data:`MAX_ESTIMATE_RATIO` of the oracle measurement.
        """
        probe = Session(scenario.system)
        estimator = CostEstimator(scenario.system)
        cells = []
        for query in scenario.queries:
            plan = probe.plan(**query.kwargs())
            exact = measure(plan, scenario.system).scalar()
            estimate = estimator.estimate(plan).scalar()
            ratio = estimate / exact if exact > 0 else None
            for strategy in self.strategies:
                # one cache per row, so the estimator memo is filled
                # once for both estimating models; the prepared-plan key
                # holds the model's name, so sharing is safe
                plan_cache = PlanCache()
                answers = {}
                for model in DEFAULT_COST_MODELS:
                    session = self._session(
                        scenario.system,
                        strategy,
                        plan_cache=plan_cache,
                        cost_model=model,
                    )
                    answers[model] = tuple(session.query(**query.kwargs()).answers)
                cell = Cell(
                    scenario,
                    query,
                    answers[DEFAULT_COST_MODELS[0]],
                    strategy=strategy,
                    estimate_ratio=ratio,
                )
                for model, answered in answers.items():
                    cell.file(VariantOutcome(model, answered))
                cells.append(cell)
        return cells

    # -- fault: seeded chaos against the fault-free serve -----------------------------
    def check_faults_scenario(
        self,
        scenario: Scenario,
        fault_seeds: Sequence[int] = (1, 2),
        spec: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
    ) -> List[Cell]:
        """Serve one scenario under seeded fault schedules; classify jobs.

        For each strategy the scenario's queries are served once
        fault-free (the baseline answers) and once per fault seed with a
        generated :class:`~repro.faults.FaultPlan` as the session's fault
        plan (the scheduler applies its crash/rejoin instants) and the
        ``retry`` policy recovering transfers and calls.  Every
        faulted job must land in one of exactly three buckets — answer
        canonically identical to the fault-free run, a well-formed
        partial answer that is a multiset *subset* of it, or a typed
        error — and the drain must settle every job in bounded virtual
        time (a hang would never return).
        """
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
        cells: List[Cell] = []
        for strategy in self.strategies:
            baseline = self._session(scenario.system, strategy).serve(
                list(requests)
            )
            row = {
                job.name: Cell(
                    scenario,
                    scenario.query(job.name),
                    None if job.report is None
                    else _canonical_answers(job.report.items),
                    strategy=strategy,
                )
                for job in baseline.jobs
            }
            for fault_seed in fault_seeds:
                plan = FaultPlan.generate(fault_seed, scenario.system, spec)
                session = self._session(
                    scenario.system, strategy, retry=retry, fault_plan=plan
                )
                report = session.serve(list(requests))
                variant = f"fault-seed={fault_seed}"
                for job in report.jobs:
                    cell = row[job.name]
                    cell.outcomes[variant] = _classify_fault_job(
                        job, cell.baseline_answers, variant
                    )
            cells.extend(row.values())
        return cells

    # -- mismatch handling ---------------------------------------------------------
    def _record_mismatch(
        self,
        scenario: Scenario,
        query: GeneratedQuery,
        outcomes: Dict[str, VariantOutcome],
        strategies: Tuple[str, str],
    ) -> Mismatch:
        # spec, query and answers describe the same (possibly shrunk) scenario
        spec, query, answers = self._minimized(
            scenario,
            query,
            strategies,
            {name: out.answers for name, out in outcomes.items()},
        )
        mismatch = Mismatch(
            seed=scenario.seed,
            index=scenario.index,
            spec=spec,
            query=query,
            answers=answers,
            strategies=strategies,
            strategy_options={
                name: dict(opts)
                for name, opts in DEFAULT_STRATEGY_OPTIONS.items()
                if name in answers
            },
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
        answers: Dict[str, Answers],
    ) -> Tuple[ScenarioSpec, GeneratedQuery, Dict[str, Answers]]:
        """Shrink the scenario while the disagreement still reproduces.

        Regenerates the scenario from its seed with progressively smaller
        specs (documents halved in size, payload stripped); the smallest
        spec on which the same query still disagrees wins.  Generation is
        deterministic, so the repro script rebuilds the shrunk scenario
        exactly.  Returns the spec, the (regenerated) query, and the
        disagreeing strategies' answers on that shrunk scenario — or the
        original's, ``answers`` included, when nothing smaller disagrees.
        """
        best = (scenario.spec, query, answers)
        if not self.minimize:
            return best
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
    ) -> Optional[Dict[str, Answers]]:
        """The pair's answers on the shrunk scenario, or None if it agrees."""
        try:
            shrunk = ScenarioGenerator(seed=scenario.seed, spec=spec).scenario(
                scenario.index
            )
            query = shrunk.query(query_name)
            first = self.run_query(shrunk, query, strategies[0])
            second = self.run_query(shrunk, query, strategies[1])
        except ReproError:
            # a shrunk scenario the system rejects with a typed error
            # (the query no longer binds, say) is not a valid
            # minimization step; anything untyped is a bug and surfaces
            return None
        if first.answers == second.answers:
            return None
        return {strategies[0]: first.answers, strategies[1]: second.answers}
