"""Procedural workloads and the differential conformance harness.

Two halves:

* :mod:`repro.workloads.generator` — :class:`ScenarioGenerator`, a
  seeded factory turning ``(seed, index, spec)`` into a complete
  distributed scenario: network topology, heterogeneous peers, plain and
  AXML documents (embedded service calls), declarative services,
  generic-document replicas, and an XQuery workload.  Fully
  deterministic: the same seed reproduces the same
  :meth:`Scenario.serialize` byte for byte.
* :mod:`repro.workloads.harness` — :class:`DifferentialHarness`, which
  runs every generated query through :class:`~repro.session.Session`
  under every registered optimizer strategy and asserts
  canonical-answer agreement plus cost monotonicity, recording any
  disagreement as a minimized, seed-reproducible repro script.

>>> from repro.workloads import DifferentialHarness, ScenarioGenerator
>>> scenario = ScenarioGenerator(seed=3).scenario(0)
>>> harness = DifferentialHarness(("beam", "greedy"), repro_dir=None)
>>> harness.check_scenario(scenario).ok
True
"""

from .generator import (
    CHAOS_SPEC,
    FRAGMENTED_SPEC,
    QUERY_SHAPES,
    TOPOLOGIES,
    WRITE_MIX_SPEC,
    GeneratedDocument,
    GeneratedQuery,
    GeneratedService,
    GeneratedWrite,
    Scenario,
    ScenarioGenerator,
    ScenarioSpec,
)
from .harness import (
    DEFAULT_COST_MODELS,
    DEFAULT_STRATEGIES,
    DifferentialHarness,
    FaultCheckResult,
    FaultSweepReport,
    HarnessReport,
    Mismatch,
    ParityResult,
    ParitySweepReport,
    QueryDifferential,
    ScenarioReport,
    StrategyOutcome,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioGenerator",
    "Scenario",
    "GeneratedDocument",
    "GeneratedService",
    "GeneratedQuery",
    "GeneratedWrite",
    "TOPOLOGIES",
    "QUERY_SHAPES",
    "CHAOS_SPEC",
    "FRAGMENTED_SPEC",
    "WRITE_MIX_SPEC",
    "DifferentialHarness",
    "HarnessReport",
    "ScenarioReport",
    "QueryDifferential",
    "StrategyOutcome",
    "Mismatch",
    "ParityResult",
    "ParitySweepReport",
    "FaultCheckResult",
    "FaultSweepReport",
    "DEFAULT_STRATEGIES",
    "DEFAULT_COST_MODELS",
]
