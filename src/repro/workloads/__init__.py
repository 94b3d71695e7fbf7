"""Procedural workloads and the differential conformance harness.

Two halves:

* :mod:`repro.workloads.generator` — :class:`ScenarioGenerator`, a
  seeded factory turning ``(seed, index, spec)`` into a complete
  distributed scenario: network topology, heterogeneous peers, plain and
  AXML documents (embedded service calls), declarative services,
  generic-document replicas, and an XQuery workload.  Fully
  deterministic: the same seed reproduces the same
  :meth:`Scenario.serialize` byte for byte.
* :mod:`repro.workloads.harness` — :class:`DifferentialHarness`, whose
  one :meth:`~DifferentialHarness.sweep` re-runs every generated query
  through :class:`~repro.session.Session` under a set of variants
  (strategies, a fragmented binding, a write history, cost models, fault
  schedules) and demands the baseline's answer back: a :class:`Cell` per
  query with a :class:`VariantOutcome` per variant, collected in one
  :class:`SweepReport`.  A strategy disagreement is also recorded as a
  minimized, seed-reproducible repro script (:class:`Mismatch`).

>>> from repro.workloads import DifferentialHarness, ScenarioGenerator
>>> scenario = ScenarioGenerator(seed=3).scenario(0)
>>> harness = DifferentialHarness(("beam", "greedy"), repro_dir=None)
>>> report = harness.sweep("differential", [scenario])
>>> report.ok, report.verdicts
(True, {'identical': 10})
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
    Cell,
    DifferentialHarness,
    Mismatch,
    SweepReport,
    VariantOutcome,
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
    "SweepReport",
    "Cell",
    "VariantOutcome",
    "Mismatch",
    "DEFAULT_STRATEGIES",
    "DEFAULT_COST_MODELS",
]
