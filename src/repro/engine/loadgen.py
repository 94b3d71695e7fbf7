"""Seeded arrival processes over a generated scenario's query workload.

The throughput benchmarks need *streams* of queries, not single shots.
:class:`LoadGenerator` builds them on top of
:class:`repro.workloads.Scenario` — every request is one of the
scenario's generated queries, drawn by a private ``random.Random`` seeded
from ``(seed)``, so the same seed reproduces the same stream byte for
byte:

* **open loop** — arrivals follow a Poisson process at a given rate
  (queries/second of virtual time), independent of service times: the
  "heavy traffic" regime where queues actually build;
* **closed loop** — a fixed number of in-flight slots; each completion
  admits the next request at the completion instant.  Concurrency 1 is
  the sequential baseline the throughput bench compares against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from random import Random
from typing import Deque, List, Optional, Sequence

from ..errors import WorkloadError
from ..workloads import Scenario
from .jobs import JobRequest, QueryJob

__all__ = ["ClosedLoopFeed", "LoadGenerator"]


class ClosedLoopFeed:
    """Fixed-concurrency source: a completion admits the next request.

    The scheduler consumes this through two hooks: :meth:`initial` (the
    first ``concurrency`` requests, all arriving at the stream's start)
    and :meth:`on_complete` (the next pending request, re-timed to the
    completion instant).
    """

    def __init__(self, requests: Sequence[JobRequest], concurrency: int) -> None:
        if concurrency < 1:
            raise WorkloadError(
                f"closed-loop concurrency must be >= 1, got {concurrency!r}"
            )
        self.concurrency = concurrency
        self._pending: Deque[JobRequest] = deque(requests)

    def initial(self) -> List[JobRequest]:
        first = []
        for _ in range(min(self.concurrency, len(self._pending))):
            first.append(self._pending.popleft())
        return first

    def on_complete(self, job: QueryJob, now: float) -> Optional[JobRequest]:
        if not self._pending:
            return None
        return replace(self._pending.popleft(), arrival=now)


class LoadGenerator:
    """Deterministic request streams over one scenario's queries.

    >>> from repro.workloads import ScenarioGenerator
    >>> scenario = ScenarioGenerator(seed=3).scenario(0)
    >>> first = LoadGenerator(scenario, seed=11).open_loop(3, rate=100.0)
    >>> again = LoadGenerator(scenario, seed=11).open_loop(3, rate=100.0)
    >>> first == again
    True
    """

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        if not scenario.queries:
            raise WorkloadError("scenario has no queries to serve")
        self.scenario = scenario
        self.seed = seed

    def _rng(self, label: str) -> Random:
        # one private stream per (seed, process shape): changing the
        # open-loop rate never perturbs a closed-loop run's query mix
        return Random(f"loadgen:{self.seed}:{label}")

    def requests(self, count: int, label: str = "requests") -> List[JobRequest]:
        """``count`` requests drawn uniformly over the scenario's queries.

        All arrivals are 0.0 — feed them to a closed loop, or re-time
        them via :meth:`open_loop`.  Job names are ``<query>#<k>`` so a
        served job traces back to the generated query it instantiates.
        """
        if count < 1:
            raise WorkloadError(f"need at least one request, got {count!r}")
        rng = self._rng(label)
        queries = self.scenario.queries
        out: List[JobRequest] = []
        for k in range(count):
            query = rng.choice(queries)
            out.append(
                JobRequest(
                    source=query.source,
                    at=query.at,
                    bind=query.bindings,
                    name=f"{query.name}#{k}",
                )
            )
        return out

    def open_loop(self, count: int, rate: float) -> List[JobRequest]:
        """Poisson arrivals at ``rate`` queries per virtual second."""
        if rate <= 0:
            raise WorkloadError(f"open-loop rate must be positive, got {rate!r}")
        rng = self._rng(f"open:{rate!r}")
        clock = 0.0
        out: List[JobRequest] = []
        for request in self.requests(count, label=f"open:{rate!r}:mix"):
            clock += rng.expovariate(rate)
            out.append(replace(request, arrival=clock))
        return out

    def closed_loop(self, count: int, concurrency: int) -> ClosedLoopFeed:
        """A fixed-concurrency feed over ``count`` requests.

        The request mix depends only on ``(seed, count)`` — *not* on the
        concurrency — so sweeping concurrency levels compares identical
        work (the throughput bench's apples-to-apples requirement).
        """
        return ClosedLoopFeed(self.requests(count, label="closed"), concurrency)
