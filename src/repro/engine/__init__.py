"""The concurrent serving engine: many queries, one shared Σ.

Everything before this package runs one query at a time; the paper's
transfer-reuse vs. parallelism trade-off, though, lives on a *shared*
network where different queries contend for the same FIFO links and
serial CPUs.  ``repro.engine`` is that serving layer:

* :mod:`~repro.engine.scheduler` — :class:`Scheduler`: an event heap
  admitting jobs against one system, with deterministic seeded
  tie-breaking, per-peer compute queues, and replica-aware admission;
* :mod:`~repro.engine.jobs` — :class:`JobRequest` / :class:`QueryJob`,
  the units the event loop tracks (arrival / start / finish timestamps);
* :mod:`~repro.engine.loadgen` — :class:`LoadGenerator`: seeded open-
  and closed-loop arrival processes over generated workloads;
* :mod:`~repro.engine.metrics` — :class:`ServingReport` /
  :class:`FleetMetrics`: makespan, latency percentiles, queries/sec,
  per-peer utilization.

The documented entry point is the session façade: hand
:meth:`Session.serve <repro.session.Session.serve>` a list of requests
(or a :class:`LoadGenerator` feed for whole arrival streams)::

    session = repro.connect(system)
    report = session.serve([
        JobRequest(query_source, at="edge", bind={"d": "cat@any"}),
        JobRequest(other_source, at="laptop", bind={"d": "cat@any"}),
    ])                                # -> ServingReport
    print(report.describe())
"""

from .jobs import JobRequest, QueryJob, plan_peers
from .loadgen import ClosedLoopFeed, LoadGenerator
from .metrics import FleetMetrics, ServingReport, percentile
from .scheduler import Scheduler

__all__ = [
    "Scheduler",
    "JobRequest",
    "QueryJob",
    "plan_peers",
    "LoadGenerator",
    "ClosedLoopFeed",
    "ServingReport",
    "FleetMetrics",
    "percentile",
]
