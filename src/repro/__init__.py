"""repro — a reproduction of "A Framework for Distributed XML Data
Management" (Abiteboul, Manolescu, Taropa; EDBT 2006).

The documented top-level API is the session façade::

    import repro

    session = repro.connect(system, strategy="greedy", verify=True)
    report = session.query(
        "for $i in $d//item where $i/price > 495 return $i/name",
        at="laptop", bind={"d": "catalog@server"},
    )
    print(report.describe())     # answers, chosen plan, costs, per-peer stats

:func:`connect` opens a :class:`~repro.session.Session` that owns the
whole pipeline — parse the XQuery text, build the naive plan, rewrite it
with the paper's equivalence rules (10)–(16) under a pluggable optimizer
strategy (``"beam"``, ``"greedy"``, ``"exhaustive"``, or your own via
:func:`repro.core.register_strategy`), machine-verify the chosen rewrite,
evaluate it — and returns a structured
:class:`~repro.session.ExecutionReport`.

Underneath, the package implements, from scratch:

* :mod:`repro.xmlcore` — XML data model, parser, serializer, unordered
  canonical forms, schema-lite types;
* :mod:`repro.xquery` — an XQuery-subset engine (FLWOR, paths,
  constructors, 60+ builtins) with query composition/decomposition;
* :mod:`repro.net` — a discrete-event network simulator with
  byte-accurate message accounting and per-peer traffic attribution;
* :mod:`repro.peers` — peers hosting documents and services, generic
  name registry with pick policies, the system state Σ;
* :mod:`repro.axml` — embedded service-call (``sc``) nodes and their
  activation modes, continuous streams (activation itself is definition
  (1) of :mod:`repro.core`);
* :mod:`repro.core` — the paper's contribution: the expression algebra
  E, eval definitions (1)–(9), equivalence rules (10)–(16), cost model,
  strategy-driven optimizer, and machine-checked equivalence
  verification;
* :mod:`repro.engine` — the concurrent serving layer: a multi-query
  scheduler interleaving jobs as discrete events on one shared Σ, with
  per-peer compute queues, replica-aware admission, and seeded open- /
  closed-loop load generation (``session.submit()`` / ``drain()`` /
  ``serve()``);
* :mod:`repro.writes` — the mutable-document write path: node-targeted
  inserts/updates/deletes routed to the owning fragment through the
  catalog, primary-copy replica coherence with charged delta shipping,
  and per-document epochs that invalidate exactly the cached plans,
  cost memos, and statistics the write touched
  (``session.insert()`` / ``update()`` / ``delete()``);
* :mod:`repro.placement` — adaptive placement: telemetry-driven
  rebalancing (replica lifecycle, fragment migration and re-splits as
  atomic catalog transactions) and peer-churn survival (catalog
  failover, typed unavailability), ticking on the scheduler's virtual
  clock as a background actor.

Start with ``examples/quickstart.py`` or the README.
"""

from .session import ExecutionReport, Session, connect

__version__ = "1.1.0"

__all__ = [
    "connect",
    "Session",
    "ExecutionReport",
    "xmlcore",
    "xquery",
    "net",
    "peers",
    "axml",
    "core",
    "errors",
    "session",
    "workloads",
    "engine",
    "placement",
    "writes",
]
