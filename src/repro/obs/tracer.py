"""Virtual-clock span trees: the deterministic tracing core.

A :class:`Tracer` records *what the simulator already knows* — when a
transfer occupied a link, when a CPU picked a job up, how long a retry
backed off — as a tree of :class:`Span`\\ s per served job, all stamped
on the **virtual clock**.  Recording is purely observational:

* it spends no randomness (no RNG is ever consulted),
* it charges no virtual time (spans copy instants the engine computed
  anyway),
* and with tracing off (:data:`NO_TRACER`, the default) every
  instrumentation point is one call to a no-op method (+0.13 % to
  +0.99 % ``py_calls_per_op`` on the four ``bench/`` workloads) — the
  event traces and answers are byte-identical to an untraced run
  (differential-tested).

The span tree mirrors a job's causal phases: a ``job`` root covering
arrival → settle, with ``plan`` (prepared or searched, strategy, plans
explored), ``queue`` (admission + CPU waits), and ``eval`` children —
the ``eval`` span owning one leaf per transfer hop (bytes included),
per CPU charge, per retry-backoff window, and per injected stall/hang.
Run-level spans (crash/rejoin actions, fault windows, scheduler marks)
live next to the jobs on :attr:`Trace.run`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

__all__ = [
    "CAT_BACKOFF",
    "CAT_CPU",
    "CAT_EVAL",
    "CAT_FAULT",
    "CAT_JOB",
    "CAT_LINK",
    "CAT_MARK",
    "CAT_PLACEMENT",
    "CAT_PLAN",
    "CAT_QUEUE",
    "CAT_STALL",
    "NO_TRACER",
    "Span",
    "Trace",
    "Tracer",
]

#: Span categories.  The resource categories (queue/link/cpu/backoff/
#: stall) are what :mod:`repro.obs.critical_path` decomposes latency
#: over; the structural ones (job/plan/eval/mark) shape the tree.
CAT_JOB = "job"
CAT_PLAN = "plan"
CAT_EVAL = "eval"
CAT_QUEUE = "queue"
CAT_LINK = "link"
CAT_CPU = "cpu"
CAT_BACKOFF = "backoff"
CAT_STALL = "stall"
CAT_FAULT = "fault"
#: a crash's or rejoin's catalog changes (kill, failover, rejoin)
CAT_PLACEMENT = "placement"
CAT_MARK = "mark"


class Span:
    """One named interval ``[start, end]`` on the virtual clock.

    ``attrs`` carry structured payload (bytes moved, peers involved,
    cache counters); ``children`` make it a tree.  Spans are plain
    mutable records — cheap to allocate on the hot path — with
    ``__slots__`` keeping the per-span footprint small.
    """

    __slots__ = ("name", "cat", "start", "end", "attrs", "children")

    def __init__(
        self,
        name: str,
        cat: str,
        start: float,
        end: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start if end is None else end
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["Span"]:
        """Every childless descendant (the resource-level intervals)."""
        for span in self.walk():
            if not span.children:
                yield span

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        extra = ""
        if self.attrs:
            parts = ", ".join(
                f"{key}={value}" for key, value in sorted(self.attrs.items())
            )
            extra = f"  [{parts}]"
        lines = [
            f"{pad}{self.name} ({self.cat}) "
            f"{self.start * 1000:.3f}ms -> {self.end * 1000:.3f}ms "
            f"(+{self.duration * 1000:.3f}ms){extra}"
        ]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.cat!r}, "
            f"[{self.start:.6f}, {self.end:.6f}], "
            f"children={len(self.children)})"
        )


class Trace:
    """A finished recording: job span trees plus run-level spans.

    What :attr:`ServingReport.trace
    <repro.engine.metrics.ServingReport.trace>` holds after a traced
    drain.  ``jobs`` maps job name → ``job`` root span in admission
    order; ``run`` holds scheduler-, placement-action- and
    fault-window-spans that belong to the whole run rather than to one
    job.
    """

    def __init__(
        self,
        jobs: Optional[Dict[str, Span]] = None,
        run: Optional[List[Span]] = None,
    ) -> None:
        self.jobs: Dict[str, Span] = dict(jobs or {})
        self.run: List[Span] = list(run or [])

    def job(self, name: str) -> Span:
        try:
            return self.jobs[name]
        except KeyError:
            raise KeyError(
                f"no traced job named {name!r}; "
                f"traced: {sorted(self.jobs)}"
            ) from None

    def job_names(self) -> List[str]:
        return list(self.jobs)

    def spans(self) -> Iterator[Span]:
        """Every span in the trace (jobs first, then run-level)."""
        for root in self.jobs.values():
            yield from root.walk()
        for span in self.run:
            yield from span.walk()

    def __len__(self) -> int:
        return sum(1 for _ in self.spans())

    def describe(self) -> str:
        lines = [f"trace: {len(self.jobs)} job(s), {len(self.run)} run span(s)"]
        for name, root in self.jobs.items():
            lines.append(root.describe(indent=1))
        if self.run:
            lines.append("run:")
            for span in self.run:
                lines.append(span.describe(indent=1))
        return "\n".join(lines)


class Tracer:
    """Records span trees as the engine hands it instants.

    One tracer serves one run at a time: the scheduler (or a single
    :meth:`Session.query <repro.session.Session.query>` execution)
    calls :meth:`reset` at run start, so a session-level tracer always
    holds the *latest* run's trace — grab :meth:`trace` (a snapshot)
    before starting the next run to keep older recordings.

    The per-job context is a plain stack: the simulator is a
    single-threaded discrete-event loop, so at any wall instant at most
    one job is being evaluated (virtual intervals interleave; wall
    execution does not), and ``begin_job`` / ``end_job`` bracket it.
    Records arriving outside any job (e.g. fault windows discovered at
    install time) land on the run-level list.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Span] = {}
        self.run: List[Span] = []
        self._stack: List[Span] = []

    # -- lifecycle ---------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (a new run is starting)."""
        self.jobs = {}
        self.run = []
        self._stack = []

    def trace(self) -> Trace:
        """Snapshot the recording as an immutable-by-convention Trace."""
        return Trace(jobs=self.jobs, run=self.run)

    # -- job context -------------------------------------------------------------
    def begin_job(self, name: str, start: float, **attrs) -> Span:
        """Open a job's root span; subsequent records nest under it."""
        key = name
        serial = 2
        while key in self.jobs:  # duplicate client-chosen names
            key = f"{name}#{serial}"
            serial += 1
        root = Span(key, CAT_JOB, start, start, attrs=dict(attrs))
        self.jobs[key] = root
        self._stack = [root]
        return root

    def end_job(self, end: float, **attrs) -> None:
        """Close the current job's root span and clear the context (a
        no-op when no job is open)."""
        if not self._stack:
            return
        root = self._stack[0]
        root.end = max(root.end, end)
        root.attrs.update(attrs)
        self._stack = []

    def push(self, name: str, cat: str, start: float, **attrs) -> Span:
        """Open a nested span; records nest under it until :meth:`pop`."""
        span = Span(name, cat, start, start, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.run.append(span)
        self._stack.append(span)
        return span

    def pop(self, end: float, **attrs) -> None:
        """Close the innermost open span (never the job root)."""
        if len(self._stack) <= 1:
            return
        span = self._stack.pop()
        span.end = max(span.start, end)
        span.attrs.update(attrs)

    # -- leaf records ------------------------------------------------------------
    def record(
        self, name: str, cat: str, start: float, end: float, **attrs
    ) -> Span:
        """One leaf interval under the current context (or run level)."""
        span = Span(name, cat, start, end, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.run.append(span)
        return span

    def mark(self, name: str, cat: str, at: float, **attrs) -> Span:
        """A zero-duration instant (placement action, settle, crash)."""
        return self.record(name, cat, at, at, **attrs)

    def run_span(
        self, name: str, cat: str, start: float, end: float, **attrs
    ) -> Span:
        """A span attached to the run, regardless of open job context."""
        span = Span(name, cat, start, end, attrs=dict(attrs))
        self.run.append(span)
        return span

    # -- engine-facing helpers (the instrumentation points call these) ------------
    def hop(self, message, link, ready: float, start: float, arrival: float) -> None:
        """One transfer hop: optional link-queue wait, then the occupancy.

        Called by :meth:`Network.deliver <repro.net.network.Network.deliver>`
        per link on the route, with the instants the link itself computed
        — nothing here feeds back into timing.
        """
        if start > ready:
            self.record(
                f"link-wait {link.src}->{link.dst}",
                CAT_QUEUE,
                ready,
                start,
                resource=f"link {link.src}->{link.dst}",
            )
        self.record(
            f"hop {link.src}->{link.dst}",
            CAT_LINK,
            start,
            arrival,
            bytes=message.size,
            kind=message.kind,
            src=message.src,
            dst=message.dst,
        )

    def cpu(
        self,
        peer_id: str,
        label: str,
        ready: float,
        busy_before: float,
        done: float,
    ) -> None:
        """One CPU charge: optional compute-queue wait, then the work."""
        start = busy_before if busy_before > ready else ready
        if start > done:  # zero-work charge ordered oddly; clamp
            start = done
        if start > ready:
            self.record(
                f"cpu-wait {peer_id}",
                CAT_QUEUE,
                ready,
                start,
                resource=f"cpu {peer_id}",
            )
        self.record(
            f"{label} @{peer_id}", CAT_CPU, start, done, peer=peer_id
        )


def _ignore(self, *args, **attrs) -> None:
    """Tracing is off: record nothing."""


class _NoTracer(Tracer):
    """A :class:`Tracer` whose every method is a no-op (:data:`NO_TRACER`).

    Its recording stays empty and :meth:`trace` returns ``None``, the
    "no trace" every report carries for an untraced run.
    """

    reset = trace = begin_job = end_job = push = pop = _ignore
    record = mark = run_span = hop = cpu = _ignore


#: Tracing off: what a session, a network and the runs they host hold
#: when no :class:`Tracer` is installed.  Each instrumentation point is
#: one unconditional call, which costs an untraced run one no-op call
#: per hook; "is tracing on?" is answered here and nowhere else.
NO_TRACER = _NoTracer()
