"""Seeded fault plans: what breaks, where, and when.

A :class:`FaultPlan` is to chaos what :class:`repro.workloads.Scenario`
is to data: a seed-derived, byte-stable script.  All randomness is spent
*here*, at generation time — applying a plan is a pure function of the
virtual clock, so a faulted run is exactly as reproducible as a clean
one (retries included: a retried transfer that lands inside the same
drop window is dropped again, deterministically).

Fault kinds
-----------

``link-drop``
    Messages crossing the hop inside the window are lost; the sender
    detects the loss at the would-be hop completion
    (:class:`~repro.errors.MessageLostError`).
``link-degrade``
    The hop's occupancy and latency are multiplied by ``factor`` inside
    the window (a slow, congested link — not a dead one).
``corrupt``
    Transfers crossing the hop inside the window arrive corrupted: the
    bytes are charged, but the receiver's content-fingerprint check
    rejects them (:class:`~repro.errors.TransferCorruptionError`).
``service-fail``
    Calls reaching the provider inside the window fail immediately
    (:class:`~repro.errors.ServiceCallFaultError`).
``service-hang``
    Calls reaching the provider inside the window do not answer until
    the window closes; with a :class:`~repro.faults.RetryPolicy` the
    caller cancels the hung call at its timeout budget and retries.
``peer-stall``
    The peer stops computing until the window closes (a GC pause / CPU
    thief): work that would start inside the window starts at its end.
``peer-crash`` / ``peer-rejoin``
    Instantaneous membership events applied through
    :class:`~repro.placement.ChurnController` by the
    :class:`~repro.faults.FaultActor` — crash generalizes
    :class:`~repro.placement.ChurnSchedule` kills (catalog failover,
    registry scrub, in-flight link traffic cancelled), rejoin revives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import List, Tuple

from ..errors import WorkloadError

__all__ = [
    "LINK_DROP",
    "LINK_DEGRADE",
    "CORRUPT",
    "SERVICE_FAIL",
    "SERVICE_HANG",
    "PEER_STALL",
    "PEER_CRASH",
    "PEER_REJOIN",
    "FaultEvent",
    "FaultSpec",
    "FaultPlan",
]

LINK_DROP = "link-drop"
LINK_DEGRADE = "link-degrade"
CORRUPT = "corrupt"
SERVICE_FAIL = "service-fail"
SERVICE_HANG = "service-hang"
PEER_STALL = "peer-stall"
PEER_CRASH = "peer-crash"
PEER_REJOIN = "peer-rejoin"

KINDS = (
    LINK_DROP,
    LINK_DEGRADE,
    CORRUPT,
    SERVICE_FAIL,
    SERVICE_HANG,
    PEER_STALL,
    PEER_CRASH,
    PEER_REJOIN,
)

#: Kinds whose window is an interval (``end > start``); the membership
#: kinds are instants.
_WINDOWED = frozenset(KINDS) - {PEER_CRASH, PEER_REJOIN}

#: Kinds targeting a directed hop ``src -> dst``.
LINK_KINDS = frozenset({LINK_DROP, LINK_DEGRADE, CORRUPT})

#: Kinds targeting a provider peer (``peer`` + ``service``).
SERVICE_KINDS = frozenset({SERVICE_FAIL, SERVICE_HANG})

#: Kinds targeting a whole peer.
PEER_KINDS = frozenset({PEER_STALL, PEER_CRASH, PEER_REJOIN})


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: a kind, a target, and a clock window."""

    kind: str
    start: float
    end: float = 0.0
    src: str = ""
    dst: str = ""
    peer: str = ""
    service: str = ""
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise WorkloadError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if self.start < 0:
            raise WorkloadError(
                f"fault {self.kind}: start must be >= 0, got {self.start!r}"
            )
        if self.kind in _WINDOWED and self.end <= self.start:
            raise WorkloadError(
                f"fault {self.kind}: window end {self.end!r} must be past "
                f"start {self.start!r}"
            )
        if self.kind in LINK_KINDS and not (self.src and self.dst):
            raise WorkloadError(f"fault {self.kind}: needs src and dst")
        if self.kind in (SERVICE_KINDS | PEER_KINDS) and not self.peer:
            raise WorkloadError(f"fault {self.kind}: needs a peer")
        if self.kind == LINK_DEGRADE and self.factor < 1.0:
            raise WorkloadError(
                f"link-degrade factor must be >= 1, got {self.factor!r}"
            )

    def covers(self, at: float) -> bool:
        """Whether instant ``at`` falls inside this event's window."""
        return self.start <= at < self.end

    def describe(self) -> str:
        target = ""
        if self.kind in LINK_KINDS:
            target = f"{self.src}->{self.dst}"
        elif self.kind in SERVICE_KINDS:
            target = f"{self.service}@{self.peer}"
        else:
            target = self.peer
        window = (
            f"[{self.start:.6f}, {self.end:.6f})"
            if self.kind in _WINDOWED
            else f"@{self.start:.6f}"
        )
        extra = f" x{self.factor:g}" if self.kind == LINK_DEGRADE else ""
        return f"{self.kind} {target} {window}{extra}"


@dataclass(frozen=True)
class FaultSpec:
    """Generation knobs: how many of each fault, over what horizon.

    The defaults are the **standard fault mix** of the harness's
    ``fault`` sweep: a handful of transient link faults plus one flaky
    service and one stalling peer, all inside the first ``horizon``
    seconds of virtual time — dense enough that an unprotected run
    visibly fails, sparse enough that retries can win.
    """

    link_drops: int = 2
    link_degrades: int = 1
    corruptions: int = 1
    service_failures: int = 1
    service_hangs: int = 0
    peer_stalls: int = 1
    peer_crashes: int = 0
    horizon: float = 0.5
    min_window: float = 0.02
    max_window: float = 0.08
    degrade_min: float = 3.0
    degrade_max: float = 8.0
    crash_downtime: float = 0.1

    def validate(self) -> None:
        for name in (
            "link_drops",
            "link_degrades",
            "corruptions",
            "service_failures",
            "service_hangs",
            "peer_stalls",
            "peer_crashes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise WorkloadError(
                    f"FaultSpec.{name} must be a non-negative int, got {value!r}"
                )
        if self.horizon <= 0:
            raise WorkloadError(
                f"FaultSpec.horizon must be positive, got {self.horizon!r}"
            )
        if not (0 < self.min_window <= self.max_window):
            raise WorkloadError(
                "FaultSpec windows must satisfy 0 < min_window <= max_window, "
                f"got ({self.min_window!r}, {self.max_window!r})"
            )
        if not (1.0 <= self.degrade_min <= self.degrade_max):
            raise WorkloadError(
                "FaultSpec degrade factors must satisfy "
                f"1 <= degrade_min <= degrade_max, got "
                f"({self.degrade_min!r}, {self.degrade_max!r})"
            )
        if self.crash_downtime <= 0:
            raise WorkloadError(
                f"FaultSpec.crash_downtime must be positive, "
                f"got {self.crash_downtime!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault events it deterministically derives.

    ``FaultPlan(seed).events`` is empty — an empty plan is the no-op
    plan, and installing it changes nothing (byte-identical runs).  Use
    :meth:`generate` to draw events against a concrete system.
    """

    seed: int = 0
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.events)

    @classmethod
    def generate(
        cls,
        seed: int,
        system,
        spec: FaultSpec = FaultSpec(),
    ) -> "FaultPlan":
        """Draw a plan for ``system`` — all randomness is spent here.

        Targets are drawn from the system's *current* sorted links,
        services, and live peers, so the same ``(seed, system shape)``
        always yields the same plan.  Categories with no viable target
        (no services, a single peer) are skipped, not errors.
        """
        spec.validate()
        rng = Random(f"faults:{seed}")
        events: List[FaultEvent] = []

        def window(rng: Random) -> Tuple[float, float]:
            width = rng.uniform(spec.min_window, spec.max_window)
            start = rng.uniform(0.0, max(spec.horizon - width, 0.0))
            return start, start + width

        hops = sorted((link.src, link.dst) for link in system.network.links())
        for _ in range(spec.link_drops if hops else 0):
            src, dst = rng.choice(hops)
            start, end = window(rng)
            events.append(FaultEvent(LINK_DROP, start, end, src=src, dst=dst))
        for _ in range(spec.link_degrades if hops else 0):
            src, dst = rng.choice(hops)
            start, end = window(rng)
            factor = rng.uniform(spec.degrade_min, spec.degrade_max)
            events.append(
                FaultEvent(
                    LINK_DEGRADE, start, end, src=src, dst=dst, factor=factor
                )
            )
        for _ in range(spec.corruptions if hops else 0):
            src, dst = rng.choice(hops)
            start, end = window(rng)
            events.append(FaultEvent(CORRUPT, start, end, src=src, dst=dst))

        providers = sorted(
            (peer_id, name)
            for peer_id, peer in system.peers.items()
            for name in peer.services
        )
        for _ in range(spec.service_failures if providers else 0):
            peer_id, name = rng.choice(providers)
            start, end = window(rng)
            events.append(
                FaultEvent(SERVICE_FAIL, start, end, peer=peer_id, service=name)
            )
        for _ in range(spec.service_hangs if providers else 0):
            peer_id, name = rng.choice(providers)
            start, end = window(rng)
            events.append(
                FaultEvent(SERVICE_HANG, start, end, peer=peer_id, service=name)
            )

        live = sorted(system.live_peers())
        for _ in range(spec.peer_stalls if live else 0):
            peer_id = rng.choice(live)
            start, end = window(rng)
            events.append(FaultEvent(PEER_STALL, start, end, peer=peer_id))
        # crashes need a survivor to keep answering: never crash the last
        # live peer, and stagger crash/rejoin pairs
        for _ in range(spec.peer_crashes if len(live) > 1 else 0):
            peer_id = rng.choice(live)
            at = rng.uniform(0.0, spec.horizon)
            events.append(FaultEvent(PEER_CRASH, at, peer=peer_id))
            events.append(
                FaultEvent(PEER_REJOIN, at + spec.crash_downtime, peer=peer_id)
            )

        ordered = tuple(
            sorted(
                events,
                key=lambda e: (e.start, e.kind, e.src, e.dst, e.peer, e.service),
            )
        )
        return cls(seed=seed, events=ordered)

    def serialize(self) -> str:
        """Byte-stable text form (same contract as ``Scenario.serialize``)."""
        lines = [f"faultplan seed={self.seed} events={len(self.events)}"]
        for event in self.events:
            lines.append(f"  {event.describe()}")
        return "\n".join(lines) + "\n"

    def peer_events(self) -> Tuple[FaultEvent, ...]:
        """The crash/rejoin instants (applied by the FaultActor)."""
        return tuple(
            e for e in self.events if e.kind in (PEER_CRASH, PEER_REJOIN)
        )
