"""Wall-clock profiling hooks: per-phase timers and opt-in cProfile.

Where the :class:`~repro.obs.tracer.Tracer` accounts for **virtual**
time (what the simulated fleet experienced), :class:`WallProfiler`
accounts for **wall** time (what this python process actually burned
running the simulation).  The raw-speed roadmap item needs the latter:
T1 spends ~1.5 wall-seconds to simulate ~63ms of virtual time, and the
per-phase split (parse / optimize / evaluate) plus the
cProfile hotspot table say where the rework should aim.

Usage::

    profiler = WallProfiler()
    session = Session(system, profiler=profiler)
    session.query("q", ...)
    print(profiler.describe())

    deep = WallProfiler(capture=True)   # opt-in cProfile capture
    ...
    for row in deep.hotspots(10):
        print(row)

Phases nest safely (the timer is reentrant per phase name) and the
profiler never touches the virtual clock or the RNG — wall timing is
observational only.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

__all__ = ["WallProfiler"]


class _PhaseStat:
    __slots__ = ("seconds", "calls", "_depth", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0
        self._started = 0.0


class WallProfiler:
    """Accumulates wall time per named phase; optionally runs cProfile.

    ``capture=True`` wraps the outermost phase in a ``cProfile.Profile``
    so :meth:`hotspots` can name the hottest functions.  The profiler is
    enabled only at phase depth zero — nested phases share the active
    capture instead of re-enabling (cProfile forbids reentrancy).
    """

    def __init__(self, capture: bool = False) -> None:
        self.capture = capture
        self._phases: Dict[str, _PhaseStat] = {}
        self._order: List[str] = []
        self._active_depth = 0
        self._profile = cProfile.Profile() if capture else None

    @contextmanager
    def phase(self, name: str):
        """Time a phase; reentrant per name (inner entries don't double-count)."""
        stat = self._phases.get(name)
        if stat is None:
            stat = self._phases[name] = _PhaseStat()
            self._order.append(name)
        stat.calls += 1
        outermost_for_name = stat._depth == 0
        if outermost_for_name:
            stat._started = time.perf_counter()
        stat._depth += 1
        profiling_here = (
            self._profile is not None and self._active_depth == 0
        )
        self._active_depth += 1
        if profiling_here:
            self._profile.enable()
        try:
            yield
        finally:
            if profiling_here:
                self._profile.disable()
            self._active_depth -= 1
            stat._depth -= 1
            if outermost_for_name:
                stat.seconds += time.perf_counter() - stat._started

    # -- reading -----------------------------------------------------------------
    def seconds(self, name: str) -> float:
        stat = self._phases.get(name)
        return stat.seconds if stat is not None else 0.0

    def calls(self, name: str) -> int:
        stat = self._phases.get(name)
        return stat.calls if stat is not None else 0

    def phases(self) -> List[Tuple[str, float, int]]:
        """``(name, wall_seconds, calls)`` in first-seen order."""
        return [
            (name, self._phases[name].seconds, self._phases[name].calls)
            for name in self._order
        ]

    def hotspots(self, n: int = 10) -> List[Tuple[str, int, float, float]]:
        """Top-``n`` functions by cumulative wall time from cProfile.

        Each row is ``(where, ncalls, tottime, cumtime)``; empty when
        the profiler was built with ``capture=False``.
        """
        if self._profile is None:
            return []
        stats = pstats.Stats(self._profile, stream=io.StringIO())
        stats.sort_stats("cumulative")
        rows: List[Tuple[str, int, float, float]] = []
        for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
            filename, lineno, name = func
            if filename.startswith("<") and name in ("<module>",):
                continue
            where = f"{_shorten(filename)}:{lineno}({name})"
            rows.append((where, nc, tt, ct))
        rows.sort(key=lambda row: row[3], reverse=True)
        return rows[:n]

    def describe(self) -> str:
        lines = ["wall-clock phases:"]
        total = sum(stat.seconds for stat in self._phases.values())
        for name, seconds, calls in self.phases():
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"  {name:<12} {seconds * 1000:9.3f}ms "
                f"x{calls:<6} ({share:.0%})"
            )
        if self._profile is not None:
            lines.append("hotspots (cumulative):")
            for where, ncalls, tottime, cumtime in self.hotspots(10):
                lines.append(
                    f"  {cumtime * 1000:9.3f}ms cum "
                    f"{tottime * 1000:9.3f}ms self "
                    f"x{ncalls:<8} {where}"
                )
        return "\n".join(lines)


def _shorten(filename: str) -> str:
    for marker in ("/src/", "/lib/python"):
        idx = filename.rfind(marker)
        if idx >= 0:
            return filename[idx + len(marker):] if marker == "/src/" else filename.rsplit("/", 1)[-1]
    return filename.rsplit("/", 1)[-1]
