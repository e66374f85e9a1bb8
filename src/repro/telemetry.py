"""Lightweight end-to-end telemetry for the gateway/cloud pipeline.

The paper's gateway is meant to run continuously on a Raspberry-Pi-class
device, so knowing *where time and bits go* is as important as the DSP
itself. This module is the observability substrate threaded through
every pipeline stage (detection, extraction, edge decode, compression,
backhaul, cloud decode): a process-local registry of

* **counters** — monotonically increasing totals (samples in, events,
  segments, bits shipped, drops, kill/SIC invocations);
* **gauges** — last-written values (queue depth, chunk size);
* **timers** — aggregate histograms of wall-clock spans, one per stage.

Design constraints, in order:

1. **Zero overhead when disabled.** Every stage takes a telemetry object
   defaulting to the shared :data:`NULL` singleton, whose operations are
   no-ops and whose :meth:`~NullTelemetry.span` returns one reusable
   no-op context manager — no clock reads, no allocation on the hot
   path.
2. **No dependencies, no threads.** Plain dicts and
   ``time.perf_counter``; a snapshot is an ordinary nested dict that
   prints, asserts and serializes trivially.
3. **Names are flat dotted strings** (``"detect.events"``,
   ``"compress.shipped_bits"``) so downstream aggregation (Prometheus,
   a CSV, a test assertion) needs no schema.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TimerStats",
    "Span",
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "format_snapshot",
]


@dataclass
class TimerStats:
    """Aggregate statistics of one named timer (a histogram of spans)."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one measured duration into the aggregate."""
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        """Mean span duration (0.0 before any observation)."""
        return self.total_s / self.count if self.count else 0.0

    def merge(self, other: TimerStats) -> None:
        """Fold another timer's aggregate into this one (worker rollup)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total_s += other.total_s
        if other.min_s < self.min_s:
            self.min_s = other.min_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by :meth:`Telemetry.snapshot`."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class Span:
    """Context manager timing one stage invocation.

    Created by :meth:`Telemetry.span`; on exit it folds the elapsed
    wall-clock into the owning timer. Re-entrant use creates separate
    observations.
    """

    __slots__ = ("_stats", "_started")

    def __init__(self, stats: TimerStats) -> None:
        self._stats = stats
        self._started = 0.0

    def __enter__(self) -> Span:
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stats.observe(time.perf_counter() - self._started)


class _NullSpan:
    """Reusable no-op span handed out by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


@dataclass(eq=False)
class Telemetry:
    """Process-local metrics registry shared across pipeline stages.

    One instance is typically created per gateway (or per experiment)
    and handed to every stage; stages record under their own dotted
    prefix, so a single :meth:`snapshot` shows the whole pipeline.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerStats] = field(default_factory=dict)

    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into timer ``name`` without a span."""
        self._timer(name).observe(seconds)

    def span(self, stage: str) -> Span | _NullSpan:
        """Context manager timing one invocation of ``stage``.

        The timer is registered as ``"<stage>.seconds"``.
        """
        return Span(self._timer(f"{stage}.seconds"))

    def _timer(self, name: str) -> TimerStats:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        return stats

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Point-in-time plain-dict view of every metric."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: t.as_dict() for name, t in self.timers.items()},
        }

    def absorb_snapshot(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The rollup half of the parallel decode farm: workers record into
        their own sinks and the parent merges the snapshots — counters
        and timer histograms add, gauges take the incoming value (last
        write wins, in merge order). Merging every worker's snapshot
        yields the same counters (and timer counts) as running the whole
        workload against one sink.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, float(value))
        for name, stats in snapshot.get("timers", {}).items():
            count = int(stats["count"])
            incoming = TimerStats(
                count=count,
                total_s=float(stats["total_s"]),
                min_s=float(stats["min_s"]) if count else float("inf"),
                max_s=float(stats["max_s"]),
            )
            self._timer(name).merge(incoming)

    def reset(self) -> None:
        """Drop every metric (tests, between experiment repeats)."""
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()


class NullTelemetry(Telemetry):
    """No-op telemetry: the default everywhere instrumentation exists.

    Every mutator returns immediately and :meth:`span` hands back one
    shared object whose enter/exit never read the clock, so the
    instrumented hot paths cost one attribute lookup and a call.
    """

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def span(self, stage: str) -> Span | _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "timers": {}}

    def absorb_snapshot(self, snapshot: dict[str, dict[str, Any]]) -> None:
        return None


NULL = NullTelemetry()
"""Shared no-op instance used as the default by every stage."""


def format_snapshot(snapshot: dict[str, dict[str, Any]]) -> str:
    """Human-readable multi-line rendering of a :meth:`Telemetry.snapshot`.

    Timers are sorted by total time (the stage breakdown), counters and
    gauges alphabetically.
    """
    lines: list[str] = []
    timers = snapshot.get("timers", {})
    if timers:
        lines.append("stage timings (by total wall-clock):")
        width = max(len(n) for n in timers)
        ordered = sorted(
            timers.items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
        for name, t in ordered:
            lines.append(
                f"  {name:<{width}}  n={t['count']:<6d} "
                f"total={1e3 * t['total_s']:9.3f} ms  "
                f"mean={1e3 * t['mean_s']:8.3f} ms"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:<{width}}  {shown}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]}")
    return "\n".join(lines) if lines else "(no telemetry recorded)"
