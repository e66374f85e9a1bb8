"""The GalioT cloud service: joint-decode shipped segments.

Feeds each shipped :class:`~repro.types.Segment` (a gateway report's
``shipped`` list) to the Algorithm-1 decoder and aggregates statistics
across segments — the "GalioT Cloud" box of Figure 2. The cloud takes
segments only; a caller holding a wire blob decompresses it with the
:class:`~repro.gateway.compression.SegmentCodec` that made it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gateway.edge import rebase_starts
from ..guard import DecodeGuard
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult, Segment
from .decoder import CloudDecodeReport, CloudDecoder

__all__ = ["CloudStats", "CloudService"]


@dataclass
class CloudStats:
    """Aggregate counters across all processed segments.

    ``kill_invocations`` sums the segments' kill filters that actually
    ran (:attr:`CloudDecodeReport.kill_invocations
    <repro.cloud.decoder.CloudDecodeReport.kill_invocations>`): within a
    segment, each (victim, residual) pair is filtered once, however many
    target technologies try it.

    The last four fields are resilience outcomes, written by the
    parallel decode farm's fault handling (a serial, fault-free run
    leaves them at zero):

    * ``retried`` — decode attempts repeated after a decode exception;
    * ``requeued`` — submissions re-dispatched after a worker crash or
      a per-segment decode timeout;
    * ``quarantined`` — segments given up on after exhausting retries
      (poison) or requeues (persistent crash/hang);
    * ``degraded`` — decode-timeout events: a segment that overran its
      budget at least once, whether its requeue later succeeded or not.
    """

    segments: int = 0
    frames_decoded: int = 0
    by_method: dict[str, int] = field(default_factory=dict)
    by_technology: dict[str, int] = field(default_factory=dict)
    kill_invocations: int = 0
    sic_cancellations: int = 0
    retried: int = 0
    requeued: int = 0
    quarantined: int = 0
    degraded: int = 0

    def absorb(self, report: CloudDecodeReport) -> None:
        """Fold one segment's report into the totals."""
        self.segments += 1
        self.kill_invocations += report.kill_invocations
        self.sic_cancellations += report.sic_cancellations
        for result in report.results:
            self.frames_decoded += 1
            self.by_method[result.method] = (
                self.by_method.get(result.method, 0) + 1
            )
            self.by_technology[result.technology] = (
                self.by_technology.get(result.technology, 0) + 1
            )

    def merge(self, other: CloudStats) -> None:
        """Fold another stats block into this one (worker rollup).

        Merging the per-segment stats of any partition of a workload, in
        any order, yields the same totals as processing it serially.
        """
        self.segments += other.segments
        self.frames_decoded += other.frames_decoded
        self.kill_invocations += other.kill_invocations
        self.sic_cancellations += other.sic_cancellations
        self.retried += other.retried
        self.requeued += other.requeued
        self.quarantined += other.quarantined
        self.degraded += other.degraded
        for method, n in other.by_method.items():
            self.by_method[method] = self.by_method.get(method, 0) + n
        for technology, n in other.by_technology.items():
            self.by_technology[technology] = (
                self.by_technology.get(technology, 0) + n
            )


class CloudService:
    """Stateful cloud endpoint consuming shipped segments.

    Args:
        modems: Registered technologies.
        sample_rate_hz: Capture sample rate of arriving segments.
        use_kill_filters: False runs the classic-SIC baseline (see
            :class:`~repro.cloud.decoder.CloudDecoder`).
        guard: Optional :class:`~repro.guard.DecodeGuard` applied to
            every decoded frame (replay / duplicate / false-decode
            admission control). Share one instance with the gateway's
            edge decoder so edge-resolved frames inoculate the cloud.
        telemetry: Metrics sink threaded into the decoder and guard
            (the shared no-op by default).
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        use_kill_filters: bool = True,
        guard: DecodeGuard | None = None,
        sync_retries: int = 0,
        telemetry: Telemetry = NULL,
    ):
        self.telemetry = telemetry
        self.decoder = CloudDecoder(
            modems,
            sample_rate_hz,
            use_kill_filters=use_kill_filters,
            sync_retries=sync_retries,
            telemetry=telemetry,
        )
        self.guard = guard
        if self.guard is not None and self.guard.telemetry is NULL:
            self.guard.telemetry = telemetry
        self.stats = CloudStats()

    def process_segment(self, segment: Segment) -> list[DecodeResult]:
        """Joint-decode one shipped segment; frame starts come back as
        capture-time sample indices."""
        with self.telemetry.span("cloud.pipeline"):
            report = self.decoder.decode(segment.samples)
        self.stats.absorb(report)
        capture_rate = self.decoder.sample_rate_hz
        results = rebase_starts(
            report.results,
            segment.start,
            capture_rate,
            {name: m.sample_rate for name, m in self.decoder.modems.items()},
        )
        if self.guard is not None:
            results = self.guard.filter(results, capture_rate)
        return results
