"""Edge decoding: try locally, ship to the cloud only on failure.

Sec. 4 of the paper: "*I/Q samples are pushed to the edge for decoding
individual technologies (assuming no collisions) and shipped to the
cloud only if decoding fails.*" The edge runs the plain single-frame
demodulators — no kill filters, no SIC — so an uncollided segment is
resolved in one pass while a same-power collision falls through to the
cloud.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace

from ..dsp.resample import to_rate
from ..errors import ReproError
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult, Segment

__all__ = ["EdgeOutcome", "EdgeDecoder", "rebase_starts"]


def rebase_starts(
    results: Iterable[DecodeResult],
    segment_start: int,
    sample_rate_hz: float,
    native_rates: Mapping[str, float],
) -> list[DecodeResult]:
    """Frames with their starts re-based onto capture-time sample indices.

    A decoder (the edge's or the cloud's) reports a frame's start in the
    decoding modem's native-rate samples, counted from the segment
    start. Each start is converted to the capture rate before the
    segment's capture-rate offset is added, so every technology's frames
    land on the capture's own sample axis.

    Args:
        results: Frames decoded from one segment.
        segment_start: Capture index of the segment's first sample.
        sample_rate_hz: Capture sample rate the segment was decoded at.
        native_rates: Native sample rate per technology name.
    """
    return [
        replace(
            r,
            start=segment_start
            + int(round(r.start * sample_rate_hz / native_rates[r.technology])),
        )
        for r in results
    ]


@dataclass
class EdgeOutcome:
    """Result of the edge's attempt on one segment.

    Attributes:
        results: Frames recovered locally (CRC-clean only).
        ship_to_cloud: Whether the segment still needs the cloud.
    """

    results: list[DecodeResult]
    ship_to_cloud: bool


class EdgeDecoder:
    """Single-technology decode pass running on the gateway/edge node.

    Args:
        modems: Registered technologies.
        sample_rate_hz: Capture sample rate of incoming segments.
        telemetry: Metrics sink (the shared no-op by default).
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        telemetry: Telemetry = NULL,
    ):
        self.modems = list(modems)
        self.sample_rate_hz = float(sample_rate_hz)
        self.telemetry = telemetry

    def try_decode(self, segment: Segment) -> EdgeOutcome:
        """Attempt a plain decode of every technology on the segment.

        The segment ships when nothing decoded, and also when its
        detector found more events than frames decoded: a potential
        collision, whose other frames the cloud may recover.
        """
        results: list[DecodeResult] = []
        with self.telemetry.span("edge"):
            for modem in self.modems:
                try:
                    native = to_rate(segment.samples, self.sample_rate_hz, modem.sample_rate)
                    frame = modem.demodulate(native)
                except ReproError:
                    continue
                if frame.crc_ok:
                    results.append(
                        DecodeResult(
                            technology=modem.name,
                            payload=frame.payload,
                            ok=True,
                            method="direct",
                            start=frame.start,
                        )
                    )
        ship = not results or len(segment.detections) > len(results)
        self.telemetry.count("edge.segments")
        self.telemetry.count("edge.frames", len(results))
        if not ship:
            self.telemetry.count("edge.resolved_locally")
        return EdgeOutcome(results=results, ship_to_cloud=ship)
