"""Segment extraction: what actually gets shipped off the gateway.

Per the paper (Sec. 4): "*We then conservatively ship samples
corresponding to twice the maximum packet length across technologies
around the detected preamble*". The extractor turns detection events
into such segments and merges overlapping ones, so a collision is
shipped as a single contiguous segment containing every colliding
packet.

The window rule lives once, in :class:`ExtractorStream`: each sample
stream keeps one, and :meth:`SegmentExtractor.extract` runs one over a
whole capture.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..contracts import iq_contract
from ..errors import ConfigurationError
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DetectionEvent, Segment

__all__ = ["ExtractorStream", "SegmentExtractor", "max_frame_samples"]

#: Payload size (bytes) used to bound the frame length.
TYPICAL_PAYLOAD = 32
#: Segment length as a multiple of the maximum frame (the paper ships 2x).
SPAN_FACTOR = 2.0
#: Portion of the segment placed *before* the event (detectors fire at
#: the preamble, so most of the span goes after it).
PRE_FRACTION = 0.1


def max_frame_samples(modems: list[Modem], sample_rate_hz: float, payload_len: int) -> int:
    """Largest frame length across technologies, in capture samples."""
    if not modems:
        raise ConfigurationError("at least one modem is required")
    return max(
        math.ceil(m.frame_airtime(min(payload_len, m.max_payload)) * sample_rate_hz)
        for m in modems
    )


class SegmentExtractor:
    """Cuts ship-to-cloud segments around detection events.

    Args:
        modems: Registered technologies (to size the maximum packet).
        sample_rate_hz: Capture sample rate.
        telemetry: Metrics sink (the shared no-op by default).

    Attributes:
        max_frame: Longest frame of a :data:`TYPICAL_PAYLOAD`-byte
            payload across ``modems``, in capture samples.
        span: Segment length, :data:`SPAN_FACTOR` times ``max_frame``.
        pre: Samples of the span placed before the event.
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        telemetry: Telemetry = NULL,
    ):
        self.sample_rate_hz = float(sample_rate_hz)
        self.max_frame = max_frame_samples(modems, sample_rate_hz, TYPICAL_PAYLOAD)
        self.span = math.ceil(SPAN_FACTOR * self.max_frame)
        self.pre = math.ceil(self.span * PRE_FRACTION)
        self.telemetry = telemetry

    def stream(self) -> ExtractorStream:
        """Fresh window state for one sample stream."""
        return ExtractorStream(self)

    @iq_contract("samples")
    def extract(
        self, samples: np.ndarray, events: list[DetectionEvent]
    ) -> list[Segment]:
        """Cut (merged) segments around ``events``: one
        :class:`ExtractorStream` over the whole capture.

        Returns:
            Segments sorted by start; each carries the events it covers.
        """
        if not events:
            return []
        with self.telemetry.span("extract"):
            stream = self.stream()
            for event in sorted(events, key=lambda e: e.index):
                stream.add(event)
            segments = list(stream.close(samples, 0, horizon=None))
        self.telemetry.count("extract.segments", len(segments))
        self.telemetry.count(
            "extract.samples_out", sum(s.length for s in segments)
        )
        return segments


@dataclass
class _Window:
    """One open extraction window (absolute sample indices)."""

    lo: int
    hi: int
    events: list[DetectionEvent] = field(default_factory=list)


class ExtractorStream:
    """The extraction windows of one sample stream.

    An event at ``index`` asks for the window
    ``[index - pre, index - pre + span)``, clamped at the stream start;
    a window overlapping (or touching) the last open one merges into
    it; a window closes once its samples have arrived and no future
    event can merge into it; at stream end the open windows close,
    clamped to the samples that exist. So a packet bisected by a chunk
    boundary ships once, in one piece, and any chunking yields the
    segments of one whole-capture pass. Events must arrive in index
    order; build one per stream with :meth:`SegmentExtractor.stream`.
    """

    def __init__(self, extractor: SegmentExtractor):
        self.extractor = extractor
        self._windows: list[_Window] = []

    def add(self, event: DetectionEvent) -> None:
        """Open a window for ``event`` or merge it into the last one."""
        lo = max(event.index - self.extractor.pre, 0)
        hi = event.index - self.extractor.pre + self.extractor.span
        if self._windows and lo <= self._windows[-1].hi:
            last = self._windows[-1]
            last.hi = max(last.hi, hi)
            last.events.append(event)
        else:
            self._windows.append(_Window(lo=lo, hi=hi, events=[event]))

    def first_needed(self, horizon: int) -> int:
        """Earliest sample a window can still cut, when every future
        event lies at ``horizon`` or later."""
        first = horizon - self.extractor.pre
        if self._windows:
            first = min(first, self._windows[0].lo)
        return first

    @iq_contract("samples")
    def close(
        self, samples: np.ndarray, start: int, horizon: int | None
    ) -> Iterator[Segment]:
        """Cut every window that can no longer change, oldest first.

        A window leaves the stream only as its segment is taken, so a
        consumer that stops early (a raising ship hook) loses none.

        Args:
            samples: The stream's samples from absolute index ``start``
                to the newest sample that has arrived.
            start: Absolute index of ``samples[0]``.
            horizon: Lowest index a future event can have; ``None`` once
                the stream has ended, which closes every window.
        """
        end = start + len(samples)
        while self._windows:
            window = self._windows[0]
            if horizon is None:
                hi = min(window.hi, end)
            else:
                if window.hi > end:
                    return  # its samples have not all arrived yet
                if (
                    len(self._windows) == 1
                    and horizon - self.extractor.pre <= window.hi
                ):
                    return  # a future event could still extend it
                hi = window.hi
            self._windows.pop(0)
            yield Segment(
                start=window.lo,
                samples=samples[window.lo - start : hi - start].copy(),
                sample_rate=self.extractor.sample_rate_hz,
                detections=window.events,
            )
