"""The GalioT gateway: front end -> detect -> extract -> compress -> ship.

:class:`GalioTGateway` holds the gateway-side pieces exactly as Figure 2
of the paper draws them, and the per-segment stages: the front end
(:meth:`~GalioTGateway.capture_front_end`), jam-gated admission
(:meth:`~GalioTGateway.admit_event`) and edge -> compress -> backhaul
(:meth:`~GalioTGateway.ship_segment`).
:class:`repro.gateway.streaming.StreamingGateway` drives them over a
sample stream, chunk by chunk. :meth:`GalioTGateway.process` is that
stream over one chunk: it takes a scene capture and returns everything
downstream layers need — the shipped segments (optionally after an
edge decode pass), the backhaul accounting and the detection events
themselves. So a capture and a chunked stream share one receive path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..contracts import iq_contract
from ..dsp.impairments import output_buffer
from ..errors import CapacityError, ConfigurationError, checked_positive
from ..guard import DecodeGuard
from ..phy.base import Modem
from ..sensing.jamming import JammingDetector, JammingEvent
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult, DetectionEvent, Segment
from .backhaul import BackhaulLink
from .compression import SegmentCodec
from .detection import EnergyDetector, PreambleBankDetector
from .edge import EdgeDecoder, rebase_starts
from .extractor import SegmentExtractor
from .resilience import DegradationLadder, ResilientBackhaul, SpillEntry
from .rtlsdr import RtlSdrModel
from .universal import UniversalPreamble, UniversalPreambleDetector

__all__ = ["GatewayReport", "GalioTGateway"]


@dataclass
class GatewayReport:
    """Everything a gateway pass produced.

    Attributes:
        events: Raw detection events.
        segments: Extracted segments (pre-compression).
        shipped: Segments destined for the cloud (post-edge filtering).
        edge_results: Frames the edge resolved locally, with
            capture-time starts like the cloud's.
        shipped_bits: Total bits placed on the backhaul.
        raw_bits: Bits a ship-everything design would have sent.
        dropped_segments: Segments lost to backhaul overload (with a
            :class:`~repro.gateway.resilience.ResilientBackhaul`, only
            explicit drop-policy evictions land here).
        degraded_segments: Segments shipped metadata-only by the
            degradation ladder (the cloud cannot joint-decode them).
        jamming_events: Spectrum anomalies the gateway's
            :class:`~repro.sensing.jamming.JammingDetector` flagged
            (empty when no detector is configured).
    """

    events: list[DetectionEvent] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    shipped: list[Segment] = field(default_factory=list)
    edge_results: list[DecodeResult] = field(default_factory=list)
    shipped_bits: int = 0
    raw_bits: int = 0
    dropped_segments: int = 0
    degraded_segments: int = 0
    jamming_events: list[JammingEvent] = field(default_factory=list)

    @property
    def backhaul_saving(self) -> float:
        """Raw-stream bits divided by actually-shipped bits.

        An empty pass (no samples seen, nothing shipped) reports 1.0:
        no traffic existed, so nothing was saved or wasted.
        """
        if self.raw_bits <= 0:
            return 1.0
        if self.shipped_bits <= 0:
            return float("inf")
        return self.raw_bits / self.shipped_bits

    def absorb(self, other: GatewayReport) -> GatewayReport:
        """Fold another report's contents into this one, in place.

        Used by the streaming front to merge incremental chunk reports;
        the merged totals equal one monolithic pass over the same
        samples. Returns ``self`` for chaining.
        """
        self.events.extend(other.events)
        self.segments.extend(other.segments)
        self.shipped.extend(other.shipped)
        self.edge_results.extend(other.edge_results)
        self.shipped_bits += other.shipped_bits
        self.raw_bits += other.raw_bits
        self.dropped_segments += other.dropped_segments
        self.degraded_segments += other.degraded_segments
        self.jamming_events.extend(other.jamming_events)
        return self

    @staticmethod
    def merged(reports: list[GatewayReport]) -> GatewayReport:
        """A fresh report holding the sum of ``reports`` (in order)."""
        total = GatewayReport()
        for report in reports:
            total.absorb(report)
        return total


class GalioTGateway:
    """An inexpensive software-radio gateway with universal detection.

    Args:
        modems: Registered technologies (the "software update" surface).
        sample_rate_hz: Capture sample rate.
        detector: ``"universal"`` (GalioT), ``"bank"`` (optimal,
            per-technology) or ``"energy"`` (baseline).
        front_end: RTL-SDR model; ``None`` processes the clean stream.
        use_edge: Run the edge decode pass before shipping.
        codec: Segment compression codec.
        backhaul: Uplink model (``None`` for unlimited). Pass a
            :class:`~repro.gateway.resilience.ResilientBackhaul` for
            spill-and-retry shipping instead of drop-on-overload.
        degradation: Optional
            :class:`~repro.gateway.resilience.DegradationLadder`; under
            sustained backpressure shipping degrades full -> compressed
            -> metadata-only and recovers when the link heals. It reads
            the pressure of a ``ResilientBackhaul``, so it needs one.
        jamming: Optional
            :class:`~repro.sensing.jamming.JammingDetector` fed every
            front-end sample; its events land in the report and its
            pressure signal is folded into the degradation ladder, so
            jamming-induced backpressure degrades shipping early.
        guard: Optional :class:`~repro.guard.DecodeGuard` applied to
            edge-decoded frames (replay / duplicate admission control).
            Share the instance with the cloud service so a frame
            accepted on either side inoculates the other.
        telemetry: Metrics sink threaded through every stage (the
            shared no-op by default).
        detector_kwargs: Extra arguments for the chosen detector.

    Raises:
        ConfigurationError: for a sample rate that is not positive and
            finite, a ``degradation`` ladder without a
            ``ResilientBackhaul``, or an unknown ``detector``.
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float = 1e6,
        detector: str = "universal",
        front_end: RtlSdrModel | None = None,
        use_edge: bool = True,
        codec: SegmentCodec | None = None,
        backhaul: BackhaulLink | ResilientBackhaul | None = None,
        degradation: DegradationLadder | None = None,
        jamming: JammingDetector | None = None,
        guard: DecodeGuard | None = None,
        telemetry: Telemetry | None = None,
        **detector_kwargs,
    ):
        if degradation is not None and not isinstance(backhaul, ResilientBackhaul):
            raise ConfigurationError(
                "a degradation ladder needs a ResilientBackhaul to read pressure from"
            )
        self.modems = list(modems)
        self.sample_rate_hz = checked_positive("sample_rate_hz", sample_rate_hz)
        self.front_end = front_end
        self.use_edge = use_edge
        self.telemetry = telemetry if telemetry is not None else NULL
        self.codec = codec or SegmentCodec(telemetry=self.telemetry)
        if self.codec.telemetry is NULL:
            self.codec.telemetry = self.telemetry
        self.backhaul = backhaul
        if self.backhaul is not None and self.backhaul.telemetry is NULL:
            self.backhaul.telemetry = self.telemetry
            if isinstance(self.backhaul, ResilientBackhaul):
                self.backhaul.link.telemetry = self.telemetry
        self.degradation = degradation
        if self.degradation is not None and self.degradation.telemetry is NULL:
            self.degradation.telemetry = self.telemetry
        self.jamming = jamming
        if self.jamming is not None and self.jamming.telemetry is NULL:
            self.jamming.telemetry = self.telemetry
        self.guard = guard
        if self.guard is not None and self.guard.telemetry is NULL:
            self.guard.telemetry = self.telemetry
        self._degraded_codec: SegmentCodec | None = None
        self.extractor = SegmentExtractor(
            self.modems, self.sample_rate_hz, telemetry=self.telemetry
        )
        self.edge = (
            EdgeDecoder(self.modems, self.sample_rate_hz, telemetry=self.telemetry)
            if use_edge
            else None
        )
        if detector == "universal":
            universal = UniversalPreamble.build(self.modems, self.sample_rate_hz)
            self.detector = UniversalPreambleDetector(
                universal, telemetry=self.telemetry, **detector_kwargs
            )
        elif detector == "bank":
            self.detector = PreambleBankDetector(
                self.modems, self.sample_rate_hz, telemetry=self.telemetry, **detector_kwargs
            )
        elif detector == "energy":
            self.detector = EnergyDetector(
                telemetry=self.telemetry, **detector_kwargs
            )
        else:
            raise ConfigurationError(f"unknown detector {detector!r}")

    @iq_contract("capture")
    def capture_front_end(
        self,
        capture: np.ndarray,
        rng: np.random.Generator | None,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int]:
        """Run the front-end model; returns ``(samples, raw_bits)``.

        ``raw_bits`` is what a ship-everything design would have put on
        the wire for these samples (ADC width when a front end models
        one, 8 bits per rail otherwise). With ``out`` (a contiguous
        complex128 array of the capture's length, such as the tail of a
        stream buffer) the samples are written there once and
        ``samples`` is ``out``: the front end writes a complex128
        capture into it directly, and any other capture is copied in
        (the front end models it at its own precision).

        Raises:
            ConfigurationError: for an ``out`` of another shape or dtype.
        """
        capture = np.asarray(capture)
        if self.front_end is not None:
            direct = out if capture.dtype == np.complex128 else None
            samples = self.front_end.capture(capture, rng, out=direct)
            raw_bits = int(len(samples) * 2 * self.front_end.config.adc_bits)
        else:
            samples = capture
            raw_bits = len(samples) * 2 * 8
        if out is not None and samples is not out:
            out = output_buffer(out, samples.shape, np.complex128)
            out[...] = samples
            samples = out
        if self.jamming is not None:
            self.jamming.feed(samples)
        return samples, raw_bits

    def reset_stream(self) -> None:
        """Start a new sample stream: rewind the front end's sample
        cursor and reset the jamming detector's baseline and blocks."""
        if self.front_end is not None:
            self.front_end.reset_stream()
        if self.jamming is not None:
            self.jamming.reset()

    def admit_event(self, event: DetectionEvent) -> bool:
        """Jam-gated detection admission.

        A wideband jammer raises the noise floor, and with it the
        scores of pure noise — without a gate, every burst floods the
        extractor with spurious events whose segments then drown the
        backhaul (jamming-induced backpressure). During a block the
        jamming detector attributes to sustained interference, a
        detection must still stand out over the measured floor rise;
        the detector judges that in its own score's units
        (``clears_floor``). Without a jamming detector or a floor rise,
        every event is admitted unchanged.
        """
        if self.jamming is None:
            return True
        rise_db = self.jamming.rise_at(event.index / self.sample_rate_hz)
        if rise_db <= 0 or self.detector.clears_floor(event, rise_db):
            return True
        self.telemetry.count("attack.gated_detections")
        return False

    # Fixed metadata-only wire cost: a 16-byte segment header plus one
    # 32-byte record (start, length, rate, score, technology tag) per
    # detection. No I/Q leaves the gateway at this degradation level.
    _METADATA_HEADER_BITS = 8 * 16
    _METADATA_EVENT_BITS = 8 * 32

    def ship_segment(self, segment: Segment, report: GatewayReport) -> None:
        """Run one segment through edge -> compress -> backhaul.

        Mutates ``report`` (edge results, shipped list, bit and drop
        counters). Edge frames carry capture-time starts, as cloud
        frames do.

        With a plain :class:`BackhaulLink`, overload drops the segment
        (counted). With a :class:`ResilientBackhaul`, refusals spill and
        retry; the only loss is an explicit drop-policy eviction, and
        deliveries (including older spilled segments that just got
        through) are folded into ``report`` as they happen.
        """
        ship = True
        if self.edge is not None:
            outcome = self.edge.try_decode(segment)
            results = rebase_starts(
                outcome.results,
                segment.start,
                self.sample_rate_hz,
                {m.name: m.sample_rate for m in self.modems},
            )
            if self.guard is not None:
                results = self.guard.filter(results, self.sample_rate_hz)
            report.edge_results.extend(results)
            ship = outcome.ship_to_cloud
        if not ship:
            return
        at_time = segment.start / self.sample_rate_hz
        resilient = isinstance(self.backhaul, ResilientBackhaul)
        level = DegradationLadder.FULL
        if self.degradation is not None:
            pressure = self.backhaul.pressure(at_time)
            if self.jamming is not None:
                jam = self.jamming.pressure_at(at_time)
                if jam > 0:
                    self.telemetry.gauge("attack.jam_pressure", jam)
                pressure = max(pressure, jam)
            level = self.degradation.observe(pressure)
        stats = None
        if level >= DegradationLadder.METADATA:
            n_bits = self._METADATA_HEADER_BITS + self._METADATA_EVENT_BITS * max(
                1, len(segment.detections)
            )
            payload = None
            metadata_only = True
        else:
            codec = self.codec if level == DegradationLadder.FULL else self._degraded()
            compressed, stats = codec.compress(segment)
            n_bits = compressed.n_bits
            payload = segment
            metadata_only = False
        if resilient:
            score = max((e.score for e in segment.detections), default=0.0)
            outcome = self.backhaul.ship(
                n_bits,
                at_time,
                score=score,
                payload=payload,
                metadata_only=metadata_only,
            )
            if outcome.status == "spilled":
                self.telemetry.count("gateway.spilled_segments")
            self.account_deliveries(outcome.delivered, outcome.evicted, report)
            if stats is not None and outcome.status == "delivered":
                self.telemetry.gauge("gateway.last_compression_ratio", stats.ratio)
            return
        if self.backhaul is not None:
            try:
                self.backhaul.ship(n_bits, at_time)
            except CapacityError:
                report.dropped_segments += 1
                self.telemetry.count("gateway.dropped_segments")
                return
        report.shipped_bits += n_bits
        report.shipped.append(segment)
        self.telemetry.count("gateway.shipped_segments")
        self.telemetry.count("gateway.shipped_bits", n_bits)
        if stats is not None:
            self.telemetry.gauge("gateway.last_compression_ratio", stats.ratio)

    def _degraded(self) -> SegmentCodec:
        """The ladder's level-1 codec: at most 4 bits per rail."""
        if self._degraded_codec is None:
            self._degraded_codec = SegmentCodec(
                bits=min(self.codec.bits, 4), telemetry=self.telemetry
            )
        return self._degraded_codec

    def account_deliveries(
        self,
        delivered: tuple[SpillEntry, ...] | list[SpillEntry],
        evicted: tuple[SpillEntry, ...] | list[SpillEntry],
        report: GatewayReport,
    ) -> None:
        """Fold resilient-backhaul deliveries/evictions into a report.

        A delivered entry becomes a shipped segment (or a degraded,
        metadata-only ship); an evicted entry is the drop policy's
        explicit loss and lands in ``dropped_segments``.
        """
        for entry in delivered:
            report.shipped_bits += entry.n_bits
            if entry.metadata_only:
                report.degraded_segments += 1
                self.telemetry.count("gateway.degraded_segments")
                self.telemetry.count("gateway.shipped_bits", entry.n_bits)
            else:
                report.shipped.append(entry.payload)
                self.telemetry.count("gateway.shipped_segments")
                self.telemetry.count("gateway.shipped_bits", entry.n_bits)
        for _ in evicted:
            report.dropped_segments += 1
            self.telemetry.count("gateway.dropped_segments")

    @iq_contract("capture")
    def process(
        self, capture: np.ndarray, rng: np.random.Generator | None = None
    ) -> GatewayReport:
        """Run the full gateway pipeline over one capture: a
        :class:`~repro.gateway.streaming.StreamingGateway` stream of one
        chunk."""
        from .streaming import StreamingGateway  # streaming imports this module

        with self.telemetry.span("gateway"):
            return StreamingGateway(self).process_stream([capture], rng)
