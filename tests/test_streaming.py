"""Tests for the chunked streaming gateway front.

The core contract: with a frozen detection threshold, streaming a
capture in chunks of *any* size produces exactly the events, segments
and shipped bits of one ``process()`` call (a one-chunk stream) —
including when a chunk boundary bisects a preamble or a ship window.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SampleGap
from repro.gateway import (
    EnergyDetector,
    GalioTGateway,
    GatewayReport,
    RtlSdrModel,
    StreamingGateway,
    iter_chunks,
)
from repro.net.scene import SceneBuilder
from repro.phy import create_modem
from repro.telemetry import NULL, Telemetry

FS = 1e6

# The xbee packet starts at 40_000; its resampled preamble spans a few
# thousand samples, so a 41_000-sample chunk boundary bisects it.
PACKETS = (("xbee", 40_000), ("zwave", 300_000), ("lora", 650_000))
CHUNK_SIZES = (41_000, 100_000, 262_144)
#: Energy scene: each of ENERGY_CHUNK_SIZES puts a chunk join inside a
#: packet, past the first rising edge of its power.
ENERGY_PACKETS = (
    ("xbee", 40_000), ("lora", 195_000), ("zwave", 420_000), ("xbee", 600_000)
)
ENERGY_CHUNK_SIZES = (7_000, 41_000, 100_000)


@pytest.fixture(scope="module")
def stream_scene():
    """One scene + calibrated threshold + monolithic reference."""
    rng = np.random.default_rng(0xC0FFEE)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    builder = SceneBuilder(FS, 1.0)
    by = {m.name: m for m in modems}
    for i, (name, start) in enumerate(PACKETS):
        builder.add_packet(
            by[name], f"pkt-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    capture, truth = builder.render(rng)
    noise = (
        rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    ) * np.sqrt(truth.noise_power / 2)
    probe = GalioTGateway(modems, FS, use_edge=False)
    threshold = probe.detector.calibrate(noise)
    mono = GalioTGateway(modems, FS, use_edge=False, threshold=threshold)
    reference = mono.process(capture)
    assert len(reference.segments) == len(PACKETS)  # sanity: all separate
    return modems, capture, threshold, reference


@pytest.fixture(scope="module")
def energy_scene():
    """A multi-packet scene, a frozen energy threshold and ``process()``."""
    rng = np.random.default_rng(0xE7)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    builder = SceneBuilder(FS, 0.8)
    by = {m.name: m for m in modems}
    for i, (name, start) in enumerate(ENERGY_PACKETS):
        builder.add_packet(
            by[name], f"energy-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    capture, truth = builder.render(rng)
    noise = (
        rng.normal(size=100_000) + 1j * rng.normal(size=100_000)
    ) * np.sqrt(truth.noise_power / 2)
    threshold = EnergyDetector().calibrate(noise)
    reference = _gateway(modems, threshold, detector="energy").process(capture)
    assert len(reference.events) == len(ENERGY_PACKETS)  # sanity
    return modems, capture, threshold, reference


def _gateway(modems, threshold, **kwargs):
    kwargs.setdefault("use_edge", False)
    return GalioTGateway(modems, FS, threshold=threshold, **kwargs)


class TestExactEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_matches_monolithic(self, stream_scene, chunk_size):
        modems, capture, threshold, reference = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        merged = stream.process_stream(iter_chunks(capture, chunk_size))
        assert [(e.index, e.technology) for e in merged.events] == [
            (e.index, e.technology) for e in reference.events
        ]
        assert [(s.start, s.length) for s in merged.segments] == [
            (s.start, s.length) for s in reference.segments
        ]
        assert merged.shipped_bits == reference.shipped_bits
        assert merged.raw_bits == reference.raw_bits
        assert len(merged.shipped) == len(reference.shipped)
        assert merged.dropped_segments == reference.dropped_segments

    def test_bank_detector_matches_monolithic(self, stream_scene):
        modems, capture, _, _ = stream_scene
        rng = np.random.default_rng(7)
        noise = (
            rng.normal(size=150_000) + 1j * rng.normal(size=150_000)
        ) * 0.1
        probe = GalioTGateway(modems, FS, detector="bank", use_edge=False)
        thresholds = probe.detector.calibrate(noise)
        mono = GalioTGateway(
            modems, FS, detector="bank", use_edge=False, threshold=thresholds
        )
        reference = mono.process(capture)
        stream = StreamingGateway(
            GalioTGateway(
                modems,
                FS,
                detector="bank",
                use_edge=False,
                threshold=thresholds,
            )
        )
        merged = stream.process_stream(iter_chunks(capture, 100_000))
        assert [(e.index, e.technology) for e in merged.events] == [
            (e.index, e.technology) for e in reference.events
        ]
        assert merged.shipped_bits == reference.shipped_bits

    def test_incremental_reports_partition_the_work(self, stream_scene):
        modems, capture, threshold, reference = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        reports = list(stream.run(iter_chunks(capture, 100_000)))
        # One report per chunk plus the finalize flush.
        assert len(reports) == -(-len(capture) // 100_000) + 1
        merged = GatewayReport.merged(reports)
        assert len(merged.events) == len(reference.events)
        assert merged.shipped_bits == reference.shipped_bits
        # Every event is reported exactly once, in stream order.
        indices = [e.index for e in merged.events]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


    def test_streams_over_one_gateway_are_independent(self, stream_scene):
        # Window state belongs to each stream, not to the shared gateway
        # or its extractor: two interleaved streams each match the
        # monolithic pass.
        modems, capture, threshold, reference = stream_scene
        gateway = _gateway(modems, threshold)
        streams = [StreamingGateway(gateway), StreamingGateway(gateway)]
        reports = [[], []]
        for chunk in iter_chunks(capture, 41_000):
            for stream, out in zip(streams, reports, strict=True):
                out.append(stream.process_chunk(chunk))
        for stream, out in zip(streams, reports, strict=True):
            out.append(stream.finalize())
            merged = GatewayReport.merged(out)
            assert [(s.start, s.length) for s in merged.segments] == [
                (s.start, s.length) for s in reference.segments
            ]
            assert merged.shipped_bits == reference.shipped_bits


class TestStreamBuffer:
    """The front end writes each chunk once, into the tail of the
    stream's next buffer, behind a copy of the carry: chunk by chunk
    the stream holds what a concatenation of the front end's own
    outputs holds, dropouts and a zero-power chunk included, and emits
    the events and segments of a stream of those outputs."""

    @pytest.mark.parametrize(
        "gaps",
        [(), ((45_000, 3_000), (390_000, 20_000), (520_000, 1_000))],
        ids=["no-gaps", "gaps"],
    )
    def test_matches_a_concatenating_reference(self, stream_scene, gaps):
        modems, capture, threshold, _ = stream_scene
        chunks = list(iter_chunks(capture, 100_000))
        # Zero power: the AGC returns early, and its zeros (not the
        # buffer's old contents) must land in the stream's buffer.
        chunks[5] = np.zeros_like(chunks[5])
        plan = FaultPlan(sample_gaps=tuple(SampleGap(*g) for g in gaps))
        reference_front = RtlSdrModel(faults=plan)
        captured = [reference_front.capture(c) for c in chunks]
        held = np.concatenate(captured)
        assert np.all(held[500_000:600_000] == 0)
        front = RtlSdrModel(faults=plan)
        model_capture, direct = front.capture, []

        def capture_into(x, rng=None, out=None):
            result = model_capture(x, rng, out=out)
            direct.append(out is not None and result is out)
            return result

        front.capture = capture_into
        stream = StreamingGateway(_gateway(modems, threshold, front_end=front))
        reports = []
        for chunk in chunks:
            reports.append(stream.process_chunk(chunk))
            assert np.array_equal(
                stream._buffer, held[stream._buf_start : stream._pos]
            )
        assert direct == [True] * len(chunks)  # written once, in place
        reports.append(stream.finalize())
        merged = GatewayReport.merged(reports)
        assert front.dropped_samples == reference_front.dropped_samples
        # The gap at 520,000 lies in the silent chunk and counts too.
        assert front.dropped_samples == sum(n for _, n in gaps)
        reference = StreamingGateway(_gateway(modems, threshold)).process_stream(
            captured
        )
        assert merged.events
        assert [(e.index, e.technology, e.score) for e in merged.events] == [
            (e.index, e.technology, e.score) for e in reference.events
        ]
        assert [s.start for s in merged.segments] == [
            s.start for s in reference.segments
        ]
        for ours, theirs in zip(merged.segments, reference.segments, strict=True):
            assert np.array_equal(ours.samples, theirs.samples)
        assert merged.raw_bits == reference.raw_bits == 16 * len(capture)

    def test_without_front_end_the_chunk_is_copied_in(self, stream_scene):
        modems, capture, threshold, reference = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        for chunk in iter_chunks(capture, 262_144):
            stream.process_chunk(chunk.astype(np.complex64))
            assert stream._buffer.dtype == np.complex128
            assert np.array_equal(
                stream._buffer,
                capture[stream._buf_start : stream._pos].astype(np.complex64),
            )

    def test_a_capture_of_another_precision_is_modelled_at_its_own(self, rng):
        # A complex64 capture is quantized in single precision, as the
        # front end alone would, and then copied into the view.
        gateway = GalioTGateway(
            [create_modem("lora")], FS, front_end=RtlSdrModel(), use_edge=False
        )
        x = (rng.normal(size=4096) + 1j * rng.normal(size=4096)).astype(np.complex64)
        out = np.empty(4096, complex)
        samples, raw_bits = gateway.capture_front_end(x, None, out=out)
        assert samples is out and raw_bits == 2 * 8 * 4096
        assert np.array_equal(out, RtlSdrModel().capture(x))
        with pytest.raises(ConfigurationError, match="out must be"):
            gateway.capture_front_end(x, None, out=np.empty(4095, complex))


class TestStreamingLifecycle:
    def test_finalize_is_idempotent(self, stream_scene):
        modems, capture, threshold, _ = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        stream.process_chunk(capture[:100_000])
        first = stream.finalize()
        second = stream.finalize()
        assert second.events == []
        assert second.segments == []
        assert first.raw_bits == 0  # raw bits belong to chunk reports

    def test_chunk_after_finalize_rejected(self, stream_scene):
        modems, _, threshold, _ = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        stream.finalize()
        with pytest.raises(ConfigurationError):
            stream.process_chunk(np.zeros(10, complex))

    def test_reset_allows_reuse(self, stream_scene):
        modems, capture, threshold, reference = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        stream.process_stream(iter_chunks(capture, 262_144))
        stream.reset()
        merged = stream.process_stream(iter_chunks(capture, 262_144))
        assert len(merged.events) == len(reference.events)
        assert merged.shipped_bits == reference.shipped_bits

    def test_empty_chunks_are_harmless(self, stream_scene):
        modems, capture, threshold, reference = stream_scene
        stream = StreamingGateway(_gateway(modems, threshold))
        chunks = [capture[:500_000], capture[500_000:500_000], capture[500_000:]]
        merged = stream.process_stream(iter(chunks))
        assert len(merged.events) == len(reference.events)
        assert merged.shipped_bits == reference.shipped_bits

    def test_energy_detector_streams_with_per_chunk_cfar(self, stream_scene):
        # Per-chunk CFAR thresholds differ per chunk, so this stream is
        # approximate, but it must still find the loud packets.
        modems, capture, _, _ = stream_scene
        gateway = GalioTGateway(modems, FS, detector="energy", use_edge=False)
        merged = StreamingGateway(gateway).process_stream(
            iter_chunks(capture, 262_144)
        )
        assert merged.events
        assert merged.segments


class TestEnergyStreaming:
    @pytest.mark.parametrize("chunk_size", ENERGY_CHUNK_SIZES)
    def test_matches_process(self, energy_scene, chunk_size):
        # The energy detector streams through the correlation detectors'
        # candidate replay. Its keep-first-edge rule restarts in every
        # buffer, so the stream stays approximate in general, but a join
        # inside a packet no longer adds an event there.
        modems, capture, threshold, reference = energy_scene
        stream = StreamingGateway(_gateway(modems, threshold, detector="energy"))
        merged = stream.process_stream(iter_chunks(capture, chunk_size))
        assert [e.index for e in merged.events] == [
            e.index for e in reference.events
        ]
        np.testing.assert_allclose(
            [e.score for e in merged.events],
            [e.score for e in reference.events],
            rtol=1e-9,
        )
        assert [(s.start, s.length) for s in merged.segments] == [
            (s.start, s.length) for s in reference.segments
        ]

    def test_process_keeps_an_edge_in_the_last_window(self):
        # No score within one averaging window of the capture end has
        # its whole window; process() still reports the rising edge
        # there, as the detector does over the whole capture.
        rng = np.random.default_rng(9)
        capture = (rng.normal(size=60_000) + 1j * rng.normal(size=60_000)) / np.sqrt(2)
        threshold = EnergyDetector().calibrate(capture[:50_000])
        capture[-100:] *= 10
        gateway = _gateway([create_modem("xbee")], threshold, detector="energy")
        events = gateway.process(capture).events
        assert events == gateway.detector.detect(capture)
        assert events[-1].index > len(capture) - gateway.detector.window


class TestStreamingTelemetry:
    def test_stage_timings_are_recorded(self, stream_scene):
        modems, capture, threshold, _ = stream_scene
        telemetry = Telemetry()
        gateway = _gateway(modems, threshold, telemetry=telemetry)
        StreamingGateway(gateway).process_stream(iter_chunks(capture, 262_144))
        snap = telemetry.snapshot()
        n_chunks = -(-len(capture) // 262_144)
        assert snap["timers"]["stream.chunk.seconds"]["count"] == n_chunks
        for stage in ("stream.chunk", "stream.finalize", "detect", "compress"):
            assert snap["timers"][f"{stage}.seconds"]["total_s"] > 0, stage
        assert snap["counters"]["stream.samples_in"] == len(capture)
        assert snap["counters"]["stream.chunks"] == n_chunks
        assert snap["counters"]["detect.events"] > 0
        assert snap["counters"]["gateway.shipped_segments"] == len(PACKETS)

    @pytest.mark.parametrize("detector", ["universal", "bank"])
    def test_detect_events_counts_what_the_stream_emits(self, detector):
        # The second frame ends the capture: its events are still
        # contestable after the last chunk, so finalize() emits them.
        rng = np.random.default_rng(5)
        modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
        builder = SceneBuilder(FS, 0.5)
        for i, start in enumerate((40_000, 492_000)):
            builder.add_packet(
                modems[1], f"tail-{i}".encode(), start, 12, rng, snr_mode="capture"
            )
        capture, truth = builder.render(rng)
        noise = (
            rng.normal(size=100_000) + 1j * rng.normal(size=100_000)
        ) * np.sqrt(truth.noise_power / 2)
        probe = GalioTGateway(modems, FS, detector=detector, use_edge=False)
        threshold = probe.detector.calibrate(noise)
        for chunk_size in (100_000, len(capture)):
            telemetry = Telemetry()
            gateway = _gateway(
                modems, threshold, detector=detector, telemetry=telemetry
            )
            merged = StreamingGateway(gateway).process_stream(
                iter_chunks(capture, chunk_size)
            )
            assert merged.events
            counters = telemetry.snapshot()["counters"]
            assert counters["detect.events"] == len(merged.events), chunk_size

    def test_default_telemetry_is_shared_noop(self, stream_scene):
        modems, capture, threshold, _ = stream_scene
        gateway = _gateway(modems, threshold)
        stream = StreamingGateway(gateway)
        assert gateway.telemetry is NULL
        assert stream.telemetry is NULL
        stream.process_stream(iter_chunks(capture, 500_000))
        # The shared no-op must have stored nothing.
        assert NULL.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestHelpers:
    def test_iter_chunks_covers_capture(self):
        capture = np.arange(10, dtype=complex)
        chunks = list(iter_chunks(capture, 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(chunks), capture)

    def test_iter_chunks_validates(self):
        # NaN, inf and 2.5 raised a bare TypeError from ``range``.
        for chunk_size in (0, float("nan"), float("inf"), 2.5):
            with pytest.raises(ConfigurationError):
                list(iter_chunks(np.zeros(4, complex), chunk_size))

    def test_detector_context(self, stream_scene):
        modems, _, threshold, _ = stream_scene
        gateway = _gateway(modems, threshold)
        assert gateway.detector.context == gateway.detector.universal.length - 1
        assert StreamingGateway(gateway).context == gateway.detector.context
        bank = GalioTGateway(modems, FS, detector="bank", use_edge=False)
        longest = max(len(t) for t in bank.detector.templates.values())
        assert bank.detector.context == longest - 1
        energy = GalioTGateway(modems, FS, detector="energy", use_edge=False)
        window = energy.detector.window
        assert energy.detector.context == window + window // 2
