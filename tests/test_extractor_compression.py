"""Unit tests for segment extraction and the backhaul codec."""

import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gateway.compression import _HEADER, CompressionStats, SegmentCodec
from repro.gateway.extractor import SegmentExtractor, max_frame_samples
from repro.types import DetectionEvent, Segment

FS = 1e6


class TestMaxFrameSamples:
    def test_lora_dominates(self, trio):
        n = max_frame_samples(trio, FS, payload_len=32)
        lora = next(m for m in trio if m.name == "lora")
        assert n == pytest.approx(lora.frame_airtime(32) * FS, abs=2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            max_frame_samples([], FS, 32)


class TestExtractor:
    def _extractor(self, trio):
        return SegmentExtractor(trio, FS)

    def test_span_is_twice_max_frame(self, trio):
        ex = self._extractor(trio)
        assert ex.span == pytest.approx(2 * ex.max_frame, abs=2)

    def test_no_events_no_segments(self, trio):
        ex = self._extractor(trio)
        assert ex.extract(np.zeros(1000, complex), []) == []

    def test_single_event_window(self, trio, rng):
        ex = self._extractor(trio)
        samples = rng.normal(size=500_000) + 0j
        segments = ex.extract(samples, [DetectionEvent(100_000, 1.0, "u")])
        assert len(segments) == 1
        seg = segments[0]
        assert seg.start <= 100_000 < seg.end
        assert seg.length == ex.span

    def test_overlapping_events_merge(self, trio, rng):
        ex = self._extractor(trio)
        samples = rng.normal(size=800_000) + 0j
        events = [
            DetectionEvent(100_000, 1.0, "u"),
            DetectionEvent(110_000, 0.9, "u"),  # collision partner
        ]
        segments = ex.extract(samples, events)
        assert len(segments) == 1
        assert len(segments[0].detections) == 2

    def test_distant_events_stay_separate(self, trio, rng):
        ex = self._extractor(trio)
        n = 3 * ex.span + 200_000
        samples = rng.normal(size=n) + 0j
        events = [
            DetectionEvent(1000, 1.0, "u"),
            DetectionEvent(1000 + 2 * ex.span, 1.0, "u"),
        ]
        segments = ex.extract(samples, events)
        assert len(segments) == 2

    def test_clipped_at_capture_edges(self, trio, rng):
        ex = self._extractor(trio)
        samples = rng.normal(size=ex.span) + 0j
        segments = ex.extract(samples, [DetectionEvent(10, 1.0, "u")])
        assert segments[0].start == 0
        assert segments[0].end <= len(samples)

    def test_chunked_stream_matches_extract(self, trio, rng):
        # The streaming gateway's use of the window rule: events arrive
        # in index order once their samples have, and windows close
        # chunk by chunk.
        ex = self._extractor(trio)
        n = 5 * ex.span + ex.span // 2
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        # Clamped at the stream start; merged before the window's samples
        # have all arrived; merged after they have (a window must wait
        # for the horizon, not just for its samples); alone; clamped at
        # the stream end.
        first_hi = ex.span // 2 - ex.pre + ex.span
        indices = (10, ex.span // 2, first_hi + ex.pre // 2, 3 * ex.span, 5 * ex.span)
        events = [DetectionEvent(i, 1.0, "u") for i in indices]
        whole = ex.extract(samples, events)
        stream = ex.stream()
        pending = list(events)
        cut = []
        for end in range(ex.pre // 4, n, ex.pre // 4):
            while pending and pending[0].index < end:
                stream.add(pending.pop(0))
            # Every future event lies at or beyond ``end``.
            cut.extend(stream.close(samples[:end], 0, horizon=end))
        for event in pending:
            stream.add(event)
        cut.extend(stream.close(samples, 0, horizon=None))
        assert [len(s.detections) for s in whole] == [3, 1, 1]
        assert whole[-1].end == n
        assert [(s.start, s.length, s.detections) for s in cut] == [
            (s.start, s.length, s.detections) for s in whole
        ]
        for a, b in zip(cut, whole, strict=True):
            assert np.array_equal(a.samples, b.samples)


class TestCodec:
    def _segment(self, rng, n=4096):
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        return Segment(start=1234, samples=samples, sample_rate=FS)

    def test_roundtrip_metadata(self, rng):
        codec = SegmentCodec()
        seg = self._segment(rng)
        blob, _ = codec.compress(seg)
        out = codec.decompress(blob)
        assert out.start == seg.start
        assert out.sample_rate == seg.sample_rate
        assert out.length == seg.length

    def test_quantization_error_bounded(self, rng):
        codec = SegmentCodec(bits=8)
        seg = self._segment(rng)
        blob, _ = codec.compress(seg)
        out = codec.decompress(blob)
        peak = np.max(np.abs(np.concatenate([seg.samples.real, seg.samples.imag])))
        step = 2 * peak / 255
        assert np.max(np.abs(out.samples.real - seg.samples.real)) <= step

    def test_stats_accounting(self, rng):
        codec = SegmentCodec(bits=8)
        seg = self._segment(rng)
        blob, stats = codec.compress(seg)
        assert stats.raw_bits == 2 * 8 * seg.length
        assert stats.shipped_bits == blob.n_bits

    def test_compresses_silence_heavily(self):
        codec = SegmentCodec()
        seg = Segment(start=0, samples=np.zeros(65536, complex), sample_rate=FS)
        _, stats = codec.compress(seg)
        assert stats.ratio > 50

    def test_noise_is_hard_to_compress(self, rng):
        codec = SegmentCodec()
        _, stats = codec.compress(self._segment(rng, 65536))
        assert stats.ratio < 1.5

    def test_fewer_bits_smaller_blob(self, rng):
        seg = self._segment(rng, 16384)
        blob8, _ = SegmentCodec(bits=8).compress(seg)
        blob4, _ = SegmentCodec(bits=4).compress(seg)
        assert blob4.n_bits < blob8.n_bits

    def test_decode_survives_compression(self, rng, xbee):
        payload = b"compressed-i-q"
        wave = np.concatenate(
            [np.zeros(300, complex), xbee.modulate(payload), np.zeros(300, complex)]
        )
        noisy = wave + 0.05 * (
            rng.normal(size=len(wave)) + 1j * rng.normal(size=len(wave))
        )
        seg = Segment(start=0, samples=noisy, sample_rate=FS)
        codec = SegmentCodec(bits=8)
        out = codec.decompress(codec.compress(seg)[0])
        frame = xbee.demodulate(out.samples)
        assert frame.crc_ok and frame.payload == payload

    def test_invalid_params_rejected(self):
        # 2.5 was accepted, and compress() then raised a bare TypeError.
        for bits in (0, 9, float("nan"), float("inf"), 2.5):
            with pytest.raises(ConfigurationError):
                SegmentCodec(bits=bits)


def _two_rail_bytes(x, bits):
    """The requantizer's reference: the peak of both rails, then each
    rail divided, multiplied, offset, rounded, clipped and cast on its
    own, and the two interleaved. Returns the bytes and the scale."""
    peak = float(np.max(np.abs(np.concatenate([x.real, x.imag])))) if len(x) else 0.0
    scale = peak if peak > 0 else 1.0
    levels = (1 << bits) - 1
    half = levels / 2.0

    def rail(values):
        return np.clip(np.round(values / scale * half + half), 0, levels).astype(
            np.uint8
        )

    inter = np.empty(2 * len(x), dtype=np.uint8)
    inter[0::2] = rail(x.real)
    inter[1::2] = rail(x.imag)
    return inter, scale


class TestCodecWire:
    """The one-pass requantizer writes the two-rail reference's bytes,
    and the ``Z_RLE`` deflate stream round-trips them."""

    LAYOUTS = {
        "contiguous": lambda x: x,
        "strided": lambda x: x[::3],
        "complex64": lambda x: x.astype(np.complex64),
        "real": lambda x: x.real.copy(),
        "half-steps": lambda x: np.round(x * 2) / 2,
        "silence": lambda x: np.zeros_like(x),
        "empty": lambda x: x[:0],
    }

    @pytest.mark.parametrize("bits", [1, 4, 8])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_bytes_equal_the_two_rail_path(self, rng, layout, bits):
        x = self.LAYOUTS[layout](4 * (rng.normal(size=5001) + 1j * rng.normal(size=5001)))
        blob, stats = SegmentCodec(bits=bits).compress(
            Segment(start=9, samples=x, sample_rate=FS)
        )
        reference, scale = _two_rail_bytes(x, bits)
        start, n, fs, header_scale, header_bits = _HEADER.unpack(
            blob.blob[: _HEADER.size]
        )
        assert (start, n, fs, header_bits) == (9, len(x), FS, bits)
        assert header_scale == np.float32(scale)
        payload = zlib.decompress(blob.blob[_HEADER.size :])
        assert payload == reference.tobytes()
        assert stats.raw_bits == 2 * bits * len(x)

    def test_blob_is_z_rle_at_any_level_and_round_trips(self, rng):
        x = rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
        x[5000:9000] = 0  # a silent stretch: runs for Z_RLE
        codec = SegmentCodec()
        blob, _ = codec.compress(Segment(start=0, samples=x, sample_rate=FS))
        reference, scale = _two_rail_bytes(x, 8)
        for level in range(1, 10):
            deflater = zlib.compressobj(level, strategy=zlib.Z_RLE)
            packed = deflater.compress(reference.tobytes()) + deflater.flush()
            assert blob.blob[_HEADER.size :] == packed, level
        out = codec.decompress(blob)
        half = 255 / 2.0
        rails = (reference.astype(float) - half) / half * np.float32(scale)
        assert np.array_equal(out.samples, rails[0::2] + 1j * rails[1::2])


class TestCompressionStats:
    def test_ratio(self):
        assert CompressionStats(raw_bits=1000, shipped_bits=250).ratio == 4.0

    def test_empty_segment_ratio_is_one(self):
        # Regression: 0 raw bits used to divide by zero (or report 0);
        # nothing compressed means nothing gained or lost.
        assert CompressionStats(raw_bits=0, shipped_bits=0).ratio == 1.0

    def test_zero_shipped_is_infinite(self):
        assert CompressionStats(raw_bits=100, shipped_bits=0).ratio == float(
            "inf"
        )
