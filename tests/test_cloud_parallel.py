"""Tests for the parallel cloud decode farm (repro.cloud.parallel)."""

import multiprocessing

import numpy as np
import pytest

from repro.cloud.parallel import ParallelCloudService
from repro.cloud.pipeline import CloudService, CloudStats
from repro.errors import ConfigurationError
from repro.net.scene import SceneBuilder
from repro.net.traffic import packet_scene
from repro.telemetry import Telemetry, TimerStats
from repro.types import Segment

FS = 1e6


@pytest.fixture(scope="module")
def batch(trio, module_rng):
    """Three shipped segments: solo, collision, solo — mixed difficulty."""
    by = {m.name: m for m in trio}
    segments = []
    builder = SceneBuilder(FS, 0.06)
    builder.add_packet(by["zwave"], b"first", 3000, 15, module_rng)
    capture, _ = builder.render(module_rng)
    segments.append(Segment(start=10_000, samples=capture, sample_rate=FS))
    capture, _ = packet_scene(
        [by["lora"], by["xbee"]], [12, 12], FS, module_rng, payload_len=8
    )
    segments.append(Segment(start=250_000, samples=capture, sample_rate=FS))
    builder = SceneBuilder(FS, 0.06)
    builder.add_packet(by["xbee"], b"third", 4000, 15, module_rng)
    capture, _ = builder.render(module_rng)
    segments.append(Segment(start=600_000, samples=capture, sample_rate=FS))
    return segments


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="module")
def serial_reference(trio, batch):
    """The serial run every parallel configuration must reproduce."""
    telemetry = Telemetry()
    service = CloudService(trio, FS, telemetry=telemetry)
    results = [r for s in batch for r in service.process_segment(s)]
    return results, service.stats, telemetry.snapshot()


@pytest.fixture(scope="module")
def cross_rate(trio, sigfox):
    """A modem set with a cross-rate member, two segments and their
    serial decode.

    Sigfox is 16 kHz native beside the trio's 1 MHz, so every classify
    pass resamples. The segments are one solo LoRa frame and one
    XBee+Z-Wave collision.
    """
    rng = np.random.default_rng(0xC0FFEE)
    lora, xbee, zwave = trio
    modems = [*trio, sigfox]
    builder = SceneBuilder(FS, 0.05)
    builder.add_packet(lora, b"seg-0", 3000, 15, rng)
    solo, _ = builder.render(rng)
    pair, _ = packet_scene([xbee, zwave], [12, 12], FS, rng, payload_len=6)
    segments = [
        Segment(start=0, samples=solo, sample_rate=FS),
        Segment(start=100_000, samples=pair, sample_rate=FS),
    ]
    serial = CloudService(modems, FS)
    results = [r for s in segments for r in serial.process_segment(s)]
    return modems, segments, results, serial.stats


def _strip_farm_metrics(snapshot):
    """Counters minus the farm's own bookkeeping (absent in serial runs)."""
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith("cloud.parallel.")
    }


class TestSerialEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_results_and_stats_match_serial(
        self, trio, batch, serial_reference, workers
    ):
        ref_results, ref_stats, _ = serial_reference
        with ParallelCloudService(trio, FS, workers=workers) as farm:
            results = farm.process_segments(batch)
            assert results == ref_results
            assert farm.stats == ref_stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cross_rate_modem_set_matches_serial(self, cross_rate, workers):
        modems, segments, ref_results, ref_stats = cross_rate
        assert ref_results  # the comparison below is not vacuous
        with ParallelCloudService(modems, FS, workers=workers) as farm:
            assert farm.process_segments(segments) == ref_results
            assert farm.stats == ref_stats

    def test_telemetry_rollup_matches_serial(
        self, trio, batch, serial_reference
    ):
        _, _, ref_snapshot = serial_reference
        telemetry = Telemetry()
        with ParallelCloudService(
            trio, FS, workers=2, telemetry=telemetry
        ) as farm:
            farm.process_segments(batch)
        merged = telemetry.snapshot()
        assert _strip_farm_metrics(merged) == _strip_farm_metrics(ref_snapshot)
        # Span *counts* must match too (wall-clock totals differ).
        for name, stats in ref_snapshot["timers"].items():
            assert merged["timers"][name]["count"] == stats["count"]
        assert merged["counters"]["cloud.parallel.submitted"] == len(batch)
        assert merged["counters"]["cloud.parallel.drained"] == len(batch)

    def test_incremental_submit_matches_batch(
        self, trio, batch, serial_reference
    ):
        ref_results, _, _ = serial_reference
        with ParallelCloudService(trio, FS, workers=2) as farm:
            for segment in batch:
                farm.submit(segment)
            assert farm.drain() == ref_results
            assert farm.drain() == []  # nothing pending after a drain


class TestClose:
    def test_close_without_drain_leaves_no_worker_alive(self, trio, batch):
        before = set(multiprocessing.active_children())
        farm = ParallelCloudService(trio, FS, workers=2)
        for segment in batch:
            farm.submit(segment)
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2  # the farm's own pool, forked on submit
        farm.close()  # never drained
        assert not [w for w in workers if w.is_alive()]


class TestFutureApi:
    """submit_future/absorb_result: the one-segment-at-a-time path a
    closed-loop caller drives instead of submit/drain."""

    def test_absorbed_in_submission_order_matches_serial(
        self, trio, batch, serial_reference
    ):
        ref_results, ref_stats, ref_snapshot = serial_reference
        telemetry = Telemetry()
        with ParallelCloudService(
            trio, FS, workers=2, telemetry=telemetry
        ) as farm:
            futures = [farm.submit_future(s) for s in batch]
            results = [r for f in futures for r in farm.absorb_result(f.result())]
            assert farm.drain() == []  # future-API segments skip drain()
        assert results == ref_results
        assert farm.stats == ref_stats
        snapshot = telemetry.snapshot()
        assert _strip_farm_metrics(snapshot) == _strip_farm_metrics(ref_snapshot)
        assert snapshot["counters"]["cloud.parallel.submitted"] == len(batch)


class TestStreamingFeed:
    def test_shipped_segments_feed_the_farm(self, trio, rng):
        from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks

        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(by["zwave"], b"hooked", 60_000, 15, rng)
        builder.add_packet(by["xbee"], b"hooked2", 200_000, 15, rng)
        capture, truth = builder.render(rng)
        gateway = GalioTGateway(trio, FS, use_edge=False)
        noise = (
            rng.normal(size=100_000) + 1j * rng.normal(size=100_000)
        ) * np.sqrt(truth.noise_power / 2)
        gateway.detector.calibrate(noise)
        with ParallelCloudService(trio, FS, workers=2) as farm:
            stream = StreamingGateway(gateway)
            for report in stream.run(iter_chunks(capture, 65_536)):
                for segment in report.shipped:
                    farm.submit(segment)
            results = farm.drain()
        assert {(r.technology, r.payload) for r in results} == {
            ("zwave", b"hooked"),
            ("xbee", b"hooked2"),
        }
        # Starts are capture-absolute: segment offset plus in-segment
        # position, within detector granularity of the truth.
        for r in results:
            want = next(
                p.start for p in truth.packets if p.technology == r.technology
            )
            assert abs(r.start - want) < 4096


class TestValidation:
    def test_rejects_empty_modems(self):
        with pytest.raises(ConfigurationError):
            ParallelCloudService([], FS)

    def test_rejects_zero_workers(self, trio):
        # int() would raise a bare ValueError on NaN and an
        # OverflowError on inf, and run 2.5 as 2 workers.
        for workers in (0, float("nan"), float("inf"), 2.5):
            with pytest.raises(ConfigurationError):
                ParallelCloudService(trio, FS, workers=workers)

    def test_rejects_unknown_executor(self, trio):
        # The process pool is the only one.
        for executor in ("thread", "greenlet"):
            with pytest.raises(ConfigurationError):
                ParallelCloudService(trio, FS, executor=executor)

    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -1e6, float("inf")])
    def test_rejects_invalid_sample_rate(self, trio, rate):
        # Regression: a bad rate used to build the pool, then quarantine
        # every segment as a decode failure and return [].
        with pytest.raises(ConfigurationError):
            ParallelCloudService(trio, rate)


class TestMergePrimitives:
    def test_cloud_stats_merge(self):
        a = CloudStats(
            segments=2, frames_decoded=3, by_method={"sic": 2, "kill-css": 1},
            by_technology={"lora": 2, "xbee": 1}, kill_invocations=1,
            sic_cancellations=2,
        )
        b = CloudStats(
            segments=1, frames_decoded=1, by_method={"sic": 1},
            by_technology={"zwave": 1}, sic_cancellations=1,
        )
        a.merge(b)
        assert a == CloudStats(
            segments=3, frames_decoded=4,
            by_method={"sic": 3, "kill-css": 1},
            by_technology={"lora": 2, "xbee": 1, "zwave": 1},
            kill_invocations=1, sic_cancellations=3,
        )

    def test_merge_partitions_equals_serial(self):
        whole = CloudStats()
        parts = [CloudStats() for _ in range(3)]
        for i, method in enumerate(["sic", "sic", "kill-css"]):
            for target in (whole, parts[i]):
                target.segments += 1
                target.frames_decoded += 1
                target.by_method[method] = target.by_method.get(method, 0) + 1
        merged = CloudStats()
        for part in parts:
            merged.merge(part)
        assert merged == whole

    def test_timer_stats_merge(self):
        a = TimerStats()
        a.observe(0.5)
        b = TimerStats()
        b.observe(0.1)
        b.observe(0.9)
        a.merge(b)
        assert a.count == 3
        assert a.total_s == pytest.approx(1.5)
        assert a.min_s == pytest.approx(0.1)
        assert a.max_s == pytest.approx(0.9)

    def test_merge_empty_timer_keeps_min(self):
        a = TimerStats()
        a.observe(0.5)
        a.merge(TimerStats())
        assert a.count == 1 and a.min_s == pytest.approx(0.5)

    def test_absorb_snapshot_roundtrip(self):
        worker = Telemetry()
        worker.count("cloud.frames", 3)
        worker.gauge("queue.depth", 7)
        with worker.span("cloud.pipeline"):
            pass
        parent = Telemetry()
        parent.count("cloud.frames", 1)
        parent.absorb_snapshot(worker.snapshot())
        assert parent.counters["cloud.frames"] == 4
        assert parent.gauges["queue.depth"] == 7
        assert parent.timers["cloud.pipeline.seconds"].count == 1

    def test_absorb_empty_timer_snapshot_is_inert(self):
        worker = Telemetry()
        worker.timers["idle.seconds"] = TimerStats()
        parent = Telemetry()
        parent.observe("idle.seconds", 0.25)
        parent.absorb_snapshot(worker.snapshot())
        assert parent.timers["idle.seconds"].count == 1
        assert parent.timers["idle.seconds"].min_s == pytest.approx(0.25)

    def test_null_telemetry_absorb_is_noop(self):
        from repro.telemetry import NULL

        worker = Telemetry()
        worker.count("x", 1)
        NULL.absorb_snapshot(worker.snapshot())
        assert NULL.counters == {}
