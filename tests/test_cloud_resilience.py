"""Tests for the decode farm's fault handling (repro.cloud.parallel)."""

import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cloud import (
    CloudResilience,
    CloudService,
    ParallelCloudService,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, OutageWindow
from repro.gateway import (
    BackhaulLink,
    GalioTGateway,
    ResilientBackhaul,
    StreamingGateway,
    iter_chunks,
)
from repro.net.scene import SceneBuilder
from repro.telemetry import Telemetry
from repro.types import Segment

FS = 1e6


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(0xFA117)


@pytest.fixture(scope="module")
def duo(trio):
    """The two cheap FSK technologies — fast decodes for fault tests."""
    by = {m.name: m for m in trio}
    return [by["xbee"], by["zwave"]]


@pytest.fixture(scope="module")
def batch(duo, module_rng):
    """Four single-packet segments with known payloads."""
    segments = []
    for i, modem in enumerate([duo[0], duo[1], duo[0], duo[1]]):
        builder = SceneBuilder(FS, 0.05)
        builder.add_packet(modem, b"seg%d" % i, 3000, 15, module_rng)
        capture, _ = builder.render(module_rng)
        segments.append(
            Segment(start=i * 50_000, samples=capture, sample_rate=FS)
        )
    return segments


@pytest.fixture(scope="module")
def serial_reference(duo, batch):
    service = CloudService(duo, FS)
    return [r for s in batch for r in service.process_segment(s)]


def _farm(duo, **kwargs):
    kwargs.setdefault("workers", 2)
    return ParallelCloudService(duo, FS, **kwargs)


@dataclass(frozen=True)
class _DoomedSegmentPlan(FaultPlan):
    """Segment ``doomed`` kills its worker on every trip, like a decoder
    crash no plan can name: ``crash_submissions`` stays empty."""

    doomed: int = 0

    def apply_in_worker(self, seq, submission):
        if seq == self.doomed:
            os._exit(11)
        super().apply_in_worker(seq, submission)


class TestPoisonSegments:
    def test_retry_once_then_quarantine(self, duo, batch, serial_reference):
        plan = FaultPlan(poison_segments=frozenset({1}))
        telemetry = Telemetry()
        with _farm(duo, faults=plan, telemetry=telemetry) as farm:
            results = farm.process_segments(batch)
        healthy = [
            r for r in serial_reference if r.payload != b"seg1"
        ]
        assert results == healthy
        assert [q.seq for q in farm.quarantine] == [1]
        assert farm.quarantine[0].attempts == 1  # retried exactly once
        assert "InjectedFault" in farm.quarantine[0].reason
        assert farm.stats.retried == 1
        assert farm.stats.quarantined == 1
        assert telemetry.counters["cloud.parallel.retried"] == 1
        assert telemetry.counters["cloud.parallel.quarantined"] == 1
        assert telemetry.counters["cloud.parallel.drained"] == 3

    def test_quarantine_keeps_the_payload(self, duo, batch):
        plan = FaultPlan(poison_segments=frozenset({0}))
        with _farm(duo, faults=plan) as farm:
            farm.process_segments(batch[:1])
        assert farm.quarantine[0].payload is batch[0]

    def test_corrupt_segment_decodes_nothing_quietly(self, duo, batch):
        plan = FaultPlan(corrupt_segments=frozenset({2}))
        with _farm(duo, faults=plan) as farm:
            results = farm.process_segments(batch)
        # Corruption is silent loss, not an error: no quarantine, and
        # the mangled segment contributes no ok frames.
        assert farm.quarantine == []
        assert b"seg2" not in {r.payload for r in results if r.ok}


class TestCrashes:
    def test_process_pool_crash_respawns_and_recovers(
        self, duo, batch, serial_reference
    ):
        # The crash breaks the pool and fails whatever else was in
        # flight, but only the segment whose submission crashed spends a
        # requeue: the count is the plan's, not the scheduler's.
        plan = FaultPlan(crash_submissions=frozenset({0}))
        telemetry = Telemetry()
        with _farm(duo, faults=plan, telemetry=telemetry) as farm:
            results = farm.process_segments(batch)
        assert results == serial_reference
        assert farm.quarantine == []
        assert farm.stats.requeued == 1
        assert telemetry.counters["cloud.parallel.crashes"] == 1
        assert telemetry.counters["cloud.parallel.requeued"] == 1

    def test_persistent_crash_exhausts_requeues(self, duo, batch):
        plan = FaultPlan(crash_submissions=frozenset({0, 1, 2}))
        resilience = CloudResilience(max_requeues=2)
        with _farm(duo, faults=plan, resilience=resilience) as farm:
            results = farm.process_segments(batch[:1])
        assert results == []
        assert [q.seq for q in farm.quarantine] == [0]
        assert farm.quarantine[0].requeues == 2
        assert farm.stats.requeued == 2
        assert farm.stats.quarantined == 1

    def test_unexplained_breakage_requeues_until_quarantine(
        self, duo, batch, serial_reference
    ):
        plan = _DoomedSegmentPlan(doomed=0)
        resilience = CloudResilience(max_requeues=2)
        telemetry = Telemetry()
        with _farm(
            duo, faults=plan, resilience=resilience, telemetry=telemetry
        ) as farm:
            assert farm.process_segments(batch[:1]) == []
            assert [q.seq for q in farm.quarantine] == [0]
            assert farm.quarantine[0].requeues == 2
            assert "BrokenProcessPool" in farm.quarantine[0].reason
            assert farm.stats.requeued == 2
            assert telemetry.counters["cloud.parallel.crashes"] == 3
            # The respawned pool still decodes the healthy segments.
            healthy = [r for r in serial_reference if r.payload != b"seg0"]
            assert farm.process_segments(batch[1:]) == healthy

    def test_submit_after_pool_breakage_respawns_not_rejects(
        self, duo, batch, serial_reference
    ):
        """A broken pool poisons submit() itself; arrivals between a
        crash and the next drain() must trigger a respawn, not bubble
        BrokenExecutor out of the on_shipped hook and get lost. The
        breakage found at the door takes no submission number, so the
        plan's crash at submission 0 still hits segment 0's first trip."""

        class _BrokenOnSubmitPool:
            def submit(self, *args, **kwargs):
                raise BrokenExecutor("worker died between drains")

            def shutdown(self, *args, **kwargs):
                pass

        plan = FaultPlan(crash_submissions=frozenset({0}))
        telemetry = Telemetry()
        with _farm(duo, faults=plan, telemetry=telemetry) as farm:
            farm._pool.shutdown()
            farm._pool = _BrokenOnSubmitPool()
            for segment in batch:
                farm.submit(segment)  # must not raise
            results = farm.drain()
        assert results == serial_reference
        assert farm.quarantine == []
        assert farm.stats.requeued == 1
        # One breakage at the door, one from the planned crash.
        assert telemetry.counters["cloud.parallel.crashes"] == 2
        assert telemetry.counters["cloud.parallel.submitted"] == len(batch)

    def test_hang_trips_timeout_and_requeues(self, duo, module_rng):
        noise = (
            module_rng.normal(size=10_000) + 1j * module_rng.normal(size=10_000)
        ) / 2
        segment = Segment(start=0, samples=noise, sample_rate=FS)
        plan = FaultPlan(hang_submissions=frozenset({0}), hang_s=2.0)
        resilience = CloudResilience(decode_timeout_s=0.5)
        telemetry = Telemetry()
        with _farm(
            duo, faults=plan, resilience=resilience, telemetry=telemetry
        ) as farm:
            results = farm.process_segments([segment])
        assert results == []  # noise decodes to nothing — but it returned
        assert farm.quarantine == []
        assert farm.stats.degraded == 1
        assert farm.stats.requeued == 1
        assert telemetry.counters["cloud.parallel.timeouts"] == 1


    def test_infinite_timeout_waits_like_no_budget(
        self, duo, batch, serial_reference
    ):
        resilience = CloudResilience(decode_timeout_s=float("inf"))
        with _farm(duo, resilience=resilience) as farm:
            results = farm.process_segments(batch)
        assert results == serial_reference
        assert farm.quarantine == []
        assert farm.stats.requeued == 0


class TestCloseLifecycle:
    def test_close_is_idempotent(self, duo):
        farm = _farm(duo)
        farm.close()
        farm.close()  # second call is a no-op, not an error

    def test_exit_on_error_path_closes(self, duo):
        with pytest.raises(ValueError, match="boom"):
            with _farm(duo) as farm:
                raise ValueError("boom")
        assert farm._closed

    def test_close_after_pool_breakage(self, duo, batch):
        plan = FaultPlan(crash_submissions=frozenset({0, 1}))
        resilience = CloudResilience(max_requeues=1)
        farm = ParallelCloudService(
            duo, FS, workers=1, faults=plan, resilience=resilience,
        )
        try:
            farm.process_segments(batch[:1])
        finally:
            farm.close()
            farm.close()

    def test_close_absorbs_shutdown_exceptions(self, duo):
        telemetry = Telemetry()
        farm = _farm(duo, telemetry=telemetry)

        class ExplodingPool:
            def shutdown(self, *args, **kwargs):
                raise RuntimeError("already dead")

        real_pool = farm._pool
        farm._pool = ExplodingPool()
        try:
            farm.close()  # absorbed, counted
        finally:
            real_pool.shutdown(wait=True)
        assert telemetry.counters["cloud.parallel.close_errors"] == 1
        farm.close()  # still idempotent afterwards

    def test_resilience_validation(self):
        with pytest.raises(ConfigurationError):
            CloudResilience(decode_timeout_s=0.0)
        # NaN slipped past ``<= 0`` and timed out every wait, so every
        # segment was requeued and then quarantined.
        with pytest.raises(ConfigurationError):
            CloudResilience(decode_timeout_s=float("nan"))
        with pytest.raises(ConfigurationError):
            CloudResilience(max_retries=-1)
        with pytest.raises(ConfigurationError):
            CloudResilience(max_requeues=-1)


class TestDeterminism:
    def test_same_plan_same_results_and_counters(self, duo, batch):
        plan = FaultPlan(
            seed=5,
            poison_segments=frozenset({1}),
            crash_submissions=frozenset({0}),
            corrupt_segments=frozenset({3}),
        )

        def run():
            telemetry = Telemetry()
            with ParallelCloudService(
                duo,
                FS,
                workers=4,
                faults=plan,
                telemetry=telemetry,
            ) as farm:
                results = farm.process_segments(batch)
            return (
                results,
                farm.stats,
                telemetry.snapshot()["counters"],
                [(q.seq, q.attempts, q.requeues) for q in farm.quarantine],
            )

        first = run()
        second = run()
        assert first[0] == second[0]  # bit-identical decoded frames
        assert first[1] == second[1]  # identical CloudStats
        assert first[2] == second[2]  # identical telemetry counters
        assert first[3] == second[3]  # identical quarantine ledger

    def test_faults_off_matches_default_farm(self, duo, batch, serial_reference):
        with _farm(duo, faults=None) as farm:
            assert farm.process_segments(batch) == serial_reference
        assert farm.stats.retried == 0
        assert farm.stats.requeued == 0
        assert farm.stats.quarantined == 0
        assert farm.stats.degraded == 0


class TestChaosEndToEnd:
    """The ISSUE acceptance scenario: outages + one poison segment.

    The chaos run must decode >= 95 % of the fault-free frames, lose
    segments only to explicit drop-policy evictions (none here), and
    quarantine — not hang on — the poison segment.
    """

    N_PACKETS = 24

    def _scene(self, duo, rng):
        builder = SceneBuilder(FS, 1.0)
        payloads = []
        for i in range(self.N_PACKETS):
            payload = b"pkt%02d" % i
            payloads.append(payload)
            builder.add_packet(
                duo[i % 2], payload, 30_000 + i * 39_000, 15, rng
            )
        capture, truth = builder.render(rng)
        noise = (
            rng.normal(size=60_000) + 1j * rng.normal(size=60_000)
        ) * np.sqrt(truth.noise_power / 2)
        return capture, noise

    def _gateway(self, duo, noise, backhaul=None):
        gateway = GalioTGateway(duo, FS, use_edge=False, backhaul=backhaul)
        gateway.detector.calibrate(noise)
        return gateway

    @staticmethod
    def _frames(results):
        return {(r.technology, r.payload) for r in results if r.ok}

    def test_chaos_survival(self, duo, module_rng):
        capture, noise = self._scene(duo, module_rng)
        chunks = lambda: iter_chunks(capture, 65_536)  # noqa: E731

        # Fault-free reference: plain streaming + serial cloud.
        baseline_report = StreamingGateway(
            self._gateway(duo, noise)
        ).process_stream(chunks())
        assert len(baseline_report.shipped) == self.N_PACKETS
        serial = CloudService(duo, FS)
        baseline = self._frames(
            [r for s in baseline_report.shipped for r in serial.process_segment(s)]
        )
        assert len(baseline) >= self.N_PACKETS - 2  # detection sanity

        # Chaos run: two outages plus one poison segment.
        plan = FaultPlan(
            seed=1,
            outages=(OutageWindow(0.20, 0.30), OutageWindow(0.60, 0.70)),
            poison_segments=frozenset({7}),
        )
        telemetry = Telemetry()
        backhaul = ResilientBackhaul(
            BackhaulLink(rate_bps=20e6, max_queue_s=0.5),
            faults=plan,
            base_backoff_s=0.01,
        )
        gateway = self._gateway(duo, noise, backhaul=backhaul)
        with ParallelCloudService(
            duo,
            FS,
            workers=2,
            faults=plan,
            resilience=CloudResilience(decode_timeout_s=30.0),
            telemetry=telemetry,
        ) as farm:
            stream = StreamingGateway(
                gateway, on_shipped=farm.submit, fault_tolerant=True
            )
            report = stream.process_stream(chunks())
            chaos = self._frames(farm.drain())

        # Zero loss except explicit evictions (none scheduled here).
        assert report.dropped_segments == 0
        assert "backhaul.evicted" not in telemetry.counters
        assert len(report.shipped) == len(baseline_report.shipped)
        assert not backhaul.spill

        # The poison segment is quarantined, not hung on or retried
        # forever; its frames are the only ones missing.
        assert [q.seq for q in farm.quarantine] == [7]
        lost = self._frames(
            CloudService(duo, FS).process_segment(farm.quarantine[0].payload)
        )
        assert chaos == baseline - lost
        survival = len(chaos & baseline) / len(baseline)
        assert survival >= 0.95
