"""Tests for resilient shipping (repro.gateway.resilience) and the
backhaul validation added with it."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.faults import FaultPlan, OutageWindow
from repro.gateway import (
    BackhaulLink,
    DegradationLadder,
    GalioTGateway,
    ResilientBackhaul,
    StreamingGateway,
    iter_chunks,
)
from repro.net.scene import SceneBuilder
from repro.telemetry import Telemetry
from repro.types import DetectionEvent, Segment

FS = 1e6


class TestBackhaulValidation:
    def test_rejects_nonpositive_queue_bound(self):
        with pytest.raises(ConfigurationError):
            BackhaulLink(max_queue_s=0.0)
        with pytest.raises(ConfigurationError):
            BackhaulLink(max_queue_s=-1.0)

    def test_rejects_nonmonotonic_submissions(self):
        link = BackhaulLink(rate_bps=1e6)
        link.ship(100, at_time=1.0)
        with pytest.raises(ConfigurationError):
            link.ship(100, at_time=0.5)

    def test_equal_timestamps_are_allowed(self):
        link = BackhaulLink(rate_bps=1e6)
        link.ship(100, at_time=0.5)
        link.ship(100, at_time=0.5)
        assert len(link.shipments) == 2

    def test_rejected_shipment_does_not_advance_the_clock(self):
        link = BackhaulLink(rate_bps=1e3, latency_s=0.0, max_queue_s=1.0)
        link.ship(10_000, at_time=0.0)  # 10 s of serialization
        with pytest.raises(CapacityError):
            link.ship(1, at_time=5.0)
        # Had the refused t=5 submission advanced the monotonic clock,
        # this would be a ConfigurationError instead of a capacity drop.
        with pytest.raises(CapacityError):
            link.ship(1, at_time=2.0)


def _wrapper(**kwargs) -> ResilientBackhaul:
    link = kwargs.pop(
        "link", BackhaulLink(rate_bps=1e6, latency_s=0.0, max_queue_s=0.5)
    )
    return ResilientBackhaul(link, **kwargs)


class TestResilientBackhaul:
    def test_healthy_link_delivers_inline(self):
        wrapper = _wrapper()
        outcome = wrapper.ship(1000, at_time=0.0, payload="seg")
        assert outcome.status == "delivered"
        assert [e.payload for e in outcome.delivered] == ["seg"]
        assert not wrapper.spill

    def test_outage_spills_instead_of_raising(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 0.1),))
        wrapper = _wrapper(faults=plan)
        outcome = wrapper.ship(1000, at_time=0.05, payload="a")
        assert outcome.status == "spilled"
        assert wrapper.spill_bits == 1000
        delivered = wrapper.drain(0.2)
        assert [e.payload for e in delivered] == ["a"]
        assert wrapper.spill_bits == 0

    def test_capacity_refusal_spills(self):
        link = BackhaulLink(rate_bps=1e3, latency_s=0.0, max_queue_s=0.5)
        wrapper = ResilientBackhaul(link)
        assert wrapper.ship(5_000, at_time=0.0).status == "delivered"
        assert wrapper.ship(100, at_time=0.0).status == "spilled"
        # Once the 5 s backlog clears, the spilled entry gets through.
        assert len(wrapper.drain(5.0)) == 1

    def test_flush_honours_backoff_but_drain_ignores_it(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 0.1),))
        wrapper = _wrapper(
            faults=plan, base_backoff_s=10.0, max_backoff_s=20.0, jitter=0.0
        )
        wrapper.ship(1000, at_time=0.05)
        assert wrapper.flush(0.2) == []  # retry not due until ~10 s
        assert len(wrapper.drain(0.2)) == 1

    def test_drain_during_outage_keeps_entries_spilled(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 1.0),))
        wrapper = _wrapper(faults=plan)
        wrapper.ship(1000, at_time=0.5)
        assert wrapper.drain(0.9) == []
        assert wrapper.spill_bits == 1000  # undelivered, not lost

    def test_retry_schedule_is_seeded_and_reproducible(self):
        def schedule(seed):
            plan = FaultPlan(outages=(OutageWindow(0.0, 10.0),))
            wrapper = _wrapper(faults=plan, seed=seed)
            for t in (0.1, 0.2, 0.3):
                wrapper.ship(1000, at_time=t)
            wrapper.flush(5.0)
            return [e.next_retry_at for e in wrapper.spill]

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_backoff_grows_and_caps(self):
        wrapper = _wrapper(base_backoff_s=0.1, max_backoff_s=0.4, jitter=0.0)
        delays = [wrapper._backoff(attempt) for attempt in range(4)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4])

    def test_eviction_drops_lowest_score_first(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 1.0),))
        telemetry = Telemetry()
        wrapper = _wrapper(
            faults=plan, max_spill_bits=10_000, telemetry=telemetry
        )
        wrapper.ship(4000, at_time=0.1, score=0.5, payload="mid")
        wrapper.ship(4000, at_time=0.2, score=0.1, payload="weak")
        outcome = wrapper.ship(4000, at_time=0.3, score=0.9, payload="strong")
        assert outcome.status == "spilled"
        assert [e.payload for e in outcome.evicted] == ["weak"]
        assert {e.payload for e in wrapper.spill} == {"mid", "strong"}
        assert telemetry.counters["backhaul.evicted"] == 1
        assert telemetry.counters["backhaul.evicted_bits"] == 4000

    def test_new_entry_can_be_its_own_victim(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 1.0),))
        wrapper = _wrapper(faults=plan, max_spill_bits=10_000)
        wrapper.ship(4000, at_time=0.1, score=0.5)
        wrapper.ship(4000, at_time=0.2, score=0.6)
        outcome = wrapper.ship(4000, at_time=0.3, score=0.05)
        assert outcome.status == "evicted"
        assert len(wrapper.spill) == 2

    def test_pressure_signal(self):
        plan = FaultPlan(outages=(OutageWindow(0.5, 0.6),))
        wrapper = _wrapper(faults=plan, max_spill_bits=10_000)
        assert wrapper.pressure(0.0) == 0.0
        assert wrapper.pressure(0.55) == 1.0  # outage dominates
        wrapper.ship(5_000, at_time=0.55)  # spills: outage
        assert wrapper.pressure(0.7) == pytest.approx(0.5)  # spill fill

    def test_out_of_order_ship_times_are_clamped(self):
        # The wrapper interleaves segment-start and chunk-end time axes;
        # it must clamp rather than trip the link's monotonic check.
        wrapper = _wrapper()
        wrapper.flush(1.0)
        outcome = wrapper.ship(1000, at_time=0.5, payload="late")
        assert outcome.status == "delivered"

    def test_validation(self):
        link = BackhaulLink()
        with pytest.raises(ConfigurationError):
            ResilientBackhaul(link, max_spill_bits=0)
        with pytest.raises(ConfigurationError):
            ResilientBackhaul(link, base_backoff_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilientBackhaul(link, base_backoff_s=1.0, max_backoff_s=0.5)
        with pytest.raises(ConfigurationError):
            ResilientBackhaul(link, jitter=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_backoff_s": float("nan")},
            {"max_backoff_s": float("nan")},
            {"jitter": float("nan")},
            {"max_spill_bits": float("nan")},
            {"max_spill_bits": float("inf")},
            {"base_backoff_s": float("inf"), "max_backoff_s": float("inf")},
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        # NaN fails every comparison, so the ``<= 0`` / ``<`` checks let
        # it through: a NaN backoff or jitter made every spilled entry
        # due on every flush, a NaN cap dropped the cap, and a NaN spill
        # bound failed in int() with ValueError.
        with pytest.raises(ConfigurationError):
            ResilientBackhaul(BackhaulLink(), **kwargs)

    def test_uncapped_backoff_allowed(self):
        wrapper = ResilientBackhaul(
            BackhaulLink(), max_backoff_s=float("inf"), jitter=0.0
        )
        assert wrapper._backoff(10) == pytest.approx(0.05 * 2**10)


class TestDegradationLadder:
    def test_escalates_after_sustained_pressure(self):
        ladder = DegradationLadder(escalate_after=2, recover_after=2)
        assert ladder.observe(0.9) == DegradationLadder.FULL
        assert ladder.observe(0.9) == DegradationLadder.COMPRESSED
        assert ladder.observe(0.9) == DegradationLadder.COMPRESSED
        assert ladder.observe(0.9) == DegradationLadder.METADATA
        assert ladder.observe(0.9) == DegradationLadder.METADATA  # floor

    def test_midband_readings_reset_both_counters(self):
        ladder = DegradationLadder(escalate_after=2, recover_after=2)
        ladder.observe(0.9)
        ladder.observe(0.4)  # between low and high: streak broken
        assert ladder.observe(0.9) == DegradationLadder.FULL
        assert ladder.observe(0.9) == DegradationLadder.COMPRESSED

    def test_recovers_when_the_link_heals(self):
        telemetry = Telemetry()
        ladder = DegradationLadder(
            escalate_after=1, recover_after=2, telemetry=telemetry
        )
        ladder.observe(0.9)
        ladder.observe(0.9)
        assert ladder.level == DegradationLadder.METADATA
        ladder.observe(0.1)
        assert ladder.observe(0.1) == DegradationLadder.COMPRESSED
        ladder.observe(0.1)
        assert ladder.observe(0.1) == DegradationLadder.FULL
        assert telemetry.counters["gateway.degradation_escalations"] == 2
        assert telemetry.counters["gateway.degradation_recoveries"] == 2

    def test_reset(self):
        ladder = DegradationLadder(escalate_after=1)
        ladder.observe(1.0)
        ladder.reset()
        assert ladder.level == DegradationLadder.FULL

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(high=0.2, low=0.6)
        # NaN raised a bare ValueError from ``int()``; 2.5 became 2.
        for bad in (0, float("nan"), float("inf"), 2.5):
            with pytest.raises(ConfigurationError):
                DegradationLadder(escalate_after=bad)
            with pytest.raises(ConfigurationError):
                DegradationLadder(recover_after=bad)


class TestAttackScaleSaturation:
    """Jammer-driven backpressure differs from a link outage: a
    sustained flood of low-score garbage segments competes with sparse
    high-score legitimate ones, and the pressure signal pulses with the
    jammer's duty cycle instead of dropping cleanly to zero."""

    def test_sustained_flood_evicts_lowest_scores_first(self):
        # 4x over capacity: 10 legit segments (score >= 0.8) in a flood
        # of 30 jam-burst detections (score <= 0.2). Capacity holds
        # exactly the legit set, so lowest-score-first eviction must
        # sacrifice every jam segment and keep every legit one.
        plan = FaultPlan(outages=(OutageWindow(0.0, 10.0),))
        wrapper = _wrapper(faults=plan, max_spill_bits=40_000)
        rng = np.random.default_rng(7)
        legit, evicted = [], []
        t = 0.0
        for i in range(40):
            t += 0.01
            if i % 4 == 0:
                score, payload = 0.8 + 0.001 * i, f"legit-{i // 4}"
                legit.append(payload)
            else:
                score, payload = float(rng.uniform(0.01, 0.2)), f"jam-{i}"
            outcome = wrapper.ship(4000, at_time=t, score=score, payload=payload)
            evicted.extend(outcome.evicted)
        kept = {e.payload for e in wrapper.spill}
        assert kept == set(legit)
        assert wrapper.spill_bits <= 40_000
        assert max(e.score for e in evicted) <= min(
            e.score for e in wrapper.spill
        )

    def test_ladder_holds_degraded_through_pulse_jam_duty_cycle(self):
        # A 75%-duty pulse jammer: three saturated readings, one quiet
        # gap, repeating. The recovery hysteresis (recover_after > gap
        # length) must keep the ladder degraded across the off-gaps —
        # flapping back to FULL mid-attack would re-flood the backhaul
        # every period.
        telemetry = Telemetry()
        ladder = DegradationLadder(
            escalate_after=3, recover_after=6, telemetry=telemetry
        )
        levels = []
        for _ in range(5):
            levels.append(ladder.observe(0.05))  # jammer off-gap
            for _ in range(3):
                levels.append(ladder.observe(0.9))  # saturated burst
        assert ladder.level == DegradationLadder.METADATA
        first_degraded = next(
            i for i, lvl in enumerate(levels) if lvl != DegradationLadder.FULL
        )
        assert DegradationLadder.FULL not in levels[first_degraded:]

        # Attack ends: recovery climbs one rung per recover_after
        # consecutive quiet readings, never faster.
        for _ in range(5):
            ladder.observe(0.05)
        assert ladder.level == DegradationLadder.METADATA
        assert ladder.observe(0.05) == DegradationLadder.COMPRESSED
        for _ in range(5):
            ladder.observe(0.05)
        assert ladder.level == DegradationLadder.COMPRESSED
        assert ladder.observe(0.05) == DegradationLadder.FULL
        assert telemetry.counters["gateway.degradation_recoveries"] == 2


def _noise_segment(start: int, n: int, rng, score: float = 1.0) -> Segment:
    samples = (rng.normal(size=n) + 1j * rng.normal(size=n)) / 2
    return Segment(
        start=start,
        samples=samples,
        sample_rate=FS,
        detections=[DetectionEvent(start, score, "u")],
    )


class TestGatewayIntegration:
    @pytest.mark.parametrize(
        "backhaul", [None, BackhaulLink(rate_bps=1e3)], ids=["none", "plain"]
    )
    def test_degradation_ladder_needs_a_resilient_backhaul(self, trio, backhaul):
        # The ladder reads a ResilientBackhaul's pressure; beside any
        # other backhaul it would never leave level 0.
        with pytest.raises(ConfigurationError):
            GalioTGateway(trio, FS, backhaul=backhaul, degradation=DegradationLadder())

    def test_degradation_ladder_walks_down_and_accounts(self, trio, rng):
        plan = FaultPlan(outages=(OutageWindow(0.0, 0.5),))
        telemetry = Telemetry()
        gateway = GalioTGateway(
            trio,
            FS,
            use_edge=False,
            backhaul=ResilientBackhaul(
                BackhaulLink(rate_bps=1e9), faults=plan
            ),
            degradation=DegradationLadder(escalate_after=1, recover_after=1),
            telemetry=telemetry,
        )
        from repro.gateway.gateway import GatewayReport

        report = GatewayReport()
        # First ship sees pressure 1.0 -> COMPRESSED; second -> METADATA.
        gateway.ship_segment(_noise_segment(100_000, 4096, rng), report)
        gateway.ship_segment(_noise_segment(200_000, 4096, rng), report)
        assert gateway.degradation.level == DegradationLadder.METADATA
        assert report.shipped == [] and report.dropped_segments == 0
        delivered = gateway.backhaul.drain(0.6)
        gateway.account_deliveries(delivered, (), report)
        assert len(report.shipped) == 1  # the compressed-level segment
        assert report.degraded_segments == 1  # the metadata-only one
        assert telemetry.counters["gateway.degraded_segments"] == 1
        # Metadata ships are tiny: header + one per-event record.
        metadata_bits = 8 * 16 + 8 * 32
        assert any(e.n_bits == metadata_bits for e in delivered)

    def test_off_mode_matches_plain_link_bit_for_bit(self, trio, rng):
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.12)
        builder.add_packet(by["zwave"], b"plain", 20_000, 15, rng)
        builder.add_packet(by["xbee"], b"wrapped", 70_000, 15, rng)
        capture, truth = builder.render(rng)
        noise = (
            rng.normal(size=50_000) + 1j * rng.normal(size=50_000)
        ) * np.sqrt(truth.noise_power / 2)

        def run(backhaul):
            gateway = GalioTGateway(
                trio, FS, use_edge=False, backhaul=backhaul
            )
            gateway.detector.calibrate(noise)
            return gateway.process(capture)

        plain = run(BackhaulLink(rate_bps=20e6))
        resilient = run(ResilientBackhaul(BackhaulLink(rate_bps=20e6)))
        assert resilient.shipped_bits == plain.shipped_bits
        assert resilient.dropped_segments == plain.dropped_segments == 0
        assert len(resilient.shipped) == len(plain.shipped)
        for a, b in zip(resilient.shipped, plain.shipped, strict=True):
            assert a.start == b.start
            assert np.array_equal(a.samples, b.samples)
        assert [e.index for e in resilient.events] == [
            e.index for e in plain.events
        ]

    def test_streaming_outage_delivers_late_but_loses_nothing(
        self, trio, rng
    ):
        by = {m.name: m for m in trio}
        duo = [by["xbee"], by["zwave"]]  # compact windows: no merging
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(by["zwave"], b"early", 40_000, 15, rng)
        builder.add_packet(by["xbee"], b"later", 220_000, 15, rng)
        capture, truth = builder.render(rng)
        noise = (
            rng.normal(size=50_000) + 1j * rng.normal(size=50_000)
        ) * np.sqrt(truth.noise_power / 2)

        def run(faults):
            backhaul = ResilientBackhaul(
                BackhaulLink(rate_bps=20e6),
                faults=faults,
                base_backoff_s=0.01,
            )
            gateway = GalioTGateway(
                duo, FS, use_edge=False, backhaul=backhaul
            )
            gateway.detector.calibrate(noise)
            stream = StreamingGateway(gateway)
            report = stream.process_stream(iter_chunks(capture, 30_000))
            return report, backhaul

        baseline, _ = run(None)
        # The outage covers the first packet's ship time and heals
        # mid-stream, so its segment spills and arrives late.
        plan = FaultPlan(outages=(OutageWindow(0.0, 0.15),))
        faulty, backhaul = run(plan)
        assert len(baseline.shipped) == 2
        assert faulty.dropped_segments == 0
        assert not backhaul.spill  # everything delivered by stream end
        # The chunk reports' shipped lists hold both segments exactly
        # once, the late spill delivery included.
        assert sorted(s.start for s in faulty.shipped) == sorted(
            s.start for s in baseline.shipped
        )
        assert faulty.shipped_bits == baseline.shipped_bits

