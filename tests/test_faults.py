"""Tests for the fault-injection framework (repro.faults)."""

import numpy as np
import pytest

from repro.errors import InjectedFault
from repro.faults import (
    SCENARIOS,
    FaultPlan,
    LatencySpike,
    OutageWindow,
    SampleGap,
    build_scenario,
    periodic_outages,
)
from repro.gateway.rtlsdr import RtlSdrConfig, RtlSdrModel


class TestFaultPlanQueries:
    def test_outage_windows_are_half_open(self):
        plan = FaultPlan(outages=(OutageWindow(0.1, 0.2),))
        assert not plan.backhaul_down(0.05)
        assert plan.backhaul_down(0.1)
        assert plan.backhaul_down(0.19)
        assert not plan.backhaul_down(0.2)

    def test_outage_duty_cycle(self):
        plan = FaultPlan(
            outages=(OutageWindow(0.0, 0.1), OutageWindow(0.5, 0.6))
        )
        assert plan.outage_duty_cycle(1.0) == pytest.approx(0.2)
        # Windows past the horizon are clipped, not counted in full.
        assert plan.outage_duty_cycle(0.55) == pytest.approx(0.15 / 0.55)
        assert plan.outage_duty_cycle(0.0) == 0.0

    def test_latency_spikes_sum_when_overlapping(self):
        plan = FaultPlan(
            latency_spikes=(
                LatencySpike(0.0, 0.5, extra_s=0.02),
                LatencySpike(0.4, 0.6, extra_s=0.03),
            )
        )
        assert plan.extra_latency_s(0.1) == pytest.approx(0.02)
        assert plan.extra_latency_s(0.45) == pytest.approx(0.05)
        assert plan.extra_latency_s(0.9) == 0.0

    def test_gaps_overlapping_selects_intersections(self):
        gaps = (SampleGap(100, 50), SampleGap(1000, 10))
        plan = FaultPlan(sample_gaps=gaps)
        assert plan.gaps_overlapping(0, 120) == [gaps[0]]
        assert plan.gaps_overlapping(149, 1001) == list(gaps)
        assert plan.gaps_overlapping(150, 1000) == []

    def test_empty_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.backhaul_down(0.0)
        assert plan.extra_latency_s(0.0) == 0.0
        assert plan.gaps_overlapping(0, 1 << 30) == []
        plan.apply_in_worker(seq=0, submission=0)


class TestWorkerFaults:
    def test_poison_raises_on_every_attempt(self):
        plan = FaultPlan(poison_segments=frozenset({3}))
        for submission in (0, 7, 99):  # seq-keyed: retries fail too
            with pytest.raises(InjectedFault):
                plan.apply_in_worker(3, submission)
        plan.apply_in_worker(2, 0)  # other seqs fine

    def test_corrupt_samples_is_deterministic(self):
        plan = FaultPlan(seed=7, corrupt_segments=frozenset({1}))
        samples = np.ones(64, dtype=complex)
        a = plan.corrupt_samples(1, samples)
        b = plan.corrupt_samples(1, samples)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, samples)
        # Unscheduled segments pass through untouched.
        assert plan.corrupt_samples(0, samples) is samples


class TestScenarios:
    def test_periodic_outages_cover_the_duty(self):
        windows = periodic_outages(2.5, 1.0, 0.1)
        assert windows == (
            OutageWindow(0.0, 0.1),
            OutageWindow(1.0, 1.1),
            OutageWindow(2.0, 2.1),
        )
        plan = FaultPlan(outages=windows)
        assert plan.outage_duty_cycle(2.0) == pytest.approx(0.1)

    def test_periodic_outages_zero_duty_is_empty(self):
        assert periodic_outages(1.0, 0.25, 0.0) == ()

    def test_periodic_outages_validation(self):
        with pytest.raises(ValueError):
            periodic_outages(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            periodic_outages(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_build_scenario_is_deterministic(self, name):
        a = build_scenario(name, seed=3, duration_s=0.5, n_segments_hint=8)
        b = build_scenario(name, seed=3, duration_s=0.5, n_segments_hint=8)
        assert a == b

    def test_build_scenario_shapes(self):
        assert build_scenario("none") == FaultPlan()
        assert build_scenario("outages").outages
        assert build_scenario("gaps").sample_gaps
        poison = build_scenario("poison")
        assert poison.poison_segments and not poison.crash_submissions
        crashes = build_scenario("crashes")
        assert crashes.crash_submissions and not crashes.poison_segments
        mixed = build_scenario("mixed")
        assert mixed.outages and mixed.poison_segments
        assert mixed.crash_submissions and mixed.hang_submissions

    def test_build_scenario_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_scenario("earthquake")


class TestFrontEndGaps:
    CFG = RtlSdrConfig(agc_headroom_db=0.0)

    def test_gap_zeroes_the_scheduled_range(self):
        plan = FaultPlan(sample_gaps=(SampleGap(10, 5),))
        model = RtlSdrModel(self.CFG, faults=plan)
        out = model.capture(np.ones(32, dtype=complex))
        assert np.all(out[10:15] == 0)
        assert np.all(out[:10] != 0) and np.all(out[15:] != 0)
        assert model.dropped_samples == 5

    def test_chunked_capture_matches_monolithic(self):
        # Constant-magnitude input keeps per-chunk AGC identical, so the
        # only difference chunking could introduce is gap misplacement.
        plan = FaultPlan(sample_gaps=(SampleGap(6, 6), SampleGap(20, 4)))
        x = np.ones(32, dtype=complex)
        whole = RtlSdrModel(self.CFG, faults=plan).capture(x)
        model = RtlSdrModel(self.CFG, faults=plan)
        chunked = np.concatenate(
            [model.capture(x[:8]), model.capture(x[8:])]
        )
        assert np.array_equal(whole, chunked)
        assert model.dropped_samples == 10

    def test_reset_stream_rewinds_the_cursor(self):
        plan = FaultPlan(sample_gaps=(SampleGap(0, 4),))
        model = RtlSdrModel(self.CFG, faults=plan)
        first = model.capture(np.ones(16, dtype=complex))
        assert np.all(first[:4] == 0)
        second = model.capture(np.ones(16, dtype=complex))
        assert np.all(second != 0)  # cursor moved past the gap
        model.reset_stream()
        assert model.dropped_samples == 0
        again = model.capture(np.ones(16, dtype=complex))
        assert np.array_equal(first, again)

    def test_no_faults_means_no_gap_scan(self):
        model = RtlSdrModel(self.CFG)
        out = model.capture(np.ones(16, dtype=complex))
        assert np.all(out != 0)
        assert model.dropped_samples == 0
