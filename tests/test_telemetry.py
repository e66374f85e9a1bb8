"""Tests for the telemetry registry threaded through the pipeline."""

import time

import pytest

from repro.telemetry import (
    NULL,
    Telemetry,
    TimerStats,
    format_snapshot,
)


class TestTimerStats:
    def test_observe_aggregates(self):
        stats = TimerStats()
        stats.observe(0.2)
        stats.observe(0.1)
        assert stats.count == 2
        assert stats.total_s == pytest.approx(0.3)
        assert stats.mean_s == pytest.approx(0.15)
        assert stats.min_s == pytest.approx(0.1)
        assert stats.max_s == pytest.approx(0.2)

    def test_empty_as_dict_is_finite(self):
        d = TimerStats().as_dict()
        assert d["count"] == 0
        assert d["mean_s"] == 0.0
        assert d["min_s"] == 0.0  # not inf


class TestTelemetry:
    def test_counters_accumulate(self):
        t = Telemetry()
        t.count("detect.events")
        t.count("detect.events", 4)
        assert t.snapshot()["counters"]["detect.events"] == 5

    def test_gauge_last_write_wins(self):
        t = Telemetry()
        t.gauge("backhaul.backlog_s", 0.5)
        t.gauge("backhaul.backlog_s", 0.1)
        assert t.snapshot()["gauges"]["backhaul.backlog_s"] == 0.1

    def test_span_times_a_stage(self):
        t = Telemetry()
        with t.span("detect"):
            time.sleep(0.002)
        timer = t.snapshot()["timers"]["detect.seconds"]
        assert timer["count"] == 1
        assert timer["total_s"] > 0

    def test_observe_without_span(self):
        t = Telemetry()
        t.observe("decode.seconds", 0.25)
        assert t.snapshot()["timers"]["decode.seconds"]["total_s"] == 0.25

    def test_snapshot_is_a_copy(self):
        t = Telemetry()
        t.count("a")
        snap = t.snapshot()
        snap["counters"]["a"] = 99
        assert t.snapshot()["counters"]["a"] == 1

    def test_reset_clears_everything(self):
        t = Telemetry()
        t.count("a")
        t.gauge("b", 1.0)
        t.observe("c", 0.1)
        t.reset()
        assert t.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestNullTelemetry:
    def test_records_nothing(self):
        with NULL.span("detect"):
            pass
        NULL.count("detect.events", 7)
        NULL.gauge("g", 1.0)
        NULL.observe("t", 0.1)
        assert NULL.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}

    def test_span_is_one_shared_noop(self):
        # The hot-path guarantee: no allocation, no clock reads.
        assert NULL.span("a") is NULL.span("b")


class TestFormatSnapshot:
    def test_renders_all_sections(self):
        t = Telemetry()
        t.count("detect.events", 3)
        t.gauge("stream.buffered_samples", 100)
        with t.span("detect"):
            pass
        text = format_snapshot(t.snapshot())
        assert "detect.seconds" in text
        assert "detect.events" in text
        assert "stream.buffered_samples" in text

    def test_empty_snapshot(self):
        assert format_snapshot(NULL.snapshot()) == "(no telemetry recorded)"
