"""Tests for the scored adversarial drill (repro.drill) and
the ``galiot attack`` CLI entry point."""

import pytest

from repro.errors import ConfigurationError
from repro.guard import GuardStats
from repro.drill import DrillReport as AttackDrillReport, run_attack_drill

# Small-but-representative drill fixture: same proportions as the CLI
# defaults, sized for CI (matches bench_attack --smoke).
SMOKE = dict(duration_s=0.8, packets=16)


@pytest.fixture(scope="module")
def replay_report():
    return run_attack_drill("replay", seed=0xC0FFEE, **SMOKE)


def _report(**overrides):
    base = dict(
        scenario="none",
        seed=0,
        baseline_frames=20,
        accepted_frames=20,
        survived=20,
        replay_accepts=0,
        false_decodes=0,
        jamming_events=0,
        detection_latency_s=None,
        degraded_segments=0,
        dropped_segments=0,
        guard=GuardStats(),
    )
    base.update(overrides)
    return AttackDrillReport(**base)


class TestGates:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_attack_drill("zerg_rush")

    def test_survival_floor(self):
        assert _report().passed()
        assert not _report(survived=18).passed()  # 90 % < 95 %
        assert _report(survived=19).passed()  # exactly 95 %

    def test_false_decode_and_replay_ceilings(self):
        assert not _report(false_decodes=1).passed()
        assert not _report(replay_accepts=1).passed()
        assert _report(replay_accepts=1).passed(replay_ceiling=1)

    def test_empty_baseline_survives_vacuously(self):
        report = _report(baseline_frames=0, accepted_frames=0, survived=0)
        assert report.survival == 1.0
        assert report.false_decode_rate == 0.0


class TestReplayScenario:
    def test_replays_rejected_not_accepted(self, replay_report):
        assert replay_report.replay_accepts == 0
        assert replay_report.guard.replays_rejected >= 1
        assert replay_report.passed()

    def test_ledger_is_deterministic(self, replay_report):
        again = run_attack_drill("replay", seed=0xC0FFEE, **SMOKE)
        assert replay_report.ledger() == again.ledger()

    def test_different_seed_changes_the_ledger(self, replay_report):
        other = run_attack_drill("replay", seed=1234, **SMOKE)
        assert replay_report.ledger() != other.ledger()


class TestCleanScenario:
    def test_hardening_layer_is_transparent_on_clean_air(self):
        report = run_attack_drill("none", seed=0xC0FFEE, **SMOKE)
        assert report.survival == 1.0
        assert report.false_decodes == 0
        assert report.jamming_events == 0
        assert report.detection_latency_s is None
        assert report.guard.rejected == 0
        counters = report.telemetry.counters
        assert counters.get("attack.gated_detections", 0) == 0
        assert counters.get("attack.jamming_events", 0) == 0


class TestCli:
    def test_attack_smoke_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "attack",
                "--scenario", "replay",
                "--duration", "0.8",
                "--packets", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario 'replay' (seed 12648430)" in out
        assert "survival: 100.0%" in out

    def test_attack_seed_is_echoed(self, capsys):
        from repro.cli import main

        main(
            [
                "attack",
                "--scenario", "none",
                "--duration", "0.4",
                "--packets", "6",
                "--seed", "99",
            ]
        )
        out = capsys.readouterr().out
        assert "scenario 'none' (seed 99)" in out
