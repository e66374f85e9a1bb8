"""Tests for the chaos drill (repro.drill under a FaultPlan), the
``galiot chaos`` CLI entry point, and the empty-baseline gate both
drills share."""

import pytest

from repro.cli import main
from repro.drill import DrillReport, DrillScene, run_drill
from repro.errors import ConfigurationError
from repro.guard import GuardStats

# CI-sized scene: the CLI defaults' proportions at a quarter the size.
SMOKE = DrillScene(duration_s=0.8, packets=12)


class TestCli:
    def test_chaos_smoke_exits_zero(self, capsys):
        code = main(
            [
                "chaos",
                "--scenario", "outages",
                "--packets", "12",
                "--duration", "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario 'outages' (seed 12648430)" in out
        assert "survival: 100.0%" in out


class TestMixedScenario:
    def test_ledger_is_deterministic(self):
        plan = SMOKE.plan("chaos", "mixed")
        first = run_drill(plan, "mixed", SMOKE)
        again = run_drill(plan, "mixed", SMOKE)
        assert first.ledger() == again.ledger()
        # Every scheduled worker fault fired on the process farm: the
        # crash was requeued (it alone, though it broke the pool), the
        # poison segment quarantined, and the pool made more trips than
        # the hang's submission number.
        assert first.cloud.requeued == 1
        assert [q.seq for q in first.quarantined] == sorted(plan.poison_segments)
        trips = (
            first.cloud.segments + first.cloud.quarantined
            + first.cloud.retried + first.cloud.requeued
        )
        assert trips > max(plan.hang_submissions)
        assert f"quarantined seq={min(plan.poison_segments)}" in first.ledger()


class TestEmptyBaselineGate:
    def test_report_without_baseline_frames_fails(self):
        report = DrillReport(
            scenario="none",
            seed=0,
            baseline_frames=0,
            accepted_frames=0,
            survived=0,
            replay_accepts=0,
            false_decodes=0,
            jamming_events=0,
            detection_latency_s=None,
            degraded_segments=0,
            dropped_segments=0,
            guard=GuardStats(),
        )
        assert report.survival == 1.0  # vacuous, but not a pass
        assert not report.passed()

    @pytest.mark.parametrize("command", ["chaos", "attack"])
    def test_drill_that_decodes_nothing_fails(self, command, capsys):
        code = main(
            [
                command,
                "--scenario", "none",
                "--snr", "-30",
                "--packets", "6",
                "--duration", "0.4",
            ]
        )
        out = capsys.readouterr().out
        assert "baseline frames: 0" in out
        assert code == 1

    @pytest.mark.parametrize("command", ["chaos", "attack"])
    def test_nan_snr_rejected(self, command):
        # Before, a NaN SNR rendered an all-NaN capture that both
        # drills scored as 100 % survival with exit status 0.
        with pytest.raises(ConfigurationError):
            main(
                [
                    command,
                    "--scenario", "none",
                    "--snr", "nan",
                    "--packets", "6",
                    "--duration", "0.4",
                ]
            )


class TestPlanNames:
    @pytest.mark.parametrize(
        "kind, scenario", [("nope", "none"), ("chaos", "nope"), ("attack", "nope")]
    )
    def test_unknown_kind_or_scenario_is_a_repro_error(self, kind, scenario):
        # These raised a bare ValueError, outside the package's
        # ReproError hierarchy.
        with pytest.raises(ConfigurationError):
            DrillScene().plan(kind, scenario)
