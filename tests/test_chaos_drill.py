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


class TestSceneValidation:
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), 0])
    @pytest.mark.parametrize("field", ["packets", "chunk"])
    def test_count_that_is_no_integer_is_a_configuration_error(self, field, bad):
        # Before, run_drill on packets=2.5 raised a bare ValueError from
        # the scene's random choices and packets=nan "cannot convert
        # float NaN to integer"; only the CLI's parsers kept them out.
        scene = {"duration_s": 0.2, "packets": 2, field: bad}
        with pytest.raises(ConfigurationError, match=field):
            run_drill(SMOKE.plan("chaos", "none"), "none", DrillScene(**scene))

    @pytest.mark.parametrize(
        "field, bad",
        [
            *[(f, v) for f in ("duration_s", "rate_mbps")
              for v in (float("nan"), float("inf"), 0.0, -1.0)],
            ("snr_db", float("nan")),
            ("snr_db", float("inf")),
        ],
    )
    def test_non_finite_or_non_positive_value_rejected(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            DrillScene(**{field: bad})

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan")])
    def test_seed_that_is_no_count_rejected(self, seed):
        # NumPy's seeding raised a bare ValueError or TypeError.
        with pytest.raises(ConfigurationError, match="seed"):
            DrillScene(seed=seed)

    def test_no_technologies_rejected(self):
        with pytest.raises(ConfigurationError, match="technologies"):
            DrillScene(technologies=())


class TestPlanNames:
    @pytest.mark.parametrize(
        "kind, scenario", [("nope", "none"), ("chaos", "nope"), ("attack", "nope")]
    )
    def test_unknown_kind_or_scenario_is_a_repro_error(self, kind, scenario):
        # These raised a bare ValueError, outside the package's
        # ReproError hierarchy.
        with pytest.raises(ConfigurationError):
            DrillScene().plan(kind, scenario)
