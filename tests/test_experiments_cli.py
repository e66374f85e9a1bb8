"""Smoke tests for the experiment harnesses and the CLI.

Full-size experiment runs live in benchmarks/; here each harness runs at
its smallest size to validate plumbing and result shapes.
"""

import pytest

from repro.cli import main
from repro.experiments import (
    fig3c_collisions,
    format_table,
    run_compression,
    run_edge_cloud,
    run_kill_filters,
    run_scaling,
    run_sic_depth,
    run_table1,
)
from repro.experiments.common import ExperimentTable
from repro.experiments.fig3b_detection import PAPER_FIG3B, fig3b_modems


class TestTable1:
    def test_rows_match_registry(self):
        table = run_table1()
        assert len(table.rows) == 11
        assert table.rows[0][0] == "LoRa"

    def test_formatting(self):
        text = format_table(run_table1())
        assert "Z-Wave" in text
        assert "note:" in text


class TestFig3bConfig:
    def test_modem_configuration(self):
        modems = {m.name: m for m in fig3b_modems()}
        assert modems["lora"].preamble_len == 32
        assert len(modems["zwave"].preamble_waveform()) > len(
            modems["xbee"].preamble_waveform()
        )

    def test_paper_reference_shape(self):
        for series in PAPER_FIG3B.values():
            assert len(series) == 5

    def test_paper_energy_collapse_encoded(self):
        # The reference data must encode the 84% -> 0.04% collapse.
        assert PAPER_FIG3B["energy"][3] == pytest.approx(0.84)
        assert PAPER_FIG3B["energy"][0] < 0.01


class TestAblations:
    def test_sic_depth_table(self):
        table = run_sic_depth()
        assert isinstance(table, ExperimentTable)
        rows = {row[0]: row[2] for row in table.rows}
        # Zero-CFO cancellation must be much deeper than any CFO row.
        assert rows[0.0] > 25
        assert rows[0.0] > rows[2.0] + 10

    def test_compression_table(self):
        table = run_compression()
        strategies = {row[0]: row[1] for row in table.rows}
        raw = strategies["ship raw stream"]
        shipped = strategies["detect-and-ship (2x max frame)"]
        compressed = strategies["detect + requantize + zlib"]
        assert compressed <= shipped < raw

    def test_kill_filter_table(self):
        table = run_kill_filters()
        assert len(table.rows) == 4
        for row in table.rows:
            filter_name, target, bystander, suppressed, lost, decodes = row
            assert suppressed > 7.0, row  # target mostly removed
            assert lost < suppressed, row  # bystander keeps more than target

    def test_edge_cloud_split(self):
        table = run_edge_cloud(rounds=1)
        (segments, edge_only, shipped, edge_frames) = table.rows[0]
        assert segments >= 1
        assert edge_only + shipped == segments

    def test_scaling_is_constant_for_universal(self):
        table = run_scaling(repeats=1)
        uni_corrs = [row[1] for row in table.rows]
        bank_corrs = [row[2] for row in table.rows]
        assert all(c == 1 for c in uni_corrs)
        assert bank_corrs == [row[0] for row in table.rows]


class TestFig3c:
    def test_single_packet_episodes_run(self, monkeypatch):
        # EPISODE_MIX draws lone packets (no collision); they must render
        # and decode like any other episode.
        monkeypatch.setattr(fig3c_collisions, "EPISODE_MIX", [(1, 1.0)])
        result = fig3c_collisions.run_fig3c(episodes_per_bucket=1)
        for bucket in result.buckets:
            for mode in ("sic", "galiot"):
                assert result.frames[bucket][mode][1] == 1
        assert result.frames["High"] == {"sic": (1, 1), "galiot": (1, 1)}


class TestCli:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "LoRa" in out

    def test_sic_depth_runs(self, capsys):
        assert main(["sic-depth"]) == 0
        assert "cancelled dB" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_unknown_option_rejected(self):
        # Only ``lint`` forwards arguments it does not know.
        with pytest.raises(SystemExit):
            main(["table1", "--bogus"])
