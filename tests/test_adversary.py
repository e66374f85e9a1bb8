"""Tests for the adversarial device models (repro.net.adversary)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import (
    ATTACK_SCENARIOS,
    AttackPlan,
    JammerSpec,
    ReplaySpec,
    SpoofSpec,
    build_attack_scenario,
    render_attack_plan,
)
from repro.net.scene import SceneBuilder
from repro.phy import create_modem

FS = 1e6


@pytest.fixture(scope="module")
def modems():
    return [create_modem("xbee"), create_modem("zwave")]


def _scene(modems, rng, n_packets=6, duration_s=0.5):
    builder = SceneBuilder(FS, duration_s)
    n = int(duration_s * FS)
    for i in range(n_packets):
        builder.add_packet(
            modems[i % len(modems)],
            b"pkt%02d" % i,
            int((i + 0.5) * n / n_packets),
            12.0,
            rng,
            snr_mode="capture",
        )
    return builder


class TestSpecValidation:
    def test_jammer_kind_and_window(self):
        with pytest.raises(ConfigurationError):
            JammerSpec(kind="laser", start_s=0.0, end_s=1.0, power=1.0)
        with pytest.raises(ConfigurationError):
            JammerSpec(kind="cw", start_s=1.0, end_s=1.0, power=1.0)
        with pytest.raises(ConfigurationError):
            JammerSpec(kind="cw", start_s=0.0, end_s=1.0, power=-1.0)
        with pytest.raises(ConfigurationError):
            JammerSpec(kind="sweep", start_s=0.0, end_s=1.0, power=1.0)

    def test_replay_and_spoof_fields(self):
        with pytest.raises(ConfigurationError):
            ReplaySpec(victim=-1, delay_s=0.1)
        with pytest.raises(ConfigurationError):
            ReplaySpec(victim=0, delay_s=0.0)
        with pytest.raises(ConfigurationError):
            SpoofSpec(technology="xbee", start_s=-0.1, snr_db=10.0)
        with pytest.raises(ConfigurationError):
            SpoofSpec(technology="xbee", start_s=0.1, snr_db=10.0, payload_len=0)

    def test_plan_time_queries(self):
        plan = AttackPlan(
            jammers=(
                JammerSpec(kind="cw", start_s=0.1, end_s=0.3, power=2.0),
                JammerSpec(kind="cw", start_s=0.2, end_s=0.4, power=2.0),
            )
        )
        assert AttackPlan().is_empty()
        assert not plan.is_empty()


class TestRenderDeterminism:
    def test_no_plan_render_is_bit_identical(self, modems):
        def build(with_call):
            rng = np.random.default_rng(5)
            builder = _scene(modems, rng)
            if with_call:
                ledger = render_attack_plan(builder, None, modems)
                assert ledger.injected == []
                ledger = render_attack_plan(builder, AttackPlan(seed=9), modems)
                assert ledger.injected == []
            capture, _ = builder.render(rng)
            return capture

        np.testing.assert_array_equal(build(True), build(False))

    def test_same_plan_renders_bit_identical(self, modems):
        plan = build_attack_scenario(
            "mixed", seed=77, duration_s=0.5, n_packets_hint=6
        )

        def build():
            rng = np.random.default_rng(5)
            builder = _scene(modems, rng)
            render_attack_plan(builder, plan, modems)
            capture, _ = builder.render(rng)
            return capture

        np.testing.assert_array_equal(build(), build())

    def test_attack_classes_have_independent_streams(self, modems):
        # Adding a jammer must not reshuffle the replay/spoof waveforms:
        # each class draws from its own salted generator.
        spoof = SpoofSpec(technology="xbee", start_s=0.05, snr_db=12.0)
        jammer = JammerSpec(kind="cw", start_s=0.3, end_s=0.4, power=2.0)

        def spoof_wave(with_jammer):
            rng = np.random.default_rng(5)
            builder = _scene(modems, rng, n_packets=2)
            jammers = (jammer,) if with_jammer else ()
            render_attack_plan(
                builder, AttackPlan(seed=3, jammers=jammers, spoofs=(spoof,)),
                modems,
            )
            capture, _ = builder.render(rng)
            return capture[: int(0.02 * FS)]  # well before the jam window

        np.testing.assert_array_equal(spoof_wave(True), spoof_wave(False))


class TestRenderContent:
    def test_jammer_raises_band_power(self, modems):
        rng = np.random.default_rng(5)
        builder = _scene(modems, rng, n_packets=0)
        plan = AttackPlan(
            jammers=(JammerSpec(kind="pulse", start_s=0.1, end_s=0.3, power=8.0),)
        )
        ledger = render_attack_plan(builder, plan, modems)
        capture, truth = builder.render(rng)
        assert [t.kind for t in ledger.injected] == ["jam-pulse"]
        jam = capture[int(0.1 * FS) : int(0.3 * FS)]
        quiet = capture[int(0.4 * FS) :]
        assert np.mean(np.abs(jam) ** 2) > 1.5 * np.mean(np.abs(quiet) ** 2)

    def test_replay_copies_victim_payload(self, modems):
        rng = np.random.default_rng(5)
        builder = _scene(modems, rng)
        victim = builder.packets[2]
        plan = AttackPlan(
            replays=(ReplaySpec(victim=2, delay_s=0.05, gain_db=3.0),)
        )
        ledger = render_attack_plan(builder, plan, modems)
        (replayed,) = ledger.replayed
        assert replayed.technology == victim.technology
        assert replayed.payload == victim.payload
        assert replayed.start == victim.start + int(0.05 * FS)
        assert ledger.replayed_payloads() == {
            (victim.technology, victim.payload)
        }

    def test_replay_against_empty_scene_raises(self, modems):
        rng = np.random.default_rng(5)
        builder = _scene(modems, rng, n_packets=0)
        plan = AttackPlan(replays=(ReplaySpec(victim=0, delay_s=0.05),))
        with pytest.raises(ConfigurationError):
            render_attack_plan(builder, plan, modems)

    def test_spoof_keeps_preamble_but_corrupts_body(self, modems):
        # The spoofed waveform must sync (detectors fire) yet never
        # decode: a valid preamble with a garbage body.
        rng = np.random.default_rng(5)
        builder = _scene(modems, rng, n_packets=0)
        plan = AttackPlan(
            spoofs=(SpoofSpec(technology="xbee", start_s=0.1, snr_db=30.0),)
        )
        ledger = render_attack_plan(builder, plan, modems)
        (spoofed,) = ledger.spoofed
        capture, _ = builder.render(rng)
        xbee = next(m for m in modems if m.name == "xbee")
        segment = capture[spoofed.start : spoofed.start + spoofed.length]
        from repro.dsp.resample import to_rate

        native = to_rate(segment, FS, xbee.sample_rate)
        try:
            frame = xbee.demodulate(native)
            assert not frame.crc_ok
        except Exception:
            pass  # failing to even frame-up is an acceptable outcome

    def test_spoof_unknown_technology_raises(self, modems):
        rng = np.random.default_rng(5)
        builder = _scene(modems, rng, n_packets=0)
        plan = AttackPlan(
            spoofs=(SpoofSpec(technology="lora", start_s=0.1, snr_db=10.0),)
        )
        with pytest.raises(ConfigurationError):
            render_attack_plan(builder, plan, modems)


class TestScenarios:
    def test_all_names_build(self):
        for name in ATTACK_SCENARIOS:
            plan = build_attack_scenario(name, seed=3)
            assert plan.seed == 3
            if name == "none":
                assert plan.is_empty()
            else:
                assert not plan.is_empty()

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            build_attack_scenario("zerg_rush")

    def test_scenarios_are_seed_deterministic(self):
        assert build_attack_scenario("mixed", seed=9) == build_attack_scenario(
            "mixed", seed=9
        )
        assert build_attack_scenario("mixed", seed=9) != build_attack_scenario(
            "mixed", seed=10
        )
