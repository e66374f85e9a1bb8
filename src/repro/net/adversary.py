"""Adversarial RF device models: ``repro.net.adversary``.

The paper's gateway/cloud split assumes every transmitter is honest;
production deployments face jamming, replayed frames and spoofed
preambles — the attack shapes the BLE/Zigbee SDR penetration-testing
literature demonstrates against real stacks, and the ones ChirpOTLE
scripts against LoRaWAN channels. This module gives the simulator those
attackers, under the same seeded-determinism contract as
:class:`repro.faults.FaultPlan`:

* **Jammers** (:class:`JammerSpec`) — CW tones, sawtooth sweeps and
  pulsed wideband noise bursts, synthesized by :mod:`repro.dsp.jam` and
  scaled relative to the scene's noise floor.
* **Replay attackers** (:class:`ReplaySpec`) — capture a legitimate
  frame and re-inject a bit-exact copy at a later offset (fresh carrier
  phase, optional gain): the frame decodes perfectly, which is exactly
  the problem — only a duplicate-payload guard can reject it.
* **Spoofers** (:class:`SpoofSpec`) — emit the technology's genuine
  preamble + sync followed by noise where the payload belongs: every
  detector fires, every decode fails, and the pipeline burns backhaul
  and cloud cycles on garbage (a false-decode guard's workload).

Determinism contract (mirrors :class:`~repro.faults.FaultPlan`): every
waveform an :class:`AttackPlan` injects is a pure function of
``(plan.seed, attack index, spec fields)`` — two same-seed renders are
bit-identical. ``plan=None`` is the universal default and costs nothing:
:func:`render_attack_plan` returns immediately and the scene is
bit-identical to a render without the adversary layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsp.channel import scale_to_snr
from ..dsp.impairments import apply_phase
from ..dsp.jam import cw_tone, pulsed_noise, swept_tone
from ..dsp.resample import to_rate
from ..errors import ConfigurationError
from ..phy.base import Modem
from .scene import SceneBuilder

__all__ = [
    "JammerSpec",
    "ReplaySpec",
    "SpoofSpec",
    "AttackPlan",
    "AttackTruth",
    "AttackLedger",
    "render_attack_plan",
    "ATTACK_SCENARIOS",
    "build_attack_scenario",
]

# Per-attack-class RNG salts: each injected waveform draws from
# default_rng((plan.seed, salt, index)) so attack classes never share a
# stream and adding one attacker never reshuffles another's randomness.
_JAM_SALT = 0x1A
_REPLAY_SALT = 0x2B
_SPOOF_SALT = 0x3C

JAMMER_KINDS = ("cw", "sweep", "pulse")
"""Jammer flavours understood by :class:`JammerSpec`."""


@dataclass(frozen=True)
class JammerSpec:
    """One jammer burst occupying ``[start_s, end_s)`` of the capture.

    Attributes:
        kind: One of :data:`JAMMER_KINDS` — ``"cw"`` (a parked tone),
            ``"sweep"`` (a sawtooth chirp across a span) or ``"pulse"``
            (duty-cycled wideband noise bursts).
        start_s: Burst start on the capture time axis.
        end_s: Burst end (exclusive).
        power: Jam power as a linear multiple of the scene's full-band
            noise power (2.0 = 3 dB above the floor). For pulsed
            jammers this is the *in-burst* power.
        center_hz: Tone frequency (CW) or sweep-span centre (sweep).
        span_hz: Total sweep width (sweep only).
        period_s: Sweep repetition period, or pulse period.
        duty: On-fraction of each pulse period (pulse only).
    """

    kind: str
    start_s: float
    end_s: float
    power: float
    center_hz: float = 0.0
    span_hz: float = 0.0
    period_s: float = 0.01
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in JAMMER_KINDS:
            raise ConfigurationError(
                f"unknown jammer kind {self.kind!r}; choose from {JAMMER_KINDS}"
            )
        if self.end_s <= self.start_s:
            raise ConfigurationError("need start_s < end_s")
        if self.power < 0:
            raise ConfigurationError("power must be >= 0")
        if self.kind == "sweep" and self.span_hz <= 0:
            raise ConfigurationError("sweep jammers need span_hz > 0")


@dataclass(frozen=True)
class ReplaySpec:
    """Re-inject one legitimate frame at a later offset.

    Attributes:
        victim: Index into the scene's legitimate packets (taken modulo
            the packet count, so plans compose with any traffic volume).
        delay_s: Re-injection delay after the original frame start.
        gain_db: Replay gain relative to the original frame's SNR (a
            closer/louder attacker replays hotter than the victim).
    """

    victim: int
    delay_s: float
    gain_db: float = 0.0

    def __post_init__(self) -> None:
        if self.victim < 0:
            raise ConfigurationError("victim index must be >= 0")
        if self.delay_s <= 0:
            raise ConfigurationError("delay_s must be positive")


@dataclass(frozen=True)
class SpoofSpec:
    """Emit a valid preamble + sync with a corrupted payload.

    Attributes:
        technology: Registry name of the spoofed technology.
        start_s: Injection time on the capture axis.
        snr_db: Injection SNR (same convention as the scene's packets).
        payload_len: Length of the (garbage) payload body in bytes —
            sets the spoofed frame's airtime.
    """

    technology: str
    start_s: float
    snr_db: float
    payload_len: int = 12

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("start_s must be >= 0")
        if self.payload_len < 1:
            raise ConfigurationError("payload_len must be >= 1")


@dataclass(frozen=True)
class AttackPlan:
    """A deterministic schedule of adversarial transmissions.

    Mirrors :class:`repro.faults.FaultPlan`: frozen, picklable, and a
    pure function of its fields — rendering the same plan against the
    same scene twice yields bit-identical captures. ``None`` is the
    no-adversary default everywhere, checked with a single ``is None``.

    Attributes:
        seed: Root seed; every injected waveform's randomness (phases,
            noise bursts, garbage payloads) derives from it.
        jammers: Jam bursts on the capture time axis.
        replays: Frame replays against the scene's legitimate packets.
        spoofs: Spoofed-preamble transmissions.
    """

    seed: int = 0
    jammers: tuple[JammerSpec, ...] = ()
    replays: tuple[ReplaySpec, ...] = ()
    spoofs: tuple[SpoofSpec, ...] = ()

    def is_empty(self) -> bool:
        """Whether the plan schedules no attack at all."""
        return not (self.jammers or self.replays or self.spoofs)


@dataclass(frozen=True)
class AttackTruth:
    """Ground truth for one injected adversarial transmission.

    Attributes:
        kind: ``"jam-cw"``, ``"jam-sweep"``, ``"jam-pulse"``,
            ``"replay"`` or ``"spoof"``.
        start: First capture sample of the injected waveform.
        length: Injected waveform length in capture samples.
        technology: Mimicked technology (replay/spoof; ``None`` for
            jammers).
        payload: The replayed frame's payload — what an unguarded
            decoder will happily accept twice. ``None`` for jammers and
            spoofs (a spoof's payload is garbage by construction).
    """

    kind: str
    start: int
    length: int
    technology: str | None = None
    payload: bytes | None = None


@dataclass
class AttackLedger:
    """Everything :func:`render_attack_plan` injected, for scoring.

    The drill compares decoded frames against this ledger: an accepted
    frame matching a replayed ``(technology, payload)`` beyond its first
    legitimate decode is a *replay accept*; an accepted frame matching
    nothing in the scene truth is a *false decode*.
    """

    injected: list[AttackTruth] = field(default_factory=list)

    @property
    def replayed(self) -> list[AttackTruth]:
        """The replay injections, in schedule order."""
        return [t for t in self.injected if t.kind == "replay"]

    @property
    def spoofed(self) -> list[AttackTruth]:
        """The spoof injections, in schedule order."""
        return [t for t in self.injected if t.kind == "spoof"]

    def replayed_payloads(self) -> set[tuple[str, bytes]]:
        """``(technology, payload)`` pairs the replay attacker copied."""
        return {
            (t.technology, t.payload)
            for t in self.replayed
            if t.technology is not None and t.payload is not None
        }


def _as_modem_map(modems: list[Modem] | dict[str, Modem]) -> dict[str, Modem]:
    if isinstance(modems, dict):
        return modems
    return {m.name: m for m in modems}


def _jam_waveform(
    spec: JammerSpec,
    n_samples: int,
    sample_rate_hz: float,
    rng: np.random.Generator,
) -> np.ndarray:
    phase = float(rng.uniform(0, 2 * np.pi))
    if spec.kind == "cw":
        return cw_tone(n_samples, sample_rate_hz, spec.center_hz, phase)
    if spec.kind == "sweep":
        half = spec.span_hz / 2
        return swept_tone(
            n_samples,
            sample_rate_hz,
            spec.center_hz - half,
            spec.center_hz + half,
            spec.period_s,
            phase,
        )
    return pulsed_noise(
        n_samples, sample_rate_hz, spec.period_s, spec.duty, rng
    )


def render_attack_plan(
    builder: SceneBuilder,
    plan: AttackPlan | None,
    modems: list[Modem] | dict[str, Modem],
) -> AttackLedger:
    """Inject a plan's attack timeline into a scene under construction.

    Call after the legitimate packets are placed (replays copy them) and
    before :meth:`~repro.net.scene.SceneBuilder.render`. All adversary
    randomness comes from generators derived from ``plan.seed``, never
    from the scene's own generator — so a scene with ``plan=None`` (or
    an empty plan) is bit-identical to one built without this call, and
    two same-seed renders of the same plan are bit-identical to each
    other. Replay and spoof SNRs are per-sample SNRs over the full
    capture band (``snr_mode="capture"`` in
    :meth:`~repro.net.scene.SceneBuilder.add_packet`), the convention
    the drills place honest packets with.

    Args:
        builder: The scene, with legitimate traffic already placed.
        plan: The attack schedule (``None`` → no-op, empty ledger).
        modems: The registered technologies (replays and spoofs
            re-modulate through them).

    Raises:
        ConfigurationError: for a replay against a scene with no
            packets, or a spoofed technology that is not registered.
    """
    ledger = AttackLedger()
    if plan is None or plan.is_empty():
        return ledger
    modem_map = _as_modem_map(modems)
    fs = builder.sample_rate_hz
    noise_power = builder.noise_power

    for i, spec in enumerate(plan.jammers):
        rng = np.random.default_rng((plan.seed, _JAM_SALT, i))
        lo = max(int(round(spec.start_s * fs)), 0)
        hi = min(int(round(spec.end_s * fs)), builder.n_samples)
        if hi <= lo:
            continue
        wave = _jam_waveform(spec, hi - lo, fs, rng)
        # Jam power is full-band relative to the noise floor; the
        # generators all emit unit in-burst power.
        wave = wave * np.sqrt(spec.power * max(noise_power, 1e-30))
        builder.add_interference(wave, lo)
        ledger.injected.append(
            AttackTruth(kind=f"jam-{spec.kind}", start=lo, length=hi - lo)
        )

    packets = list(builder.packets)
    for i, replay in enumerate(plan.replays):
        if not packets:
            raise ConfigurationError(
                "replay attack against a scene with no legitimate packets"
            )
        rng = np.random.default_rng((plan.seed, _REPLAY_SALT, i))
        target = packets[replay.victim % len(packets)]
        modem = modem_map[target.technology]
        wave = to_rate(modem.modulate(target.payload), modem.sample_rate, fs)
        wave = apply_phase(wave, float(rng.uniform(0, 2 * np.pi)))
        if noise_power > 0:
            wave = scale_to_snr(
                wave, target.snr_db + replay.gain_db, noise_power, fs, fs
            )
        start = target.start + int(round(replay.delay_s * fs))
        builder.add_interference(wave, start)
        ledger.injected.append(
            AttackTruth(
                kind="replay",
                start=start,
                length=len(wave),
                technology=target.technology,
                payload=target.payload,
            )
        )

    for i, spoof in enumerate(plan.spoofs):
        if spoof.technology not in modem_map:
            raise ConfigurationError(
                f"spoofed technology {spoof.technology!r} is not registered"
            )
        rng = np.random.default_rng((plan.seed, _SPOOF_SALT, i))
        modem = modem_map[spoof.technology]
        payload = rng.integers(
            0, 256, size=spoof.payload_len, dtype=np.uint8
        ).tobytes()
        wave = np.array(modem.modulate(payload), dtype=complex)
        # Keep the genuine preamble + sync so every detector (and the
        # demodulator's sync search) fires; replace the body with noise
        # at the body's own RMS so the frame is energy-plausible but the
        # payload is unrecoverable garbage.
        keep = min(len(modem.sync_reference()), len(wave))
        body = len(wave) - keep
        if body > 0:
            rms = float(np.sqrt(np.mean(np.abs(wave[keep:]) ** 2)))
            garbage = (
                rng.normal(size=body) + 1j * rng.normal(size=body)
            ) / np.sqrt(2)
            wave[keep:] = garbage * rms
        wave = to_rate(wave, modem.sample_rate, fs)
        wave = apply_phase(wave, float(rng.uniform(0, 2 * np.pi)))
        if noise_power > 0:
            wave = scale_to_snr(wave, spoof.snr_db, noise_power, fs, fs)
        start = int(round(spoof.start_s * fs))
        builder.add_interference(wave, start)
        ledger.injected.append(
            AttackTruth(
                kind="spoof",
                start=start,
                length=len(wave),
                technology=spoof.technology,
            )
        )
    return ledger


ATTACK_SCENARIOS = (
    "none",
    "cw_jam",
    "sweep_jam",
    "pulse_jam",
    "replay",
    "spoof",
    "mixed",
)
"""Named attack scenarios understood by :func:`build_attack_scenario`
and ``galiot attack --scenario``."""


def build_attack_scenario(
    name: str,
    seed: int = 0,
    duration_s: float = 2.0,
    technologies: tuple[str, ...] = ("xbee", "zwave"),
    n_packets_hint: int = 48,
) -> AttackPlan:
    """Construct one of the canonical named attack scenarios.

    The scenario shapes are calibrated against the drill's default scene
    (compact-frame technologies at healthy SNR): jam bursts cover a
    minority of the capture at a power the hardened pipeline should ride
    through, replays copy a handful of frames, spoofs land between
    legitimate packets.

    Args:
        name: One of :data:`ATTACK_SCENARIOS`.
        seed: Root seed for the plan (attack placement derives from it).
        duration_s: Modelled capture length, for time-axis placement.
        technologies: Technologies available for spoofing.
        n_packets_hint: Expected legitimate-packet count; replay victims
            are spread across it.
    """
    if name not in ATTACK_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {ATTACK_SCENARIOS}"
        )
    if name == "none":
        return AttackPlan(seed=seed)
    rng = np.random.default_rng((seed, ATTACK_SCENARIOS.index(name)))
    d = duration_s
    hint = max(n_packets_hint, 1)

    def jam(kind: str, lo: float, hi: float, power: float, **kw) -> JammerSpec:
        return JammerSpec(
            kind=kind, start_s=lo * d, end_s=hi * d, power=power, **kw
        )

    cw = (
        jam("cw", 0.10, 0.30, 4.0, center_hz=180e3),
        jam("cw", 0.55, 0.75, 4.0, center_hz=-220e3),
    )
    sweep = (
        jam(
            "sweep", 0.15, 0.40, 3.0,
            center_hz=0.0, span_hz=360e3, period_s=0.004,
        ),
        jam(
            "sweep", 0.60, 0.80, 3.0,
            center_hz=100e3, span_hz=240e3, period_s=0.006,
        ),
    )
    pulse = (
        jam("pulse", 0.10, 0.85, 2.5, period_s=0.020, duty=0.25),
    )
    n_replays = max(2, hint // 8)
    # Replays transmit hot (+3..6 dB): a real attacker is closer than
    # the victim, and the power separation is what lets the cloud's SIC
    # cancel a replay that lands on top of a live frame and still
    # recover the frame underneath.
    replays = tuple(
        ReplaySpec(
            victim=int(rng.integers(0, hint)),
            delay_s=float(rng.uniform(0.15, 0.35)) * d,
            gain_db=float(rng.uniform(3.0, 6.0)),
        )
        for _ in range(n_replays)
    )
    # Spoofs land mid-gap of the drill's packet grid (packets sit at
    # (i + 0.5) * d / hint): a same-technology, equal-power collision is
    # unrecoverable by construction, and the spoofer's goal is to fool
    # the acceptance path, not to body-block one frame.
    spoofs = tuple(
        SpoofSpec(
            technology=technologies[i % len(technologies)],
            start_s=((int(rng.integers(0, hint)) + 1.0) / hint) * d,
            snr_db=12.0,
            payload_len=10 + 2 * (i % 3),
        )
        for i in range(4)
    )
    if name == "cw_jam":
        return AttackPlan(seed=seed, jammers=cw)
    if name == "sweep_jam":
        return AttackPlan(seed=seed, jammers=sweep)
    if name == "pulse_jam":
        return AttackPlan(seed=seed, jammers=pulse)
    if name == "replay":
        return AttackPlan(seed=seed, replays=replays)
    if name == "spoof":
        return AttackPlan(seed=seed, spoofs=spoofs)
    # Mixed keeps the jam windows disjoint: each jammer alone is
    # calibrated to be survivable, but stacking both on the same packets
    # compounds the interference past what any receiver could ride out.
    return AttackPlan(
        seed=seed,
        jammers=(
            jam("cw", 0.55, 0.75, 4.0, center_hz=180e3),
            jam("pulse", 0.10, 0.45, 2.5, period_s=0.020, duty=0.25),
        ),
        replays=replays[: max(2, n_replays // 2)],
        spoofs=spoofs[:2],
    )
