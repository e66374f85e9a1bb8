"""Scene composition: place packets on a timeline, produce one capture.

A *scene* is what the gateway's antenna sees: a complex baseband stream
at the capture rate containing a common AWGN floor plus every packet at
its own in-band SNR, start time, carrier phase and optional CFO. Ground
truth (:class:`repro.types.SceneTruth`) travels alongside so detectors
and decoders can be scored.

The noise floor is fixed at :data:`NOISE_POWER` (an arbitrary reference;
everything is relative) and packet amplitudes are derived from it via
:func:`repro.dsp.channel.scale_to_snr`, honouring the in-band SNR
convention documented in :mod:`repro.dsp.channel`.
"""

from __future__ import annotations

import numpy as np

from ..dsp.channel import add_at, scale_to_snr
from ..dsp.impairments import apply_cfo, apply_phase
from ..dsp.resample import to_rate
from ..errors import ConfigurationError
from ..phy.base import Modem
from ..types import PacketTruth, SceneTruth

__all__ = ["CARRIER_HZ", "NOISE_POWER", "SceneBuilder"]

#: Common full-band noise power of every scene (linear, arbitrary ref).
NOISE_POWER = 1.0

#: RF carrier of every scene (the paper's 868 MHz ISM band): the
#: reference for ppm crystal errors and the centre a saved capture
#: records.
CARRIER_HZ = 868e6


class SceneBuilder:
    """Accumulates packets, then renders the capture + ground truth.

    Args:
        sample_rate_hz: Capture sample rate (1 MHz in the paper's prototype).
        duration_s: Scene length in seconds.
        noise_power: Full-band AWGN power (linear).
    """

    def __init__(
        self, sample_rate_hz: float, duration_s: float, noise_power: float = NOISE_POWER
    ):
        # Comparisons with NaN are false, so each check is written to
        # fail on NaN (and inf), not pass it.
        if not (0 < sample_rate_hz < np.inf and 0 < duration_s < np.inf):
            raise ConfigurationError(
                "sample_rate_hz and duration_s must be positive and finite"
            )
        if not noise_power >= 0:
            raise ConfigurationError("noise_power must be >= 0")
        self.sample_rate_hz = float(sample_rate_hz)
        self.n_samples = int(round(duration_s * sample_rate_hz))
        self.noise_power = float(noise_power)
        self._stream = np.zeros(self.n_samples, dtype=complex)
        self._packets: list[PacketTruth] = []

    def add_packet(
        self,
        modem: Modem,
        payload: bytes,
        start: int,
        snr_db: float,
        rng: np.random.Generator,
        device_id: int = 0,
        cfo_hz: float = 0.0,
        snr_mode: str = "inband",
    ) -> PacketTruth:
        """Modulate and inject one packet.

        Args:
            modem: Technology to transmit with.
            payload: MAC payload bytes.
            start: First sample index in the capture.
            snr_db: SNR against the scene's noise floor; interpreted per
                ``snr_mode``.
            rng: Source of the carrier phase, drawn uniformly (real
                radios are never phase-aligned).
            device_id: Transmitting device id recorded in the truth.
            cfo_hz: Transmitter carrier offset applied to the waveform.
            snr_mode: ``"inband"`` — SNR inside the signal's own occupied
                bandwidth (the decoding-relevant figure); ``"capture"`` —
                per-sample SNR over the full capture bandwidth (what you
                get when injecting AWGN onto an RTL-SDR trace, as the
                paper's detection experiment does).

        Returns:
            The ground-truth record appended to the scene.

        Raises:
            ConfigurationError: for an unknown ``snr_mode``.
        """
        if snr_mode not in ("inband", "capture"):
            raise ConfigurationError(f"unknown snr_mode {snr_mode!r}")
        wave = modem.modulate(payload)
        wave = to_rate(wave, modem.sample_rate, self.sample_rate_hz)
        if cfo_hz:
            wave = apply_cfo(wave, cfo_hz, self.sample_rate_hz)
        wave = apply_phase(wave, float(rng.uniform(0, 2 * np.pi)))
        if self.noise_power > 0:
            ref_bw = modem.bandwidth if snr_mode == "inband" else self.sample_rate_hz
            wave = scale_to_snr(
                wave, snr_db, self.noise_power, min(ref_bw, self.sample_rate_hz), self.sample_rate_hz
            )
        add_at(self._stream, start, wave)
        truth = PacketTruth(
            packet_id=len(self._packets),
            technology=modem.name,
            start=max(start, 0),
            length=min(len(wave), self.n_samples - max(start, 0)),
            snr_db=snr_db,
            payload=bytes(payload),
            device_id=device_id,
        )
        self._packets.append(truth)
        return truth

    @property
    def packets(self) -> tuple[PacketTruth, ...]:
        """The legitimate packets placed so far (a replay attacker's menu)."""
        return tuple(self._packets)

    def add_interference(self, wave: np.ndarray, start: int) -> None:
        """Add a raw waveform into the capture without a truth record.

        This is the adversary's entry point
        (:mod:`repro.net.adversary`): jammer bursts, replayed frames and
        spoofed preambles are *not* legitimate packets, so they must not
        appear in :class:`~repro.types.SceneTruth` — detectors and
        decoders are scored against honest traffic only. The waveform is
        pre-scaled by the caller and clipped to the capture bounds.
        """
        add_at(self._stream, start, np.asarray(wave, dtype=complex))

    def render(self, rng: np.random.Generator) -> tuple[np.ndarray, SceneTruth]:
        """Add the AWGN floor and return ``(capture, truth)``."""
        capture = self._stream.copy()
        if self.noise_power > 0:
            sigma = np.sqrt(self.noise_power / 2)
            capture += rng.normal(scale=sigma, size=self.n_samples)
            capture += 1j * rng.normal(scale=sigma, size=self.n_samples)
        truth = SceneTruth(
            sample_rate=self.sample_rate_hz,
            n_samples=self.n_samples,
            noise_power=self.noise_power,
            packets=list(self._packets),
        )
        return capture, truth
