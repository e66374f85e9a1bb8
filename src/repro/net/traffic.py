"""Traffic generators: organic duty-cycled traffic and forced collisions.

Two scene generators feed the experiments:

* :func:`poisson_scene` — every device wakes up on its own Poisson
  clock, exactly the uncoordinated "wake up and transmit" behaviour the
  paper describes; collisions happen by chance.
* :func:`packet_scene` — deliberately overlapping packets of chosen
  technologies at chosen SNRs, used by the Figure 3(c) throughput
  experiment (the paper adjusts duty cycles "to capture all possible
  scenarios, including intertechnology collisions", lone packets
  included). :func:`collision_scene` is the same render for 2 or more
  packets.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigurationError
from ..phy.base import Modem
from ..types import SceneTruth
from .device import Device
from .scene import SceneBuilder

__all__ = [
    "poisson_scene",
    "packet_scene",
    "collision_scene",
]


def poisson_scene(
    devices: list[Device],
    sample_rate_hz: float,
    duration_s: float,
    rng: np.random.Generator,
    noise_power: float = 1.0,
    cfo_ppm_range: float = 0.0,
    carrier_hz: float = 868e6,
) -> tuple[np.ndarray, SceneTruth]:
    """Render a scene of independent Poisson transmitters.

    Args:
        devices: Transmitting devices (each with its own SNR and rate).
        sample_rate_hz: Capture sample rate.
        duration_s: Scene length.
        rng: Random source.
        noise_power: Scene noise floor.
        cfo_ppm_range: Each packet draws a crystal error uniform in
            ±``cfo_ppm_range`` ppm of ``carrier_hz``.
        carrier_hz: Carrier for the ppm→Hz conversion.
    """
    if not devices:
        raise ConfigurationError("at least one device is required")
    builder = SceneBuilder(sample_rate_hz, duration_s, noise_power)
    for dev in devices:
        for t in dev.draw_arrivals(duration_s, rng):
            payload = dev.draw_payload(rng)
            cfo = 0.0
            if cfo_ppm_range > 0:
                cfo = float(rng.uniform(-cfo_ppm_range, cfo_ppm_range))
                cfo = cfo * 1e-6 * carrier_hz
            builder.add_packet(
                dev.modem,
                payload,
                start=int(t * sample_rate_hz),
                snr_db=dev.snr_db,
                rng=rng,
                device_id=dev.device_id,
                cfo_hz=cfo,
            )
    return builder.render(rng)


def packet_scene(
    modems: list[Modem],
    snrs_db: list[float],
    sample_rate_hz: float,
    rng: np.random.Generator,
    payload_len: int = 16,
    overlap: float = 1.0,
    noise_power: float = 1.0,
    guard_s: float = 2e-3,
    snr_mode: str = "inband",
    cfo_ppm_range: float = 0.0,
    carrier_hz: float = 868e6,
) -> tuple[np.ndarray, SceneTruth]:
    """Render ``len(modems)`` deliberately overlapping packets.

    Args:
        modems: Transmitting technologies (1 or more).
        snrs_db: In-band SNR per packet (same length as ``modems``).
        sample_rate_hz: Capture sample rate.
        rng: Random source (phases + payloads).
        payload_len: Payload size for every packet.
        overlap: 1.0 = all packets start together (complete overlap);
            0.0 = packets start back-to-back. Intermediate values slide
            each later packet by ``(1 - overlap)`` of the *preceding*
            packet's own airtime, so with heterogeneous technologies
            every consecutive pair overlaps for the same fraction of
            the earlier packet's frame.
        noise_power: Scene noise floor.
        guard_s: Silence before the first and after the last packet.
        snr_mode: SNR convention, see
            :meth:`repro.net.scene.SceneBuilder.add_packet`.
        cfo_ppm_range: Per-packet crystal error drawn uniform in ±range.
        carrier_hz: Carrier for the ppm→Hz conversion.

    Raises:
        ConfigurationError: on mismatched list lengths or bad overlap.
    """
    if len(modems) != len(snrs_db):
        raise ConfigurationError("modems and snrs_db must have equal length")
    if not modems:
        raise ConfigurationError("at least one modem is required")
    if not 0.0 <= overlap <= 1.0:
        raise ConfigurationError("overlap must be in [0, 1]")
    airtimes = [m.frame_airtime(payload_len) for m in modems]
    guard = guard_s
    starts_s = []
    t = guard
    for i, _ in enumerate(modems):
        starts_s.append(t)
        if i + 1 < len(modems):
            t += airtimes[i] * (1.0 - overlap)
    duration = max(
        s + a for s, a in zip(starts_s, airtimes, strict=True)
    ) + guard
    builder = SceneBuilder(sample_rate_hz, duration, noise_power)
    for dev_id, (modem, snr, start_s) in enumerate(
        zip(modems, snrs_db, starts_s, strict=True)
    ):
        payload = rng.integers(0, 256, payload_len, dtype=np.uint8).tobytes()
        cfo = 0.0
        if cfo_ppm_range > 0:
            cfo = float(rng.uniform(-cfo_ppm_range, cfo_ppm_range))
            cfo = cfo * 1e-6 * carrier_hz
        builder.add_packet(
            modem,
            payload,
            start=int(start_s * sample_rate_hz),
            snr_db=snr,
            rng=rng,
            device_id=dev_id,
            cfo_hz=cfo,
            snr_mode=snr_mode,
        )
    return builder.render(rng)


def collision_scene(
    modems: list[Modem],
    snrs_db: list[float],
    sample_rate_hz: float,
    rng: np.random.Generator,
    **options: Any,
) -> tuple[np.ndarray, SceneTruth]:
    """Render one deliberate collision: a :func:`packet_scene` of 2 or
    more packets. ``options`` are :func:`packet_scene`'s keywords.

    Raises:
        ConfigurationError: for fewer than 2 modems, and as
            :func:`packet_scene`.
    """
    if len(modems) < 2:
        raise ConfigurationError(
            "a collision needs 2 or more modems "
            "(use packet_scene for a single packet)"
        )
    return packet_scene(modems, snrs_db, sample_rate_hz, rng, **options)
