"""Traffic generators: organic duty-cycled traffic and forced collisions.

Two scene generators feed the experiments:

* :func:`poisson_scene` — every device wakes up on its own Poisson
  clock, exactly the uncoordinated "wake up and transmit" behaviour the
  paper describes; collisions happen by chance.
* :func:`packet_scene` — deliberately overlapping packets of chosen
  technologies at chosen SNRs, used by the Figure 3(c) throughput
  experiment (the paper adjusts duty cycles "to capture all possible
  scenarios, including intertechnology collisions", lone packets
  included) and by the collision experiments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..phy.base import Modem
from ..types import SceneTruth
from .device import Device
from .scene import CARRIER_HZ, SceneBuilder

__all__ = [
    "poisson_scene",
    "packet_scene",
]

#: Silence before the first and after the last packet of a
#: :func:`packet_scene`.
GUARD_S = 2e-3


def poisson_scene(
    devices: list[Device],
    sample_rate_hz: float,
    duration_s: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, SceneTruth]:
    """Render a scene of independent Poisson transmitters over the
    common noise floor (no carrier offsets).

    Args:
        devices: Transmitting devices (each with its own SNR and rate).
        sample_rate_hz: Capture sample rate.
        duration_s: Scene length.
        rng: Random source.
    """
    if not devices:
        raise ConfigurationError("at least one device is required")
    builder = SceneBuilder(sample_rate_hz, duration_s)
    for dev in devices:
        for t in dev.draw_arrivals(duration_s, rng):
            payload = dev.draw_payload(rng)
            builder.add_packet(
                dev.modem,
                payload,
                start=int(t * sample_rate_hz),
                snr_db=dev.snr_db,
                rng=rng,
                device_id=dev.device_id,
            )
    return builder.render(rng)


def packet_scene(
    modems: list[Modem],
    snrs_db: list[float],
    sample_rate_hz: float,
    rng: np.random.Generator,
    payload_len: int = 16,
    overlap: float = 1.0,
    snr_mode: str = "inband",
    cfo_ppm_range: float = 0.0,
) -> tuple[np.ndarray, SceneTruth]:
    """Render ``len(modems)`` deliberately overlapping packets over the
    common noise floor, with :data:`GUARD_S` of silence at each end.

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
        snr_mode: SNR convention, see
            :meth:`repro.net.scene.SceneBuilder.add_packet`.
        cfo_ppm_range: Per-packet crystal error drawn uniform in ±range
            ppm of :data:`~repro.net.scene.CARRIER_HZ`.

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
    starts_s = []
    t = GUARD_S
    for i, _ in enumerate(modems):
        starts_s.append(t)
        if i + 1 < len(modems):
            t += airtimes[i] * (1.0 - overlap)
    duration = max(
        s + a for s, a in zip(starts_s, airtimes, strict=True)
    ) + GUARD_S
    builder = SceneBuilder(sample_rate_hz, duration)
    for dev_id, (modem, snr, start_s) in enumerate(
        zip(modems, snrs_db, starts_s, strict=True)
    ):
        payload = rng.integers(0, 256, payload_len, dtype=np.uint8).tobytes()
        cfo = 0.0
        if cfo_ppm_range > 0:
            cfo = float(rng.uniform(-cfo_ppm_range, cfo_ppm_range))
            cfo = cfo * 1e-6 * CARRIER_HZ
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

