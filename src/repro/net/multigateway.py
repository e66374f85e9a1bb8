"""Multi-gateway diversity combining (the Charm direction).

The paper's reference [11] (Charm, IPSN'18 — by the same authors) shows
that LP-WAN packets too weak for any single gateway can be recovered by
*coherently combining* the I/Q of several gateways in the cloud. Since
GalioT already ships I/Q segments to the cloud, that capability falls
out naturally; this module implements it:

* :func:`receive_at_gateways` — renders one transmission as seen by N
  gateways (independent noise, per-gateway gain/phase/delay);
* :func:`combine_segments` — aligns and max-ratio combines the gateway
  copies into one higher-SNR stream;
* :func:`selection_diversity` — the baseline: decode whichever single
  gateway copy works.

An SNR gain of ~10·log10(N) dB over the best single gateway is the
theoretical ceiling; the tests verify packets undecodable at every
single gateway decode after combining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloud.sic import try_decode
from ..dsp.fastcorr import TemplateBank, correlate_many
from ..errors import ConfigurationError
from ..phy.base import FrameResult, Modem

__all__ = [
    "GatewayCopy",
    "receive_at_gateways",
    "combine_segments",
    "selection_diversity",
]

#: Noise-only samples before and after the frame in each gateway copy.
PAD_SAMPLES = 2000
#: Largest integer propagation/trigger skew between gateways, in samples.
MAX_DELAY = 8
#: Lead/lag samples around the first copy's peak that
#: :func:`combine_segments` searches when aligning the other copies.
ALIGN_SEARCH = 64


@dataclass
class GatewayCopy:
    """One gateway's view of the same transmission.

    Attributes:
        gateway_id: Which gateway captured it.
        samples: The captured segment (common sample rate).
        snr_db: The in-band SNR this gateway received the packet at
            (ground truth for experiments; real systems estimate it).
    """

    gateway_id: int
    samples: np.ndarray
    snr_db: float


def receive_at_gateways(
    modem: Modem,
    payload: bytes,
    snrs_db: list[float],
    rng: np.random.Generator,
) -> list[GatewayCopy]:
    """Render one transmission as captured by several gateways.

    Each gateway sees the same waveform with its own complex channel
    gain (amplitude set by its SNR, uniform random phase), an integer
    propagation/trigger skew of up to :data:`MAX_DELAY` samples, and
    independent AWGN, with :data:`PAD_SAMPLES` of noise on each side.
    """
    if not snrs_db:
        raise ConfigurationError("at least one gateway is required")
    wave = modem.modulate(payload)
    copies = []
    for gid, snr in enumerate(snrs_db):
        delay = int(rng.integers(0, MAX_DELAY + 1))
        buf = np.zeros(PAD_SAMPLES * 2 + len(wave) + MAX_DELAY, dtype=complex)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        amplitude = 10 ** (snr / 20)  # unit noise per sample below
        at = PAD_SAMPLES + delay
        buf[at : at + len(wave)] = wave * amplitude * phase
        noise = (
            rng.normal(size=len(buf)) + 1j * rng.normal(size=len(buf))
        ) / np.sqrt(2)
        copies.append(
            GatewayCopy(gateway_id=gid, samples=buf + noise, snr_db=snr)
        )
    return copies


def combine_segments(
    copies: list[GatewayCopy],
    reference: np.ndarray,
) -> np.ndarray:
    """Align and max-ratio combine gateway copies of one transmission.

    Args:
        copies: The gateway captures (equal sample rate; may have small
            relative delays).
        reference: A known waveform present in every copy (the
            technology's sync waveform) used to estimate each copy's
            delay, phase and amplitude.

    The other copies are aligned within :data:`ALIGN_SEARCH` samples of
    the first copy's peak. Gateways trigger on the same transmission, so
    relative delays are small; bounding the search keeps a noise or
    sidelobe peak far away in the capture from hijacking a copy's
    alignment.

    Returns:
        The combined stream, cropped to the shortest aligned copy. Each
        copy is weighted by its estimated complex amplitude (conjugate),
        which is maximal-ratio combining when noise is equal per copy.

    Raises:
        ConfigurationError: on empty input.
    """
    if not copies:
        raise ConfigurationError("no copies to combine")
    # Estimate per-copy delay and complex gain against the reference.
    # The first copy's global peak anchors the frame position; every
    # other copy's peak is constrained to ±ALIGN_SEARCH samples of it.
    aligned: list[tuple[np.ndarray, complex]] = []
    ref_energy = float(np.sum(np.abs(reference) ** 2))
    bank = TemplateBank({0: reference})
    anchor: int | None = None
    for copy in copies:
        corr = correlate_many(copy.samples, bank)[0]
        if anchor is None:
            peak = int(np.argmax(np.abs(corr)))
            anchor = peak
        else:
            # Clamp the window into the valid correlation range (a
            # short copy may not even reach the anchor).
            lo = max(0, min(anchor - ALIGN_SEARCH, len(corr) - 1))
            hi = max(lo + 1, min(len(corr), anchor + ALIGN_SEARCH + 1))
            peak = lo + int(np.argmax(np.abs(corr[lo:hi])))
        gain = complex(corr[peak] / ref_energy)
        aligned.append((copy.samples[peak:], gain))
    # Re-reference all copies to the first one's frame position.
    base_len = min(len(x) for x, _ in aligned)
    combined = np.zeros(base_len, dtype=complex)
    total_weight = 0.0
    for x, gain in aligned:
        combined += np.conj(gain) * x[:base_len]
        total_weight += abs(gain) ** 2
    if total_weight > 0:
        combined /= np.sqrt(total_weight)
    # Re-prepend a little silence so frame sync has room before the peak.
    lead = np.zeros(256, dtype=complex)
    return np.concatenate([lead, combined])


def selection_diversity(
    copies: list[GatewayCopy], modem: Modem, sample_rate_hz: float
) -> FrameResult | None:
    """Baseline: first gateway copy that decodes on its own."""
    for copy in copies:
        frame = try_decode(modem, copy.samples, sample_rate_hz)
        if frame is not None:
            return frame
    return None
