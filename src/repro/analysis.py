"""Link-budget and Shannon-limit analysis (paper Sec. 3 and Sec. 5).

The paper's feasibility argument rests on two quantitative claims that
this module makes computable:

1. **IoT links run far below the Shannon limit** (Sec. 3: technologies
   "operate at extremely suboptimal data rates relative to the Shannon
   limit"), which is *why* collisions are frequently separable —
   :func:`rate_margin_db` quantifies the slack per technology.
2. **Joint decoding has an information-theoretic boundary** (Sec. 5:
   "SNR regimes ... where the Shannon limit may not permit decoupling
   collisions") — :func:`collision_feasible` evaluates the
   multiple-access-capacity conditions for a concrete collision, and
   the matching ablation bench compares the predicted boundary with the
   decoder's measured behaviour.

Also included: correlation processing-gain and detection-threshold
helpers used to size the Figure 3(b) experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .phy.base import Modem

__all__ = [
    "shannon_capacity_bps",
    "rate_margin_db",
    "CollisionFeasibility",
    "collision_feasible",
    "processing_gain_db",
    "detectable_snr_db",
]


def shannon_capacity_bps(bandwidth_hz: float, snr_db: float) -> float:
    """AWGN channel capacity ``B log2(1 + SNR)``.

    Raises:
        ConfigurationError: for a non-positive bandwidth.
    """
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth must be positive")
    return bandwidth_hz * math.log2(1 + 10 ** (snr_db / 10))


def rate_margin_db(modem: Modem, snr_db: float) -> float:
    """How far below capacity a technology runs, in dB.

    ``10 log10(capacity / bit_rate)`` at the given in-band SNR — the
    paper's "extremely suboptimal data rates" in one number (LoRa SF7
    at 10 dB runs ~40x under capacity).
    """
    capacity = shannon_capacity_bps(modem.bandwidth, snr_db)
    if modem.bit_rate <= 0:
        raise ConfigurationError("modem bit rate must be positive")
    if capacity <= 0:
        return float("-inf")
    return 10 * math.log10(capacity / modem.bit_rate)


@dataclass(frozen=True)
class CollisionFeasibility:
    """Verdict on one collision's information-theoretic separability.

    Attributes:
        feasible: True when every rate constraint of the multiple-access
            capacity region is satisfied.
        sum_rate_bps: Aggregate offered rate.
        sum_capacity_bps: Multiple-access sum capacity over the shared
            band.
        worst_margin_db: Smallest per-constraint margin (negative when
            infeasible); the binding constraint.
    """

    feasible: bool
    sum_rate_bps: float
    sum_capacity_bps: float
    worst_margin_db: float


def collision_feasible(
    modems: list[Modem],
    snrs_db: list[float],
) -> CollisionFeasibility:
    """Check a collision against the multiple-access capacity region.

    Each transmission ``i`` offers rate ``R_i`` (the modem's bit rate)
    at in-band SNR ``snr_i``. Over the shared band ``B`` (the widest
    colliding signal's bandwidth) the Gaussian MAC requires, for every
    subset ``S``::

        sum_{i in S} R_i  <=  B log2(1 + sum_{i in S} SNR_i)

    When all constraints hold, a (possibly joint) decoder *can* separate
    the collision; when the sum-rate constraint fails, no decoder can —
    the regime the paper flags in Sec. 5.

    Args:
        modems: Colliding technologies.
        snrs_db: In-band SNR per transmission.

    Raises:
        ConfigurationError: on mismatched inputs.
    """
    if len(modems) != len(snrs_db) or not modems:
        raise ConfigurationError("modems and snrs_db must align and be non-empty")
    band = max(m.bandwidth for m in modems)
    n = len(modems)
    worst = float("inf")
    feasible = True
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask & (1 << i)]
        rate = sum(modems[i].bit_rate for i in subset)
        snr_lin = sum(10 ** (snrs_db[i] / 10) for i in subset)
        cap = band * math.log2(1 + snr_lin)
        if rate <= 0:
            continue
        margin = 10 * math.log10(cap / rate) if cap > 0 else float("-inf")
        worst = min(worst, margin)
        if cap < rate:
            feasible = False
    total_rate = sum(m.bit_rate for m in modems)
    total_cap = band * math.log2(1 + sum(10 ** (s / 10) for s in snrs_db))
    return CollisionFeasibility(
        feasible=feasible,
        sum_rate_bps=total_rate,
        sum_capacity_bps=total_cap,
        worst_margin_db=worst,
    )


def processing_gain_db(template_samples: int) -> float:
    """Coherent correlation gain of an ``n``-sample template.

    Raises:
        ConfigurationError: for a non-positive length.
    """
    if template_samples <= 0:
        raise ConfigurationError("template length must be positive")
    return 10 * math.log10(template_samples)


def detectable_snr_db(
    template_samples: int, required_deflection_db: float = 14.0
) -> float:
    """Per-sample SNR at which a template becomes reliably detectable.

    A matched filter needs its output deflection (``E/sigma^2``) above
    roughly ``required_deflection_db`` to clear a CFAR threshold set
    for negligible false alarms over ~1e6 samples. The detectable
    per-sample SNR is that requirement minus the processing gain — the
    calculation behind the Figure 3(b) radio configuration (e.g. a
    32-chirp SF7 LoRa preamble: 45 dB of gain, detectable near
    -31 dB).
    """
    return required_deflection_db - processing_gain_db(template_samples)
