"""GalioT's universal preamble (Sec. 4 of the paper).

Construction follows the paper's two steps:

1. **Coalesce** preambles that are effectively the same waveform
   (same modulation *and* correlated patterns — e.g. two 0x55 GFSK
   preambles at the same rate) and keep the shortest representative of
   each group.
2. **Sum** the representatives, zero-padded at the end to the longest
   preamble, after normalizing each to unit energy.

Because the representatives are mutually (near-)orthogonal, correlating
a capture against the *sum* yields a distinct peak wherever any single
technology's preamble appears — and multiple distinct peaks for a
cross-technology collision — at the cost of **one** correlation
regardless of how many technologies are registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsp.correlation import segmented_correlation
from ..dsp.fastcorr import TemplateBank, correlate_many
from ..dsp.resample import to_rate
from ..errors import ConfigurationError
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from .detection import MAX_TEMPLATE_S, CorrelationDetector

__all__ = ["UniversalPreamble", "UniversalPreambleDetector"]

#: Peak sliding correlation at or above which two preambles are
#: "common" and coalesce into one group (step 1 of the construction).
COALESCE_THRESHOLD = 0.5


def _unit_energy(x: np.ndarray) -> np.ndarray:
    energy = float(np.sum(np.abs(x) ** 2))
    if energy <= 0:
        raise ConfigurationError("preamble waveform has zero energy")
    return x / np.sqrt(energy)


def _peak_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Peak normalized sliding correlation between two unit-energy
    waveforms (symmetric: the shorter slides over the longer; coherent,
    one block)."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    if len(short) == 0:
        return 0.0
    return float(segmented_correlation(long_, short, len(short)).max())


@dataclass
class UniversalPreamble:
    """The combined template plus its construction metadata.

    Attributes:
        waveform: The summed, zero-padded template at the capture rate.
        sample_rate_hz: Capture sample rate.
        groups: Coalescing result: list of lists of technology names;
            the first name of each group is the representative.
        representatives: Unit-energy representative waveform per group.
    """

    waveform: np.ndarray
    sample_rate_hz: float
    groups: list[list[str]]
    representatives: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        modems: list[Modem],
        sample_rate_hz: float,
    ) -> UniversalPreamble:
        """Construct the universal preamble for a set of technologies.

        Each preamble is first truncated to
        :data:`~repro.gateway.detection.MAX_TEMPLATE_S`; two preambles
        whose peak sliding correlation reaches :data:`COALESCE_THRESHOLD`
        share a group.

        Args:
            modems: Registered technologies (order matters only for
                tie-breaking).
            sample_rate_hz: Capture sample rate.

        Raises:
            ConfigurationError: when ``modems`` is empty.
        """
        if not modems:
            raise ConfigurationError("at least one modem is required")
        cap = max(int(MAX_TEMPLATE_S * sample_rate_hz), 1)
        templates = {
            m.name: _unit_energy(
                to_rate(m.preamble_waveform(), m.sample_rate, sample_rate_hz)[:cap]
            )
            for m in modems
        }
        # Step 1: coalesce correlated preambles, shortest as representative.
        groups: list[list[str]] = []
        for name, wave in templates.items():
            placed = False
            for group in groups:
                rep = templates[group[0]]
                if _peak_correlation(wave, rep) >= COALESCE_THRESHOLD:
                    group.append(name)
                    group.sort(key=lambda n: len(templates[n]))
                    placed = True
                    break
            if not placed:
                groups.append([name])
        representatives = {g[0]: templates[g[0]] for g in groups}
        # Step 2: sum, zero-padding at the end to the longest.
        length = max(len(w) for w in representatives.values())
        combined = np.zeros(length, dtype=complex)
        for wave in representatives.values():
            combined[: len(wave)] += wave
        return cls(
            waveform=combined,
            sample_rate_hz=float(sample_rate_hz),
            groups=groups,
            representatives=representatives,
        )

    @property
    def length(self) -> int:
        """Template length in samples."""
        return len(self.waveform)

    def response_to(self, technology_waveform: np.ndarray) -> float:
        """Peak correlation of a technology's preamble with the template.

        This is the paper's analysis check: C(P_j, P) should show one
        distinct spike for every registered technology.
        """
        padded = np.concatenate(
            [np.zeros(self.length, complex),
             technology_waveform,
             np.zeros(self.length, complex)]
        )
        corr = correlate_many(padded, TemplateBank({0: self.waveform}))[0]
        return float(np.max(np.abs(corr)))


class UniversalPreambleDetector(CorrelationDetector):
    """Single-correlation packet detector built on the universal preamble.

    A :class:`~repro.gateway.detection.CorrelationDetector` over the one
    template ``{None: universal.waveform}``: one correlation per capture
    however many technologies are registered; events carry no
    technology, and :meth:`calibrate` freezes a single float.

    Args:
        universal: A built :class:`UniversalPreamble`.
        k: CFAR factor on the score track.
        min_distance: Minimum spacing between reported events.
        block: Coherent block length for CFO tolerance (``None`` = fully
            coherent correlation; best at very low SNR).
        threshold: Fixed decision threshold. ``None`` re-estimates the
            CFAR threshold per capture; freeze it (directly or with
            :meth:`calibrate`) for a stable operating point across
            captures and chunks.
        telemetry: Metrics sink (the shared no-op by default).
    """

    name = "universal"

    def __init__(
        self,
        universal: UniversalPreamble,
        k: float = 7.0,
        min_distance: int = 1024,
        block: int | None = None,
        threshold: float | None = None,
        telemetry: Telemetry = NULL,
    ):
        super().__init__(
            {None: universal.waveform},
            k=k,
            min_distance=min_distance,
            block=block,
            threshold=threshold,
            telemetry=telemetry,
        )
        self.universal = universal

    # The universal detector's own entry point, so per-class
    # instrumentation (perfbench's tracer) can wrap it alone.
    stream_candidates = CorrelationDetector.stream_candidates
