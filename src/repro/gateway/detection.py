"""Packet detectors: the energy baseline and preamble correlation.

Three detectors are compared in Figure 3(b) of the paper:

* **Energy detection** (:class:`EnergyDetector`) — the scheme used by
  prior multi-technology work: a moving-average power threshold over the
  estimated noise floor. Cheap, but blind to packets below the floor.
* **Per-technology correlation** (:class:`PreambleBankDetector`) — the
  optimal scheme: correlate with every technology's own preamble and
  take the per-technology peaks. Detection cost grows linearly with the
  number of technologies.
* **Universal preamble**
  (:class:`~repro.gateway.universal.UniversalPreambleDetector`) —
  GalioT's detector: the same correlation over **one** summed template.

Both correlation detectors are one :class:`CorrelationDetector` over
different template banks. All detectors share a constant-false-alarm-rate
(CFAR) thresholding scheme: the decision threshold is a robust
location/scale estimate of the *score* distribution, so the same ``k``
works at any absolute noise level. All three are a
:class:`CandidateDetector`: each yields per-template candidates
(``stream_candidates``), and one ``detect`` suppresses them. Each also
tells the gateway how much history a stream must carry (``context``)
and whether an event still stands out over a jammer-raised floor
(``clears_floor``).
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import greedy_suppress
from ..dsp.fastcorr import TemplateBank, correlate_many, peak_magnitudes
from ..dsp.filters import moving_average
from ..dsp.resample import to_rate
from ..errors import ConfigurationError
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DetectionEvent

__all__ = [
    "cfar_threshold",
    "CandidateDetector",
    "CorrelationDetector",
    "EnergyDetector",
    "PreambleBankDetector",
    "match_events",
    "detection_ratio",
]

#: Cap (seconds) on every preamble template, per-technology or
#: universal. The paper sets the template length to the *maximum*
#: preamble length, which is fine for the prototype trio but explodes
#: for ultra-narrow-band entries (a SigFox preamble lasts hundreds of
#: milliseconds); truncating a very long preamble costs only part of its
#: correlation gain while keeping one bounded correlation per capture.
MAX_TEMPLATE_S = 0.05


def cfar_threshold(scores: np.ndarray, k: float) -> float:
    """Robust threshold ~ (noise mean + k * noise std) of the score track.

    Location and scale come from the 10th/25th percentiles, so the
    estimate survives even when packets occupy up to ~75% of the
    capture — which happens once an ultra-narrow-band technology
    (SigFox frames last seconds) is in the band. For a clean Gaussian
    track the formula reduces to ``mean + k * std``.
    """
    p10, p25 = map(float, np.percentile(scores, [10, 25]))
    scale = max(p25 - p10, 1e-30)
    # Calibrated on the Rayleigh envelope of a matched filter against
    # noise (p10 = 0.459 s, p25 = 0.759 s, median = 1.177 s,
    # MAD = 0.448 s): this reproduces the classic median + 1.4826 k MAD
    # threshold while only looking at the lowest quartile.
    return p10 + (2.39 + 2.21 * k) * scale


def _validate(
    k: float,
    min_distance: int,
    threshold: float | dict[Hashable, float] | None,
    **lengths: int | None,
) -> None:
    """Reject settings under which a detector would silently find nothing."""
    fixed = threshold.values() if isinstance(threshold, dict) else [threshold]
    if not (math.isfinite(k) and k >= 0):
        raise ConfigurationError(f"k must be finite and >= 0, got {k!r}")
    if any(value is not None and not math.isfinite(value) for value in fixed):
        raise ConfigurationError(f"threshold must be finite, got {threshold!r}")
    for name, value in {"min_distance": min_distance, **lengths}.items():
        if value is not None and value < 1:
            raise ConfigurationError(f"{name} must be >= 1")


class CandidateDetector:
    """What every gateway detector shares: :meth:`detect` is the
    detector's :meth:`stream_candidates` plus, per template, the greedy
    min-distance suppression of
    :func:`~repro.dsp.correlation.find_peaks_above`, which the streaming
    front replays across chunk joins.

    A subclass provides ``name``, ``min_distance``, ``telemetry`` and
    ``stream_candidates(samples)``, returning
    ``[(technology, template_len, indices, scores)]``: its candidates
    over ``samples``, where a score index ``n`` depends on samples
    before ``n + template_len`` only.
    """

    @iq_contract("samples")
    def detect(self, samples: np.ndarray) -> list[DetectionEvent]:
        """Events sorted by index: the candidates that survive greedy
        min-distance suppression, per template."""
        events: list[DetectionEvent] = []
        for tech, _, idx, sc in self.stream_candidates(samples):
            keep = greedy_suppress(idx, sc, self.min_distance)
            for i, s in zip(idx[keep].tolist(), sc[keep].tolist(), strict=True):
                events.append(
                    DetectionEvent(
                        index=i, score=s, detector=self.name, technology=tech
                    )
                )
        events.sort(key=lambda e: e.index)
        self.telemetry.count("detect.events", len(events))
        return events


@dataclass
class EnergyDetector(CandidateDetector):
    """Moving-average energy detector (the baseline of [14] in the paper).

    Events sit at rising edges of the smoothed power over the threshold;
    an edge counts only ``min_distance`` or more after the last counted
    edge. Streamed, that keep-first-edge rule restarts in every buffer,
    so a chunked stream only approximates a monolithic pass.

    Attributes:
        window: Averaging window in samples.
        k: CFAR factor applied to the smoothed power track.
        min_distance: Minimum spacing between reported events.
        threshold: Fixed decision threshold. ``None`` (the default)
            re-estimates the CFAR threshold from each capture; a fixed
            value (set directly or via :meth:`calibrate`) keeps the
            operating point identical across captures.
        telemetry: Metrics sink (the shared no-op by default).

    Raises:
        ConfigurationError: for settings that would find nothing.
    """

    window: int = 256
    k: float = 6.0
    min_distance: int = 512
    threshold: float | None = None

    name: str = "energy"
    telemetry: Telemetry = field(default=NULL, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate(self.k, self.min_distance, self.threshold, window=self.window)

    @property
    def context(self) -> int:
        """Samples of history a stream carries into each chunk: every
        score index a chunk takes as new (see :meth:`stream_candidates`)
        has its whole ``same``-mode averaging window, and the sample
        before it, in the buffer."""
        return self.window + self.window // 2

    def clears_floor(self, event: DetectionEvent, rise_db: float) -> bool:
        """Whether ``event`` stands out over a floor raised by ``rise_db``:
        its score is already power over the power threshold, so it must
        clear the floor's power ratio, whatever the capture's scale."""
        return event.score >= 10 ** (rise_db / 10)

    @iq_contract("samples")
    def calibrate(self, samples: np.ndarray) -> float:
        """Freeze the threshold from a calibration capture."""
        self.threshold = cfar_threshold(self.scores(samples), self.k)
        return self.threshold

    @iq_contract("samples")
    def scores(self, samples: np.ndarray) -> np.ndarray:
        """Smoothed power track."""
        return moving_average(np.abs(samples) ** 2, self.window)

    @iq_contract("samples")
    def stream_candidates(
        self, samples: np.ndarray
    ) -> list[tuple[None, int, np.ndarray, np.ndarray]]:
        """The rising edges the keep-first-edge rule keeps, already
        ``min_distance`` apart, with their power over the threshold.

        Returns:
            ``[(None, window, indices, scores)]``, or ``[]`` for a buffer
            shorter than one window.
        """
        self.telemetry.count("detect.samples_in", len(samples))
        if len(samples) < self.window:
            return []
        with self.telemetry.span("detect"):
            track = self.scores(samples)
            threshold = (
                self.threshold
                if self.threshold is not None
                else cfar_threshold(track, self.k)
            )
            above = track > threshold
            rising = above & ~np.concatenate(([False], above[:-1]))
            kept: list[int] = []
            for edge in np.flatnonzero(rising).tolist():
                if not kept or edge - kept[-1] >= self.min_distance:
                    kept.append(edge)
            idx = np.asarray(kept, dtype=np.int64)
            scores = track[idx] / max(threshold, 1e-30)
        return [(None, self.window, idx, scores)]


class CorrelationDetector(CandidateDetector):
    """Matched-filter detection against a bank of preamble templates.

    Both correlation detectors are this class: :class:`PreambleBankDetector`
    holds one template per technology, and
    :class:`~repro.gateway.universal.UniversalPreambleDetector` the
    summed universal template under the key ``None`` (its events carry
    no technology). Each template's track is thresholded and
    peak-picked on its own.

    The score is the matched-filter magnitude over the template norm,
    *not* divided by the local window energy: for sub-noise detection
    this is the optimal statistic, and it does not penalize the
    universal preamble's zero-padded representatives. The CFAR
    threshold supplies the noise calibration. With ``block`` set, each
    template correlates coherently per block and the magnitudes combine
    non-coherently (CFO tolerance), the final short block included so
    its energy is not charged to the norm uncorrelated. One persistent
    :class:`~repro.dsp.fastcorr.TemplateBank` holds every template and
    block: one :func:`~repro.dsp.fastcorr.correlate_many` call scores
    them all off one forward FFT per overlap-save segment, with the
    template spectra cached across chunks. Coherent templates with
    frozen thresholds first screen each buffer in single precision
    (:meth:`stream_candidates`): a buffer proven to hold no candidate
    is never scored in complex128.

    Args:
        templates: Reference waveform per technology key.
        k: CFAR factor on each template's score track.
        min_distance: Minimum spacing between events of one template.
        block: Coherent block length (``None`` = fully coherent).
        threshold: Fixed decision threshold(s): a float applied to every
            template's track, or a per-technology dict. ``None``
            re-estimates CFAR per capture; freeze it (e.g. with
            :meth:`calibrate`) for a stable operating point across
            captures and chunks.
        telemetry: Metrics sink (the shared no-op by default).

    Raises:
        ConfigurationError: for an empty bank, a zero-energy template,
            or settings that would find nothing.
    """

    name = "correlation"

    def __init__(
        self,
        templates: dict[Hashable, np.ndarray],
        k: float = 7.0,
        min_distance: int = 1024,
        block: int | None = None,
        threshold: float | dict[Hashable, float] | None = None,
        telemetry: Telemetry = NULL,
    ):
        if not templates:
            raise ConfigurationError("at least one template is required")
        _validate(k, min_distance, threshold, block=block)
        self.templates = dict(templates)
        self.k = float(k)
        self.min_distance = int(min_distance)
        self.block = block
        self.threshold = threshold
        self.telemetry = telemetry
        self._norms: dict[Hashable, float] = {}
        # Block offsets per template; bank keys are (technology, offset).
        self._offsets: dict[Hashable, list[int]] = {}
        entries: dict[tuple[Hashable, int], np.ndarray] = {}
        for tech, template in self.templates.items():
            norm = float(np.sqrt(np.sum(np.abs(template) ** 2)))
            if norm <= 0:
                raise ConfigurationError("template has zero energy")
            self._norms[tech] = norm
            step = len(template) if block is None else block
            self._offsets[tech] = list(range(0, len(template), step))
            for offset in self._offsets[tech]:
                entries[(tech, offset)] = template[offset : offset + step]
        self._bank = TemplateBank(entries)

    @property
    def context(self) -> int:
        """Samples of history a stream carries into each chunk: with
        ``len(template) - 1`` of the longest template, consecutive
        chunks' score tracks partition the monolithic track."""
        return max(len(t) for t in self.templates.values()) - 1

    @property
    def n_correlations(self) -> int:
        """Template correlations per capture: one per technology for the
        bank, always one for the universal preamble."""
        return len(self.templates)

    def _feasible(self, samples: np.ndarray) -> list[Hashable]:
        """The technologies whose template fits ``samples``."""
        return [
            tech
            for tech, template in self.templates.items()
            if len(template) <= len(samples)
        ]

    @iq_contract("samples")
    def score_tracks(self, samples: np.ndarray) -> dict[Hashable, np.ndarray]:
        """Matched-filter score track of every template that fits ``samples``."""
        feasible = self._feasible(samples)
        keys = [(tech, off) for tech in feasible for off in self._offsets[tech]]
        tracks = correlate_many(
            samples, self._bank, keys=keys, telemetry=self.telemetry
        )
        out: dict[Hashable, np.ndarray] = {}
        for tech in feasible:
            # Each step after the first magnitude runs in place.
            if self.block is None:
                score = np.abs(tracks[(tech, 0)])
            else:
                out_len = len(samples) - len(self.templates[tech]) + 1
                score = np.zeros(out_len)
                for offset in self._offsets[tech]:
                    corr = np.abs(tracks[(tech, offset)][offset : offset + out_len])
                    score += np.square(corr, out=corr)
                np.sqrt(score, out=score)
            out[tech] = np.divide(score, self._norms[tech], out=score)
        return out

    def _fixed_threshold(self, tech: Hashable) -> float | None:
        if isinstance(self.threshold, dict):
            return self.threshold.get(tech)
        return self.threshold

    @iq_contract("samples")
    def calibrate(self, samples: np.ndarray) -> float | dict[Hashable, float]:
        """Freeze the threshold(s) from a calibration capture.

        Returns the frozen value, ready to pass back as ``threshold=``:
        a float for the universal preamble's ``None`` template, a
        per-technology dict for a bank.

        Raises:
            ConfigurationError: when every template is longer than the
                capture.
        """
        thresholds = {
            tech: cfar_threshold(scores, self.k)
            for tech, scores in self.score_tracks(samples).items()
        }
        if not thresholds:
            raise ConfigurationError("template longer than signal")
        self.threshold = thresholds[None] if None in thresholds else thresholds
        return self.threshold

    def clears_floor(self, event: DetectionEvent, rise_db: float) -> bool:
        """Whether ``event`` stands out over a floor raised by ``rise_db``.

        The raised floor lifts noise's matched-filter scores by its
        *amplitude* ratio, so the event must clear its frozen threshold
        scaled by that ratio — well inside a real preamble's headroom.
        With no frozen threshold there is nothing to scale: it clears.
        """
        threshold = self._fixed_threshold(event.technology)
        if not threshold:
            return True
        return event.score >= threshold * 10 ** (rise_db / 20)

    def _quiet(self, samples: np.ndarray, feasible: list[Hashable]) -> bool:
        """Whether the single-precision screen proves that no template
        scores at its threshold anywhere in ``samples``.

        It runs for coherent templates (``block=None``) with frozen
        thresholds only; blocked banks and per-capture CFAR always take
        the exact path. A template is proven quiet when its complex64
        peak plus the error bound of
        :func:`~repro.dsp.fastcorr.peak_magnitudes` stays below its
        threshold, so the complex128 path would find no candidate.
        """
        thresholds = [self._fixed_threshold(tech) for tech in feasible]
        if self.block is not None or not feasible or None in thresholds:
            return False
        peaks = peak_magnitudes(
            samples,
            self._bank,
            keys=[(tech, 0) for tech in feasible],
            telemetry=self.telemetry,
        )
        return all(
            (peak + bound) / self._norms[tech] < threshold
            for tech, threshold in zip(feasible, thresholds, strict=True)
            for peak, bound in [peaks[(tech, 0)]]
        )

    @iq_contract("samples")
    def stream_candidates(
        self, samples: np.ndarray
    ) -> list[tuple[Hashable, int, np.ndarray, np.ndarray]]:
        """Raw per-template threshold crossings, before min-distance
        suppression: :meth:`detect` suppresses over the whole buffer, the
        streaming front replays it across chunk joins. Freeze
        :attr:`threshold` for streamed results identical to a monolithic
        pass (per-chunk CFAR is data-dependent).

        A buffer the single-precision screen proves quiet (see
        :meth:`_quiet`) returns the empty candidate lists the complex128
        path would, without computing its tracks; counters
        ``detect.screened`` and ``detect.exact`` count the two outcomes.

        Returns:
            ``[(technology, template_len, indices, scores)]``, one entry
            per template short enough to score this buffer.
        """
        self.telemetry.count("detect.samples_in", len(samples))
        out: list[tuple[Hashable, int, np.ndarray, np.ndarray]] = []
        with self.telemetry.span("detect"):
            feasible = self._feasible(samples)
            if self._quiet(samples, feasible):
                self.telemetry.count("detect.screened")
                return [
                    (
                        tech,
                        len(self.templates[tech]),
                        np.empty(0, dtype=np.intp),
                        np.empty(0),
                    )
                    for tech in feasible
                ]
            self.telemetry.count("detect.exact")
            for tech, scores in self.score_tracks(samples).items():
                fixed = self._fixed_threshold(tech)
                threshold = cfar_threshold(scores, self.k) if fixed is None else fixed
                idx = np.flatnonzero(scores >= threshold)
                out.append((tech, len(self.templates[tech]), idx, scores[idx]))
        return out


class PreambleBankDetector(CorrelationDetector):
    """Optimal per-technology preamble correlation: one template per
    technology, so detection cost grows linearly with their number.

    Args:
        modems: The technologies to detect.
        sample_rate_hz: Capture sample rate (modem preambles are resampled to it).
        k: CFAR factor on each technology's score track.
        min_distance: Minimum spacing between events of one technology.
        block: Coherent block length for CFO-tolerant correlation
            (``None`` = fully coherent).
        threshold: Fixed decision threshold(s): a float applied to every
            technology's track, or a per-technology dict (the shape
            :meth:`calibrate` produces). ``None`` re-estimates CFAR per
            capture.
        telemetry: Metrics sink (the shared no-op by default).
    """

    name = "preamble-bank"

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        k: float = 7.0,
        min_distance: int = 1024,
        block: int | None = None,
        threshold: float | dict[str, float] | None = None,
        telemetry: Telemetry = NULL,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        self.sample_rate_hz = float(sample_rate_hz)
        cap = max(int(MAX_TEMPLATE_S * sample_rate_hz), 1)
        templates = {
            m.name: to_rate(m.preamble_waveform(), m.sample_rate, self.sample_rate_hz)[:cap]
            for m in modems
        }
        super().__init__(templates, k, min_distance, block, threshold, telemetry)


def match_events(
    events: list[DetectionEvent],
    packets: list,
    gate: int,
) -> tuple[set[int], list[DetectionEvent]]:
    """Assign detector events to ground-truth packets.

    Each event is credited to the packet whose *start* is nearest, as
    long as the event lies inside that packet's gate
    ``[start - gate, end)``. Periodic preambles (0x55 runs, repeated
    upchirps) produce correlation sidelobes at symbol-multiple offsets,
    so the gate must span the detection template; nearest-start
    assignment keeps a collision's two packets from crediting each
    other.

    Args:
        events: Detector output.
        packets: Ground-truth :class:`~repro.types.PacketTruth` records.
        gate: Pre-start slack in samples (usually the template length).

    Returns:
        ``(detected_packet_ids, false_alarms)``.
    """
    detected: set[int] = set()
    false_alarms: list[DetectionEvent] = []
    if not packets or not events:
        return detected, list(events)
    # Sorted-by-start layout: for each event the nearest qualifying
    # start is found with one binary search plus a short backward scan,
    # instead of a full pass over every packet per event. ``order``
    # breaks equal starts by original list position so ties resolve
    # exactly as the old first-strictly-smaller-distance loop did.
    starts = np.fromiter((p.start for p in packets), dtype=np.int64)
    ends = np.fromiter((p.end for p in packets), dtype=np.int64)
    order = np.lexsort((np.arange(len(packets)), starts))
    s_sorted = starts[order]
    e_sorted = ends[order]
    # Running max of ends prunes the backward scan: once every packet at
    # or left of a slot has ended by the event index, none can qualify.
    cummax_end = np.maximum.accumulate(e_sorted)
    indices = np.fromiter((e.index for e in events), dtype=np.int64)
    j_right = np.searchsorted(s_sorted, indices, side="right")
    n_packets = len(packets)
    for event, idx, j in zip(events, indices, j_right, strict=True):
        best_pos: int | None = None
        best_dist: int | None = None
        # Right side: starts strictly above the event index, ascending
        # distance — the first equal-start run containing a qualifying
        # packet (event before its end) wins; within the run the
        # earliest original position among the qualifiers is kept.
        r = j
        while r < n_packets and s_sorted[r] - gate <= idx:
            if idx < e_sorted[r]:
                run_start = int(s_sorted[r])
                best_dist = run_start - int(idx)
                best_pos = int(order[r])
                r += 1
                while r < n_packets and s_sorted[r] == run_start:
                    if idx < e_sorted[r] and int(order[r]) < best_pos:
                        best_pos = int(order[r])
                    r += 1
                break
            r += 1
        # Left side: starts at or below the event index, distance grows
        # as the scan moves left, so the first slot whose packet is
        # still in flight (end > idx) is the nearest qualifying start.
        k = j - 1
        while k >= 0 and cummax_end[k] > idx:
            if e_sorted[k] > idx and s_sorted[k] - gate <= idx:
                dist = int(idx - s_sorted[k])
                if best_dist is None or dist <= best_dist:
                    # Equal starts share the distance; the earliest
                    # original position among the qualifiers wins.
                    lo = int(
                        np.searchsorted(s_sorted, s_sorted[k], side="left")
                    )
                    pos = int(order[k])
                    for k2 in range(lo, k):
                        if e_sorted[k2] > idx and int(order[k2]) < pos:
                            pos = int(order[k2])
                    if (
                        best_dist is None
                        or dist < best_dist
                        or pos < best_pos
                    ):
                        best_pos, best_dist = pos, dist
                break
            k -= 1
        if best_pos is None:
            false_alarms.append(event)
        else:
            detected.add(packets[best_pos].packet_id)
    return detected, false_alarms


def detection_ratio(
    events: list[DetectionEvent],
    packets: list,
    gate: int = 1024,
) -> float:
    """Fraction of ground-truth packets credited with a detection."""
    if not packets:
        return float("nan")
    detected, _ = match_events(events, packets, gate)
    return len(detected) / len(packets)
