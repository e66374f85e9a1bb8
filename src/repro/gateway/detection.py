"""Packet detectors: the energy baseline and the optimal preamble bank.

Three detectors are compared in Figure 3(b) of the paper:

* **Energy detection** (:class:`EnergyDetector`) — the scheme used by
  prior multi-technology work: a moving-average power threshold over the
  estimated noise floor. Cheap, but blind to packets below the floor.
* **Per-technology correlation** (:class:`PreambleBankDetector`) — the
  optimal scheme: correlate with every technology's own preamble and
  take the per-technology peaks. Detection cost grows linearly with the
  number of technologies.
* **Universal preamble** (:mod:`repro.gateway.universal`) — GalioT's
  single-template detector, implemented in its own module.

All detectors share a constant-false-alarm-rate (CFAR) thresholding
scheme: the decision threshold is a robust location/scale estimate of
the *score* distribution (median + k·MAD), so the same ``k`` works at
any absolute noise level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import find_peaks_above
from ..dsp.fastcorr import TemplateBank, blocked_bank, correlate_many
from ..dsp.filters import moving_average
from ..dsp.resample import to_rate
from ..errors import ConfigurationError
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DetectionEvent

__all__ = [
    "cfar_threshold",
    "matched_filter_track",
    "EnergyDetector",
    "PreambleBankDetector",
    "match_events",
    "packet_detected",
    "detection_ratio",
]


def cfar_threshold(scores: np.ndarray, k: float) -> float:
    """Robust threshold ~ (noise mean + k * noise std) of the score track.

    Location and scale come from the 10th/25th percentiles, so the
    estimate survives even when packets occupy up to ~75% of the
    capture — which happens once an ultra-narrow-band technology
    (SigFox frames last seconds) is in the band. For a clean Gaussian
    track the formula reduces to ``mean + k * std``.
    """
    p10 = float(np.percentile(scores, 10))
    p25 = float(np.percentile(scores, 25))
    scale = max(p25 - p10, 1e-30)
    # Calibrated on the Rayleigh envelope of a matched filter against
    # noise (p10 = 0.459 s, p25 = 0.759 s, median = 1.177 s,
    # MAD = 0.448 s): this reproduces the classic median + 1.4826 k MAD
    # threshold while only looking at the lowest quartile.
    return p10 + (2.39 + 2.21 * k) * scale


def matched_filter_track(
    x: np.ndarray,
    template: np.ndarray,
    block: int | None = None,
    *,
    bank: TemplateBank | None = None,
    telemetry: Telemetry = NULL,
) -> np.ndarray:
    """Matched-filter magnitude track, normalized by the template norm.

    Unlike :func:`repro.dsp.correlation.normalized_correlation`, the
    score is *not* divided by the local window energy. For sub-noise
    detection this is the optimal statistic, and it does not penalize
    templates with zero-padded tails (the universal preamble pads every
    representative to the longest one). The CFAR threshold supplies the
    noise calibration that local normalization would otherwise provide.

    Correlation runs on the shared-FFT engine
    (:mod:`repro.dsp.fastcorr`): in blocked mode every sub-template
    reuses one forward FFT per overlap-save segment instead of paying a
    full ``fftconvolve`` each.

    Args:
        x: Received samples.
        template: Reference waveform.
        block: When set, correlate coherently per ``block`` samples and
            combine magnitudes non-coherently (CFO tolerance).
        bank: Prebuilt ``blocked_bank(template, block)`` so a detector
            scoring many chunks caches the template spectra across
            calls; built transiently when omitted.
        telemetry: Metrics sink threaded into the correlation engine.
    """
    norm = float(np.sqrt(np.sum(np.abs(template) ** 2)))
    if norm <= 0:
        raise ConfigurationError("template has zero energy")
    out_len = len(x) - len(template) + 1
    if out_len <= 0:
        raise ConfigurationError("template longer than signal")
    if bank is None:
        # Ceiling division (partial tail kept): the final short block
        # must enter the accumulation, otherwise the remainder tail's
        # energy is correlated by nobody while ``norm`` still charges
        # for it, biasing every score low when len(template) % block != 0.
        bank = blocked_bank(template, block, partial_tail=True)
    tracks = correlate_many(x, bank, telemetry=telemetry)
    if block is None:
        return np.abs(tracks[0]) / norm
    acc = np.zeros(out_len)
    for offset in bank.keys():
        corr = np.abs(tracks[offset])
        acc += corr[offset : offset + out_len] ** 2
    return np.sqrt(acc) / norm


@dataclass
class EnergyDetector:
    """Moving-average energy detector (the baseline of [14] in the paper).

    Attributes:
        window: Averaging window in samples.
        k: CFAR factor applied to the smoothed power track.
        min_distance: Minimum spacing between reported events.
        threshold: Fixed decision threshold. ``None`` (the default)
            re-estimates the CFAR threshold from each capture; a fixed
            value (set directly or via :meth:`calibrate`) keeps the
            operating point identical across captures — what a
            continuously-running gateway wants, and what makes chunked
            streaming bit-identical to a monolithic pass.
        telemetry: Metrics sink (the shared no-op by default).
    """

    window: int = 256
    k: float = 6.0
    min_distance: int = 512
    threshold: float | None = None

    name: str = "energy"
    telemetry: Telemetry = field(default=NULL, repr=False, compare=False)

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
    def detect(self, samples: np.ndarray) -> list[DetectionEvent]:
        """Events at the rising edge of every above-threshold region."""
        self.telemetry.count("detect.samples_in", len(samples))
        if len(samples) < self.window:
            return []
        with self.telemetry.span("detect"):
            events = self._detect(samples)
        self.telemetry.count("detect.events", len(events))
        return events

    def _detect(self, samples: np.ndarray) -> list[DetectionEvent]:
        track = self.scores(samples)
        threshold = (
            self.threshold
            if self.threshold is not None
            else cfar_threshold(track, self.k)
        )
        above = track > threshold
        # Rising edges: index i where above[i] and not above[i-1].
        edges = np.flatnonzero(above & ~np.roll(above, 1))
        if above[0]:
            edges = np.unique(np.concatenate(([0], edges)))
        events = []
        last = -self.min_distance
        for idx in edges:
            if idx - last < self.min_distance:
                continue
            events.append(
                DetectionEvent(
                    index=int(idx),
                    score=float(track[idx] / max(threshold, 1e-30)),
                    detector=self.name,
                )
            )
            last = idx
        return events


class PreambleBankDetector:
    """Optimal per-technology preamble correlation.

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
        max_template_s: float = 0.05,
        threshold: float | dict[str, float] | None = None,
        telemetry: Telemetry = NULL,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        self.sample_rate_hz = float(sample_rate_hz)
        self.k = float(k)
        self.min_distance = int(min_distance)
        self.block = block
        self.threshold = threshold
        self.telemetry = telemetry
        cap = max(int(max_template_s * sample_rate_hz), 1)
        self.templates = {
            m.name: to_rate(m.preamble_waveform(), m.sample_rate, self.sample_rate_hz)[:cap]
            for m in modems
        }
        self._bank: TemplateBank | None = None
        self._block_plan: dict[str, list[tuple[tuple[str, int], int]]] = {}

    def _ensure_bank(self) -> TemplateBank:
        """Bank of every technology's (sub-)templates, built once.

        Entry keys are ``(technology, block_offset)``; ``_block_plan``
        maps each technology to its entries in accumulation order, so
        one :func:`~repro.dsp.fastcorr.correlate_many` call scores the
        whole bank off a single forward FFT per overlap-save segment.
        """
        if self._bank is None:
            entries: dict[tuple[str, int], np.ndarray] = {}
            for name, template in self.templates.items():
                if self.block is None:
                    plan = [((name, 0), 0)]
                    entries[(name, 0)] = template
                else:
                    n_blocks = -(-len(template) // self.block)
                    plan = []
                    for b in range(n_blocks):
                        offset = b * self.block
                        entries[(name, offset)] = template[
                            offset : offset + self.block
                        ]
                        plan.append(((name, offset), offset))
                self._block_plan[name] = plan
            self._bank = TemplateBank(entries)
        return self._bank

    def _score_tracks(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        """Matched-filter tracks for every template that fits ``samples``.

        Combination matches :func:`matched_filter_track` exactly
        (coherent, or non-coherent across blocks with the partial tail
        kept); the correlations themselves share forward FFTs across
        all technologies and blocks.
        """
        bank = self._ensure_bank()
        feasible = [
            name
            for name, template in self.templates.items()
            if len(template) <= len(samples)
        ]
        keys = [
            key for name in feasible for key, _ in self._block_plan[name]
        ]
        tracks = correlate_many(
            samples, bank, keys=keys, telemetry=self.telemetry
        )
        out: dict[str, np.ndarray] = {}
        for name in feasible:
            template = self.templates[name]
            norm = float(np.sqrt(np.sum(np.abs(template) ** 2)))
            if norm <= 0:
                raise ConfigurationError("template has zero energy")
            out_len = len(samples) - len(template) + 1
            if self.block is None:
                out[name] = np.abs(tracks[(name, 0)]) / norm
            else:
                acc = np.zeros(out_len)
                for key, offset in self._block_plan[name]:
                    corr = np.abs(tracks[key])
                    acc += corr[offset : offset + out_len] ** 2
                out[name] = np.sqrt(acc) / norm
        return out

    @iq_contract("samples")
    def calibrate(self, samples: np.ndarray) -> dict[str, float]:
        """Freeze per-technology thresholds from a calibration capture."""
        self.threshold = {
            name: cfar_threshold(scores, self.k)
            for name, scores in self._score_tracks(samples).items()
        }
        return self.threshold

    def _threshold_for(self, name: str, scores: np.ndarray) -> float:
        if self.threshold is None:
            return cfar_threshold(scores, self.k)
        if isinstance(self.threshold, dict):
            fixed = self.threshold.get(name)
            if fixed is None:
                return cfar_threshold(scores, self.k)
            return float(fixed)
        return float(self.threshold)

    @property
    def n_correlations(self) -> int:
        """Template correlations per capture — grows with the bank size."""
        return len(self.templates)

    @iq_contract("samples")
    def detect(self, samples: np.ndarray) -> list[DetectionEvent]:
        """Per-technology correlation peaks above each CFAR threshold."""
        self.telemetry.count("detect.samples_in", len(samples))
        events: list[DetectionEvent] = []
        with self.telemetry.span("detect"):
            for name, scores in self._score_tracks(samples).items():
                threshold = self._threshold_for(name, scores)
                for idx in find_peaks_above(scores, threshold, self.min_distance):
                    events.append(
                        DetectionEvent(
                            index=idx,
                            score=float(scores[idx]),
                            detector=self.name,
                            technology=name,
                        )
                    )
        self.telemetry.count("detect.events", len(events))
        return sorted(events, key=lambda e: e.index)

    @iq_contract("samples")
    def stream_candidates(
        self, samples: np.ndarray
    ) -> list[tuple[str | None, int, np.ndarray, np.ndarray]]:
        """Raw per-technology threshold crossings for chunked streaming.

        No min-distance suppression is applied; the streaming layer
        replays :func:`~repro.dsp.correlation.find_peaks_above`'s greedy
        suppression incrementally across chunk joins (independently per
        technology, as :meth:`detect` does). Freeze :attr:`threshold`
        (e.g. via :meth:`calibrate`) for results identical to a
        monolithic pass.

        Returns:
            ``[(technology, template_len, indices, scores)]``, one entry
            per template short enough to score this buffer.
        """
        self.telemetry.count("detect.samples_in", len(samples))
        out: list[tuple[str | None, int, np.ndarray, np.ndarray]] = []
        with self.telemetry.span("detect"):
            for name, scores in self._score_tracks(samples).items():
                threshold = self._threshold_for(name, scores)
                idx = np.flatnonzero(scores >= threshold)
                out.append((name, len(self.templates[name]), idx, scores[idx]))
        return out


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


def packet_detected(
    events: list[DetectionEvent], start: int, end: int, tolerance: int = 0
) -> bool:
    """Whether any event falls within a single packet's extent."""
    lo = start - tolerance
    return any(lo <= e.index < end for e in events)


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
