"""Technology classification of shipped segments.

The gateway deliberately does not know which technologies are inside a
detected segment (Sec. 4: that task is outsourced to the cloud). The
classifier correlates the segment against every registered technology's
sync waveform and returns the candidates above threshold, each with a
start estimate and a least-squares amplitude estimate — the power
ordering Algorithm 1 keys on.

Correlation runs on the shared-FFT engine (:mod:`repro.dsp.fastcorr`):
modems are grouped by ``(native rate, correlation stride)`` and each
group owns one persistent :class:`~repro.dsp.fastcorr.TemplateBank`
holding every member's coherent sync sub-blocks, so one
:func:`~repro.dsp.fastcorr.correlate_accumulate` call per group shares
a single forward FFT per overlap-save segment across every technology
in the group — and the conjugate template spectra, cached on the bank,
are paid once per FFT length rather than once per segment per SIC
iteration. Each modem's score track equals the gateway
:class:`~repro.gateway.detection.CorrelationDetector` score track of its
sync waveform up to FFT rounding.

Re-classifying a residual: a cancellation changes the residual only
around the cancelled frame. :class:`ScoreState` keeps each group's last
scored view and accumulators, and :meth:`SegmentClassifier.classify`
re-scores only the overlap-save segments whose input moved; the score
tracks equal a fresh pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import top_peaks
from ..dsp.fastcorr import TemplateBank, TrackSpec, correlate_accumulate
from ..dsp.resample import NativeRateCache, to_rate
from ..errors import ConfigurationError
from ..gateway.detection import cfar_threshold
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry

__all__ = ["ClassifiedSignal", "ScoreState", "SegmentClassifier"]

#: CFAR factor for declaring a technology present.
CFAR_K = 8.0
#: Cap on same-technology candidates per segment: each extra candidate
#: costs the decoder a decode attempt, and same-technology collisions
#: inside one segment are rare.
MAX_PER_TECHNOLOGY = 2


@dataclass(frozen=True)
class ClassifiedSignal:
    """One candidate transmission found inside a segment.

    Attributes:
        technology: Registry name.
        start: Estimated frame start (native-rate samples of the modem).
        score: Matched-filter detection score.
        amplitude: LS complex amplitude of the sync waveform at ``start``
            (its magnitude squared is the power Algorithm 1 sorts by).
        center_hz: Estimated carrier offset of the transmission relative
            to baseband (Hz). The frequency-selective kill filter
            notches around this estimate so a channel-offset victim is
            removed where it actually sits.
    """

    technology: str
    start: int
    score: float
    amplitude: complex
    center_hz: float = 0.0

    @property
    def power(self) -> float:
        """Estimated received power (|amplitude|^2, template-relative)."""
        return float(abs(self.amplitude) ** 2)


class ScoreState:
    """The last classify pass's score accumulators over one segment.

    One state follows one segment through Algorithm 1: pass it to every
    :meth:`SegmentClassifier.classify` over that segment's residuals.
    Per bank group it keeps the strided native-rate view it scored and
    the accumulators it got, so the next pass diffs the new view against
    the old one and re-scores only what moved. The views are kept by
    reference: the classified buffers must not be mutated in place
    (Algorithm 1 replaces its residual, and
    :class:`~repro.dsp.resample.NativeRateCache` views are read-only).
    """

    def __init__(self) -> None:
        self._groups: dict[
            tuple[float, int],
            tuple[np.ndarray, tuple[int, ...], dict[int, np.ndarray]],
        ] = {}

    def diff(
        self, group: tuple[float, int], sig: np.ndarray, live: tuple[int, ...]
    ) -> tuple[dict[int, np.ndarray] | None, tuple[int, int] | None]:
        """``(previous, changed)`` for re-scoring ``sig`` in ``group``.

        ``(None, None)`` when the group has no comparable earlier pass
        (first pass, another length or another set of live modems).
        """
        last = self._groups.get(group)
        if last is None or last[0].shape != sig.shape or last[1] != live:
            return None, None
        moved = last[0] != sig
        if not moved.any():
            return last[2], (0, 0)
        lo = int(np.argmax(moved))
        hi = len(moved) - int(np.argmax(moved[::-1]))
        return last[2], (lo, hi)

    def store(
        self,
        group: tuple[float, int],
        sig: np.ndarray,
        live: tuple[int, ...],
        acc: dict[int, np.ndarray],
    ) -> None:
        """Remember ``group``'s scored view and accumulators."""
        self._groups[group] = (sig, live, acc)


@dataclass
class _Ref:
    """Precomputed per-modem classification state."""

    modem: Modem
    ref: np.ndarray  # full-rate sync reference
    tpl: np.ndarray  # strided correlation template
    stride: int
    block: int | None  # coherent block length at template rate
    ref_energy: float
    tpl_norm: float
    offsets: list[int]  # coherent sub-block offsets into ``tpl``


class SegmentClassifier:
    """Finds which technologies (and where) live inside a segment.

    Args:
        modems: Registered technologies.
        sample_rate_hz: Sample rate of incoming segments.
        telemetry: Metrics sink threaded into the correlation engine.
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        telemetry: Telemetry = NULL,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        self.modems = list(modems)
        self.sample_rate_hz = float(sample_rate_hz)
        self.telemetry = telemetry
        # Precompute per-modem sync references once: classify() runs
        # repeatedly (Algorithm 1 re-classifies after every
        # cancellation) and regenerating long waveforms dominates.
        self._refs: list[_Ref] = []
        for modem in self.modems:
            ref = modem.sync_reference()
            stride = max(int(modem.sync_decimation), 1)
            tpl = ref[::stride] if stride > 1 else ref
            block = modem.sync_block
            if block is not None and stride > 1:
                block = max(block // stride, 8)
            tpl_norm = float(np.sqrt(np.sum(np.abs(tpl) ** 2)))
            if tpl_norm <= 0:
                raise ConfigurationError(
                    f"{modem.name}: sync template has zero energy"
                )
            if block is None:
                offsets = [0]
            else:
                offsets = [
                    b * block for b in range(-(-len(tpl) // block))
                ]
            self._refs.append(
                _Ref(
                    modem=modem,
                    ref=ref,
                    tpl=tpl,
                    stride=stride,
                    block=block,
                    ref_energy=float(np.sum(np.abs(ref) ** 2)),
                    tpl_norm=tpl_norm,
                    offsets=offsets,
                )
            )
        # One persistent bank per (native rate, stride) group: every
        # modem in a group correlates against the *same* decimated
        # residual, so their sub-block templates share one forward FFT
        # per overlap-save segment, and the conjugate template spectra
        # (cached on the bank per FFT length) survive across segments
        # and SIC iterations. Keys are ``(ref_index, block_offset)``.
        self._groups: dict[tuple[float, int], list[int]] = {}
        for index, entry in enumerate(self._refs):
            key = (float(entry.modem.sample_rate), entry.stride)
            self._groups.setdefault(key, []).append(index)
        self._banks: dict[tuple[float, int], TemplateBank] = {}
        for key, indices in self._groups.items():
            templates = {
                (index, offset): self._refs[index].tpl[
                    offset : offset + self._refs[index].block
                ]
                if self._refs[index].block is not None
                else self._refs[index].tpl
                for index in indices
                for offset in self._refs[index].offsets
            }
            self._banks[key] = TemplateBank(templates)

    @staticmethod
    def _estimate_center(window: np.ndarray, sample_rate_hz: float) -> float:
        """Power-weighted spectral centroid of ``window`` (Hz).

        Channel-scale accuracy (a few kHz of bias from modulation
        asymmetry), which is the scale that matters: the consumer is the
        frequency-selective kill filter, whose notches span the victim's
        tone bandwidth. A phase-slope estimate against the sync
        reference would be finer but collapses when the correlation
        peak snaps to the wrong period of a periodic preamble; the
        centroid is indifferent to alignment.
        """
        if len(window) < 2:
            return 0.0
        spectrum = np.abs(np.fft.fft(window)) ** 2
        total = float(spectrum.sum())
        if total <= 0:
            return 0.0
        freqs = np.fft.fftfreq(len(window), 1.0 / sample_rate_hz)
        return float(np.sum(spectrum * freqs) / total)

    def _score_tracks(
        self,
        sig: np.ndarray,
        group: tuple[float, int],
        live: tuple[int, ...],
        state: ScoreState,
    ) -> dict[int, np.ndarray]:
        """Score tracks for every live modem of one bank group.

        Coherent sub-blocks combine non-coherently (sum of magnitude
        squares, for CFO tolerance), normalized by the template norm.
        The magnitudes accumulate *inside* the correlation engine's
        chunk loop (:func:`~repro.dsp.fastcorr.correlate_accumulate`),
        so the classify pass never materializes per-template complex
        tracks. Against ``state``'s earlier pass over the group, only
        the range where ``sig`` moved is re-scored.
        """
        specs = {
            index: TrackSpec(
                pairs=tuple(
                    ((index, offset), offset)
                    for offset in self._refs[index].offsets
                ),
                out_len=len(sig) - len(self._refs[index].tpl) + 1,
                squared=self._refs[index].block is not None,
            )
            for index in live
        }
        previous, changed = state.diff(group, sig, live)
        combined = correlate_accumulate(
            sig,
            self._banks[group],
            specs,
            telemetry=self.telemetry,
            previous=previous,
            changed=changed,
        )
        state.store(group, sig, live, combined)
        tracks: dict[int, np.ndarray] = {}
        for index in live:
            entry = self._refs[index]
            acc = combined[index]
            if entry.block is None:
                tracks[index] = acc / entry.tpl_norm
            else:
                tracks[index] = np.sqrt(acc) / entry.tpl_norm
        return tracks

    @iq_contract("samples")
    def classify(
        self,
        samples: np.ndarray,
        rates: NativeRateCache | None = None,
        state: ScoreState | None = None,
    ) -> list[ClassifiedSignal]:
        """Rank the transmissions present in ``samples`` by power.

        Args:
            samples: The segment (or working residual) to classify.
            rates: Optional memoized native-rate views of ``samples``
                (must wrap the same buffer). Algorithm 1 passes one so
                repeated classify/decode/kill calls in a single
                iteration resample the residual once per distinct rate.
            state: The segment's :class:`ScoreState`. Algorithm 1
                passes one per segment, so each re-classification of a
                residual re-scores only what the cancellation changed.
                Without one the pass scores everything.
        """
        if state is None:
            state = ScoreState()
        # Candidates per registered modem, so the final list preserves
        # registration-order appends regardless of group iteration.
        per_ref: dict[int, list[ClassifiedSignal]] = {}
        for (rate, stride), indices in self._groups.items():
            if rates is not None:
                native = rates.view(rate)
            else:
                native = to_rate(samples, self.sample_rate_hz, rate)
            # Spread-spectrum references correlate at a stride (the
            # modem's fine sync absorbs the timing quantization).
            sig = native[::stride] if stride > 1 else native
            live = tuple(
                index
                for index in indices
                if len(self._refs[index].ref) <= len(native)
            )
            if not live:
                continue
            score_tracks = self._score_tracks(sig, (rate, stride), live, state)
            for index in live:
                entry = self._refs[index]
                track = score_tracks[index]
                threshold = cfar_threshold(track, CFAR_K)
                min_dist = max(len(entry.tpl) // 2, 1)
                # Best first (score desc, then index asc), so equal
                # scores do not depend on the suppression order.
                peaks = top_peaks(track, threshold, min_dist, MAX_PER_TECHNOLOGY)
                candidates: list[ClassifiedSignal] = []
                for idx in peaks:
                    start = int(idx) * entry.stride
                    window = native[start : start + len(entry.ref)]
                    if len(window) < len(entry.ref):
                        continue
                    amplitude = complex(
                        np.sum(np.conj(entry.ref) * window)
                        / entry.ref_energy
                    )
                    candidates.append(
                        ClassifiedSignal(
                            technology=entry.modem.name,
                            start=start,
                            score=float(track[idx]),
                            amplitude=amplitude,
                            center_hz=self._estimate_center(
                                window, entry.modem.sample_rate
                            ),
                        )
                    )
                per_ref[index] = candidates
        found = [
            candidate
            for index in range(len(self._refs))
            for candidate in per_ref.get(index, [])
        ]
        return sorted(found, key=lambda c: c.power, reverse=True)
