"""Cross-correlation primitives for packet detection.

The gateway detects packets by sliding a preamble template over the
capture, the cloud classifies them by sliding every technology's sync
waveform over a segment, and the demodulators sync the same way. Every
correlation runs on the shared-FFT overlap-save engine in
:mod:`repro.dsp.fastcorr`, which computes the forward FFT of the signal
once per segment and reuses it across every template:

* :class:`ScoreBank` — matched-filter score tracks, the correlation
  magnitude over the template norm, coherent or combined
  non-coherently over coherent blocks: the statistic the gateway's
  detector thresholds and the cloud's classifier ranks.
* :func:`segmented_correlation` — splits the template into blocks,
  normalizes each block coherently and combines block magnitudes
  non-coherently, normalized by the template and local window energy
  so the score is in [0, 1]. This trades a little processing gain for
  robustness to carrier frequency offset: CFO rotates the phase across
  a long template and destroys coherent correlation, but barely rotates
  within one block. With one block (``block = len(template)``) it is
  the coherent normalized correlation. :func:`segmented_peak` returns
  the same track's peak, exactly, scoring every lag in single precision
  first and in complex128 only where the peak can be.
* :func:`cross_correlate` — raw complex correlation through one
  :func:`scipy.signal.fftconvolve`: the engine's test oracle.

Peak picking (:func:`find_peaks_above`) enforces a minimum spacing so one
packet produces one detection; its greedy suppression
(:func:`greedy_suppress`) is shared with the streaming gateway, and
:func:`top_peaks` runs it only as far as its best ``k`` peaks.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from ..contracts import ensure_iq
from ..errors import ConfigurationError
from ..telemetry import Telemetry
from .fastcorr import (
    TemplateBank,
    TrackSpec,
    accumulate_at,
    blocked_bank,
    correlate_accumulate,
    peak_magnitudes,
    screen_accumulate,
)

__all__ = [
    "ScoreBank",
    "cross_correlate",
    "segmented_correlation",
    "segmented_peak",
    "find_peaks_above",
    "greedy_suppress",
    "top_peaks",
]

_EPS = 1e-30


def cross_correlate(x: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Complex correlation ``c[n] = sum_k conj(template[k]) x[n + k]``.

    Output length is ``len(x) - len(template) + 1`` ("valid" mode). One
    full-length FFT per call: the oracle the overlap-save engine
    (:func:`~repro.dsp.fastcorr.correlate_many`) is tested against.

    Raises:
        ConfigurationError: if the template is longer than the signal.
    """
    if len(template) > len(x):
        raise ConfigurationError("template longer than signal")
    return sp_signal.fftconvolve(x, np.conj(template[::-1]), mode="valid")


def _window_energy(x: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window energy of ``x`` for each valid start index."""
    power = np.abs(x) ** 2
    csum = np.concatenate(([0.0], np.cumsum(power)))
    return csum[window:] - csum[:-window]


#: Persistent sub-block banks kept by :func:`segmented_correlation`, one
#: per distinct (template, block). Every modem syncs against one fixed
#: reference at one stride, and the universal preamble coalesces each
#: technology's preamble once, so a handful of entries covers the
#: shipped modem set; the bound keeps ad-hoc callers from growing the
#: cache.
SEGMENTED_BANK_SLOTS = 32


@lru_cache(maxsize=SEGMENTED_BANK_SLOTS)
def _segmented_bank(template: bytes, block: int) -> TemplateBank:
    """The full-block bank of one template (raw complex128 bytes)."""
    waveform = np.frombuffer(template, dtype=np.complex128)
    return blocked_bank(waveform, block)


def _segmented_parts(
    x: np.ndarray, template: np.ndarray, block: int
) -> tuple[TemplateBank, TrackSpec, np.ndarray]:
    """The bank, accumulator spec and per-lag norm of one segmented
    correlation: its score track is ``accumulator / norm``."""
    if block < 1:
        raise ConfigurationError("block must be >= 1")
    n_blocks = len(template) // block
    if n_blocks == 0:
        raise ConfigurationError("template shorter than one block")
    used = n_blocks * block
    out_len = len(x) - len(template) + 1
    if out_len <= 0:
        raise ConfigurationError("template longer than signal")
    # All blocks share one forward FFT per overlap-save segment (see
    # repro.dsp.fastcorr); the tail past the last full block is dropped.
    # The bank persists across calls, so its row sharing and template
    # spectra are paid once per (template, block), not per demodulation.
    bank = _segmented_bank(
        np.asarray(template[:used], dtype=np.complex128).tobytes(), block
    )
    # Block magnitudes fold into the accumulator inside the engine's
    # chunk loop, skipping the per-block track arrays.
    spec = TrackSpec(
        pairs=tuple((offset, offset) for offset in bank.keys()),
        out_len=out_len,
        squared=False,
    )
    template_norm = np.sqrt(np.sum(np.abs(template[:used]) ** 2)) + _EPS
    window_norm = np.sqrt(np.maximum(_window_energy(x, len(template)), 0.0))
    # Floor the local norm so numerically-silent windows (all-zero padding
    # in synthetic scenes) score ~0 instead of dust / dust = huge.
    floor = max(float(window_norm.max(initial=0.0)), template_norm) * 1e-9 + _EPS
    window_norm = np.maximum(window_norm, floor)
    # A perfect noiseless match accumulates sum_b ||t_b||^2 = ||t||^2 and
    # scores 1; the noise floor rises ~sqrt(n_blocks) over coherent
    # correlation, which is exactly the non-coherent combining loss.
    return bank, spec, template_norm * window_norm[:out_len]


def segmented_correlation(
    x: np.ndarray, template: np.ndarray, block: int
) -> np.ndarray:
    """CFO-tolerant correlation: coherent per block, non-coherent across.

    Args:
        x: Received samples.
        template: Reference waveform.
        block: Coherent block length in samples. The template is cut into
            ``floor(L / block)`` full blocks; a short tail is dropped.

    Returns:
        Score array in [0, 1], index ``n`` for the template starting at
        ``x[n]`` (length ``len(x) - len(template) + 1``). Each block's
        correlation magnitude is accumulated and the sum is normalized
        by the combined energies; with one block the score is
        ``|c[n]| / (||template|| * ||x[n : n+L]||)``, the coherent
        normalized correlation.
    """
    bank, spec, norm = _segmented_parts(x, template, block)
    return correlate_accumulate(x, bank, {0: spec})[0] / norm


def segmented_peak(
    x: np.ndarray, template: np.ndarray, block: int, threshold: float
) -> tuple[int | None, float]:
    """The peak of :func:`segmented_correlation`, exactly, unless a
    single-precision screen proves it below ``threshold``.

    Returns ``(argmax, max)`` of ``segmented_correlation(x, template,
    block)``, the same bits, or ``(None, bound)`` when every score is
    proven below ``threshold``; ``bound`` is then the largest upper
    bound, and no complex128 correlation was computed.

    The screen (:func:`~repro.dsp.fastcorr.screen_accumulate`) folds
    complex64 magnitudes and bounds their accumulator's distance to the
    complex128 one. Divided by the norm the exact path divides by, that
    gives an upper and a lower bound on every lag's score. The exact
    peak's upper bound reaches the best lower bound, so only lags whose
    upper bound does are candidates; their exact accumulators come from
    the overlap-save segments they read
    (:func:`~repro.dsp.fastcorr.accumulate_at`), and the first of them
    with the largest exact score is the track's first argmax. When the
    bound is not finite (NaN, infinite, overflowing or vanishing input)
    nothing is proven, and the whole track is computed.

    Raises:
        ConfigurationError: as :func:`segmented_correlation`.
    """
    bank, spec, norm = _segmented_parts(x, template, block)
    approx, bound = screen_accumulate(x, bank, spec)
    if not np.isfinite(bound):
        scores = correlate_accumulate(x, bank, {0: spec})[0] / norm
        best = int(np.argmax(scores))
        return best, float(scores[best])
    upper = (approx + bound) / norm
    top = float(upper.max())
    if top < threshold:
        return None, top
    lower = (approx - bound) / norm
    lags = np.flatnonzero(upper >= lower.max())
    exact = accumulate_at(x, bank, spec, lags) / norm[lags]
    best = int(np.argmax(exact))
    return int(lags[best]), float(exact[best])


class ScoreBank:
    """Matched-filter score tracks of several templates off one
    :class:`~repro.dsp.fastcorr.TemplateBank`: the statistic the
    gateway's :class:`~repro.gateway.detection.CorrelationDetector`
    thresholds and the cloud's
    :class:`~repro.cloud.classify.SegmentClassifier` ranks.

    A key's score is its template's correlation magnitude over the
    template norm, ``|c[n]| / ||t||``, *not* divided by the local window
    energy (a CFAR threshold supplies the noise calibration). With a
    block, the template is cut into coherent blocks, the final short
    block included so that its energy is not charged to the norm
    uncorrelated, and the block magnitudes combine non-coherently:
    ``sqrt(sum_b |c_b[n + offset_b]|^2) / ||t||`` (CFO tolerance).

    The bank holds every key's blocks under ``(key, block offset)``, in
    key order. One :func:`~repro.dsp.fastcorr.correlate_accumulate` call
    folds the requested keys' magnitudes (squares, for a blocked key)
    off one forward FFT per overlap-save segment, so no complex track is
    stored. A coherent key's accumulator is ``0 + |c|``: the magnitudes
    of the engine's batches, bit for bit.

    Args:
        templates: Reference waveform per key.
        blocks: Coherent block length per key (``None`` = fully
            coherent).

    Raises:
        ConfigurationError: for an empty bank or a zero-energy template.
    """

    def __init__(
        self,
        templates: Mapping[Hashable, np.ndarray],
        blocks: Mapping[Hashable, int | None],
    ):
        self._lengths: dict[Hashable, int] = {}
        self._norms: dict[Hashable, float] = {}
        self._offsets: dict[Hashable, list[int]] = {}
        entries: dict[tuple[Hashable, int], np.ndarray] = {}
        for key, waveform in templates.items():
            template = ensure_iq(waveform)
            norm = float(np.sqrt(np.sum(np.abs(template) ** 2)))
            if norm <= 0:
                raise ConfigurationError(f"template {key!r} has zero energy")
            block = blocks[key]
            step = len(template) if block is None else block
            self._lengths[key] = len(template)
            self._norms[key] = norm
            self._offsets[key] = list(range(0, len(template), step))
            for offset in self._offsets[key]:
                entries[(key, offset)] = template[offset : offset + step]
        self._blocked = {key: blocks[key] is not None for key in templates}
        self.bank = TemplateBank(entries)

    def specs(
        self, n_samples: int, keys: Iterable[Hashable]
    ) -> dict[Hashable, TrackSpec]:
        """Each key's accumulator over a signal of ``n_samples``: one
        pair per block, squared for a blocked key."""
        return {
            key: TrackSpec(
                pairs=tuple(((key, offset), offset) for offset in self._offsets[key]),
                out_len=n_samples - self._lengths[key] + 1,
                squared=self._blocked[key],
            )
            for key in keys
        }

    def tracks(
        self,
        x: np.ndarray,
        keys: Iterable[Hashable],
        telemetry: Telemetry,
        previous: Mapping[Hashable, np.ndarray] | None = None,
        changed: tuple[int, int] | None = None,
    ) -> tuple[dict[Hashable, np.ndarray], dict[Hashable, np.ndarray]]:
        """The score track of each of ``keys`` (templates that fit ``x``).

        Returns ``(tracks, accumulators)``: the accumulators are
        :func:`~repro.dsp.fastcorr.correlate_accumulate`'s, untouched.
        Scoring an edited signal, pass them back as ``previous`` with
        ``changed``, the sample range where it differs; only the
        segments that range reaches are transformed, and the tracks
        equal a fresh call's bit for bit.
        """
        specs = self.specs(len(x), keys)
        acc = correlate_accumulate(
            x, self.bank, specs, telemetry=telemetry,
            previous=previous, changed=changed,
        )
        tracks = {
            key: (np.sqrt(acc[key]) if spec.squared else acc[key]) / self._norms[key]
            for key, spec in specs.items()
        }
        return tracks, acc

    def peak_bounds(
        self, x: np.ndarray, keys: list[Hashable], telemetry: Telemetry
    ) -> dict[Hashable, float]:
        """An upper bound on each coherent key's peak score over ``x``,
        with no complex128 correlation: the key's single-precision peak
        magnitude plus its proven error bound
        (:func:`~repro.dsp.fastcorr.peak_magnitudes`), over the norm.
        No score :meth:`tracks` returns for the key exceeds it.

        Raises:
            ConfigurationError: for a blocked key.
        """
        if any(self._blocked[key] for key in keys):
            raise ConfigurationError("the screen bounds coherent tracks only")
        peaks = peak_magnitudes(
            x, self.bank, keys=[(key, 0) for key in keys], telemetry=telemetry
        )
        return {
            key: (peak + bound) / self._norms[key]
            for key, (peak, bound) in zip(keys, peaks.values(), strict=True)
        }


def greedy_suppress(
    indices: np.ndarray,
    scores: np.ndarray,
    min_distance: int,
    accepted: Iterable[int] = (),
) -> np.ndarray:
    """Greedy min-distance suppression: which candidates survive.

    Candidates (sample ``indices`` with their ``scores``) are visited in
    descending score order — ties: the later candidate first, the order
    of a reversed stable argsort — and each is accepted iff no accepted
    peak lies within ``min_distance`` samples of it. ``accepted`` are
    peaks accepted before this call: they suppress their neighbourhoods
    from the start and are not part of the result.

    Each acceptance knocks out its whole neighbourhood with one slice of
    the index-sorted candidates, so a dense above-threshold track costs
    ``O(peaks x log(candidates))`` plus a scan, not a Python step per
    candidate.

    Returns:
        Boolean mask over ``indices``, True where a candidate is
        accepted.
    """
    indices = np.asarray(indices, dtype=np.int64)
    order = np.argsort(np.asarray(scores), kind="stable")[::-1]
    ranked = indices[order]
    # Rank positions in index order, through the inverse of ``order``:
    # sorting ``indices`` is near free when they already ascend (peak
    # picking's candidates always do), sorting ``ranked`` never is.
    rank_of = np.empty_like(order)
    rank_of[order] = np.arange(order.size)
    by_index = rank_of[np.argsort(indices, kind="stable")]
    sorted_idx = ranked[by_index]
    alive = np.ones(ranked.size, dtype=bool)
    fixed = np.sort(np.fromiter(accepted, dtype=np.int64))
    if fixed.size and ranked.size:
        # Distance to the nearest pre-accepted peak on either side.
        right = np.searchsorted(fixed, ranked)
        below = fixed[np.maximum(right - 1, 0)]
        above = fixed[np.minimum(right, fixed.size - 1)]
        alive &= (np.abs(ranked - below) >= min_distance) & (
            np.abs(above - ranked) >= min_distance
        )
    mask = np.zeros(ranked.size, dtype=bool)
    pos = 0
    while pos < ranked.size:
        if not alive[pos]:
            # First still-alive candidate at or after pos (argmax finds
            # the first True in C); none left ends the pass.
            nxt = pos + int(np.argmax(alive[pos:]))
            if not alive[nxt]:
                break
            pos = nxt
        peak = ranked[pos]
        mask[order[pos]] = True
        lo = np.searchsorted(sorted_idx, peak - min_distance, side="right")
        hi = np.searchsorted(sorted_idx, peak + min_distance, side="left")
        alive[by_index[lo:hi]] = False
        pos += 1
    return mask


def find_peaks_above(
    scores: np.ndarray, threshold: float, min_distance: int
) -> list[int]:
    """Greedy min-distance suppression of above-threshold samples.

    The candidate set is **every** sample scoring at or above
    ``threshold`` — not just local maxima. Candidates are then accepted
    in descending score order (ties: higher index first, the order of a
    reversed stable sort) and any candidate within ``min_distance``
    samples of an already-accepted peak is suppressed
    (:func:`greedy_suppress`); it is this greedy suppression that makes
    the result peak-like, one survivor per ``min_distance``
    neighbourhood. Returned indices are ascending.

    Args:
        scores: Score track.
        threshold: Candidate floor (inclusive).
        min_distance: Minimum spacing between accepted peaks.

    Raises:
        ConfigurationError: for ``min_distance < 1``.
    """
    if min_distance < 1:
        raise ConfigurationError("min_distance must be >= 1")
    scores = np.asarray(scores)
    candidates = np.flatnonzero(scores >= threshold)
    keep = greedy_suppress(candidates, scores[candidates], min_distance)
    return candidates[keep].tolist()


def top_peaks(
    scores: np.ndarray, threshold: float, min_distance: int, k: int
) -> list[int]:
    """The ``k`` best peaks of :func:`find_peaks_above`, best first.

    Equals ``sorted(find_peaks_above(scores, threshold, min_distance),
    key=lambda i: (-scores[i], i))[:k]`` without suppressing the whole
    track: repeated argmax over the samples still alive (at or above
    ``threshold`` and not yet suppressed; the later index on ties)
    replays the greedy's acceptance order, and each accepted peak
    suppresses the ``min_distance - 1`` samples on each side. The
    greedy accepts in descending score order, so it stops once the next
    alive sample scores strictly below the ``k``-th accepted peak; a
    tie with it is still accepted, since the index order may rank it
    first.

    Args:
        scores: Score track.
        threshold: Candidate floor (inclusive).
        min_distance: Minimum spacing between accepted peaks.
        k: Peaks to return (at most).

    Raises:
        ConfigurationError: for ``min_distance < 1``.
    """
    if min_distance < 1:
        raise ConfigurationError("min_distance must be >= 1")
    scores = np.asarray(scores)
    # Samples below the threshold (and NaN) are never candidates.
    alive = np.where(scores >= threshold, scores, -np.inf)
    kept: list[int] = []
    while alive.size and k > 0:
        pos = alive.size - 1 - int(np.argmax(alive[::-1]))
        best = alive[pos]
        if best == -np.inf or (len(kept) >= k and best < scores[kept[k - 1]]):
            break
        kept.append(pos)
        alive[max(pos - min_distance + 1, 0) : pos + min_distance] = -np.inf
    return sorted(kept, key=lambda i: (-scores[i], i))[:k]
