"""Cross-correlation primitives for packet detection.

The gateway detects packets by sliding a preamble template over the
capture. Three flavours are provided:

* :func:`cross_correlate` — raw complex correlation (FFT based).
* :func:`normalized_correlation` — correlation magnitude normalized by
  both template and local window energy, so the score is in [0, 1] and a
  constant-false-alarm threshold works at any noise level.
* :func:`segmented_correlation` — splits the template into blocks,
  normalizes each block coherently and combines block magnitudes
  non-coherently. This trades a little processing gain for robustness to
  carrier frequency offset: CFO rotates the phase across a long template
  and destroys coherent correlation, but barely rotates within one block.

Peak picking (:func:`find_peaks_above`) enforces a minimum spacing so one
packet produces one detection; its greedy suppression
(:func:`greedy_suppress`) is shared with the streaming gateway.

Multi-template and blocked correlations run on the shared-FFT
overlap-save engine in :mod:`repro.dsp.fastcorr`, which computes the
forward FFT of the signal once per segment and reuses it across every
template.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from ..errors import ConfigurationError
from .fastcorr import TemplateBank, TrackSpec, blocked_bank, correlate_accumulate

__all__ = [
    "cross_correlate",
    "normalized_correlation",
    "segmented_correlation",
    "find_peaks_above",
    "greedy_suppress",
]

_EPS = 1e-30


def cross_correlate(x: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Complex correlation ``c[n] = sum_k conj(template[k]) x[n + k]``.

    Output length is ``len(x) - len(template) + 1`` ("valid" mode).

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


def normalized_correlation(x: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Normalized correlation magnitude in [0, 1].

    ``score[n] = |c[n]| / (||template|| * ||x[n : n+L]||)``
    """
    corr = cross_correlate(x, template)
    template_norm = np.sqrt(np.sum(np.abs(template) ** 2)) + _EPS
    window_norm = np.sqrt(np.maximum(_window_energy(x, len(template)), 0.0))
    # Floor the local norm so numerically-silent windows (all-zero padding
    # in synthetic scenes) score ~0 instead of dust / dust = huge.
    floor = max(float(window_norm.max(initial=0.0)), template_norm) * 1e-9 + _EPS
    return np.abs(corr) / (template_norm * np.maximum(window_norm, floor))


#: Persistent sub-block banks kept by :func:`segmented_correlation`, one
#: per distinct (template, block). Every modem syncs against one fixed
#: reference at one stride, so a handful of entries covers the shipped
#: modem set; the bound keeps ad-hoc callers from growing the cache.
SEGMENTED_BANK_SLOTS = 32


@lru_cache(maxsize=SEGMENTED_BANK_SLOTS)
def _segmented_bank(template: bytes, block: int) -> TemplateBank:
    """The full-block bank of one template (raw complex128 bytes)."""
    waveform = np.frombuffer(template, dtype=np.complex128)
    return blocked_bank(waveform, block)


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
        Score array in [0, 1] with the same indexing as
        :func:`normalized_correlation`. Each block's correlation magnitude
        is accumulated and the sum is normalized by the combined energies.
    """
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
    acc = correlate_accumulate(x, bank, {0: spec})[0]
    template_norm = np.sqrt(np.sum(np.abs(template[:used]) ** 2)) + _EPS
    window_norm = np.sqrt(np.maximum(_window_energy(x, len(template)), 0.0))
    floor = max(float(window_norm.max(initial=0.0)), template_norm) * 1e-9 + _EPS
    window_norm = np.maximum(window_norm, floor)
    # A perfect noiseless match accumulates sum_b ||t_b||^2 = ||t||^2 and
    # scores 1; the noise floor rises ~sqrt(n_blocks) over coherent
    # correlation, which is exactly the non-coherent combining loss.
    return acc / (template_norm * window_norm[:out_len])


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
