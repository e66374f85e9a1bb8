"""Shared-FFT overlap-save correlation engine for the detection front.

The gateway's hot path is correlation: every capture chunk is slid
against every technology preamble (and, in CFO-tolerant mode, against
every coherent sub-block of every preamble). Done naively — one
:func:`scipy.signal.fftconvolve` per template — a 6-technology bank with
8 CFO blocks recomputes the forward FFT of the *same* chunk ~48 times.
This module restores the classic fix: compute ``FFT(x)`` once per
overlap-save segment and reuse it across every template, block and
detector.

Four pieces:

* :class:`SpectrumPlan` / :func:`spectrum_plan` — the engine's one
  overlap-save layout, memoized per ``(n_samples, max_template_len,
  min_template_len)``: power-of-two segments of
  :data:`PLAN_TEMPLATES` longest templates, capped at
  :data:`MAX_NFFT` points, or one segment for a shorter buffer. Every
  entry point below, in either precision, plans with it, so the
  single-precision screen and the complex128 pass read the same
  segments.
* :class:`TemplateBank` — the templates of one detector, with their
  conjugate spectra precomputed per FFT length and precision and cached
  on the bank (a detector correlates thousands of chunks of the same
  length, so the template FFTs are paid once, not per chunk).
* :func:`correlate_many` — one forward FFT per overlap-save segment,
  one (batched) inverse FFT per *distinct* template per segment, with
  exact "valid"-mode indexing: entry ``k`` of the result has length
  ``len(x) - len(t_k) + 1`` and matches
  :func:`repro.dsp.correlation.cross_correlate` sample for sample
  (complex tracks: multi-gateway combining and the universal
  preamble's response check).
  :func:`correlate_accumulate` runs the same segment loop and folds
  block magnitudes into non-coherent accumulators as it goes (the
  score tracks of :class:`repro.dsp.correlation.ScoreBank`, the sync
  searches and SIC alignment). Given the accumulators of an earlier
  signal and the range where the new one differs, it transforms only
  the segments that range reaches.
* :func:`peak_magnitudes` — the same segment loop in single precision
  (complex64), reduced to each template's peak magnitude together with
  a proven bound on its error. A detector uses it to show that a
  buffer holds no score at its threshold before it pays for the
  complex128 tracks; no single-precision value is returned as a score.
  :func:`screen_accumulate` is its counterpart for one non-coherent
  accumulator, and :func:`accumulate_at` computes chosen entries of
  :func:`correlate_accumulate`'s accumulator, bit for bit, from the
  segments they read only: together they let a sync search find the
  exact peak of a blocked correlation without the whole complex128
  track.

Row sharing: a preamble's coherent sub-blocks repeat, so a blocked bank
holds the same waveform many times up to a carrier phase. At
construction the bank maps every template ``t`` that equals an earlier
same-length template ``r`` times a unit-modulus factor ``g`` (``|g| = 1``
and ``max|t - g r|`` both within :data:`ALIAS_RTOL` of ``max|t|``) onto
``r``'s row. The engine computes spectra, inverse FFTs and magnitudes
for distinct rows only, and derives every alias from its
representative: ``correlate(x, g r) = conj(g) correlate(x, r)``, so an
alias's magnitude track *is* its representative's. Measured on the
shipped sync banks: Z-Wave at its demodulator's stride has 44 blocks in
3 distinct rows, XBee 24 in 11, LoRa at the classify stride 49 in 16.
The distinct counts are the same for any tolerance from 1e-12 to 1e-6
(repeats match to ~1e-15; the closest distinct pair differs by ~4e-5).
A one-row bank — the coherent universal template — has nothing to
share, so its segment spectra double as the product buffer: the
forward FFT overwrites the loaded segments, and the template product
and the inverse FFT overwrite that. A chunk of the gateway's stream
thus costs one segment buffer and one pass per step, with the same
bits as a row of a wider bank.

Numerical contract: results are ``allclose`` to the single-shot
``fftconvolve`` path but **not** bit-identical — ``fftconvolve`` rounds
through one FFT of length ``next_fast_len(len(x) + len(t) - 1)`` while
overlap-save rounds through segments of a different (usually much
shorter) length, so the last few ulps differ. Within the engine, an
alias's magnitudes equal its representative's to rounding, and its
complex track is ``conj(g)`` times the representative's. Event-level
detector output is unaffected in practice (detection margins dwarf the
ulp noise); the reference tests in ``tests/test_fastcorr.py`` and the
golden detection fixture assert exactly that.

A range call of :func:`correlate_accumulate` is bit-identical to a full
call over the same signal. It keeps the full call's plan and runs its
batches aligned to segment 0, so every entry it recomputes folds the
same lags out of the same FFTs in the same order; a lag of a segment
whose input did not change is the same bits either way (a row's FFT
does not depend on the other rows of its batch). :func:`accumulate_at`
computes its entries the same way, and is bit-identical for the same
reason.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log2
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import fft as sp_fft

from ..contracts import ensure_iq
from ..errors import ConfigurationError
from ..telemetry import NULL, Telemetry

__all__ = [
    "SpectrumPlan",
    "spectrum_plan",
    "spectrum_plan_cache_info",
    "clear_spectrum_plan_cache",
    "TemplateBank",
    "TrackSpec",
    "blocked_bank",
    "correlate_many",
    "correlate_accumulate",
    "accumulate_at",
    "peak_magnitudes",
    "screen_accumulate",
]

#: Spectra cache slots per bank (distinct FFT lengths kept resident).
#: Streaming buffers settle on one length (plus a shorter first/last
#: chunk), so a handful of slots covers real workloads.
SPECTRA_CACHE_SLOTS = 4

#: Cap on the batched inverse-FFT working set, in complex128 elements
#: (2M = 32 MiB per intermediate). The overlap-save segment loop batches
#: its inverse FFTs over (segments x templates); this bounds how many
#: segments share one batched call so a small-template bank (hundreds of
#: segments) never materializes a multi-hundred-megabyte product tensor.
BATCH_WORK_ELEMENTS = 2_097_152

#: Relative tolerance of the row-sharing test in :class:`TemplateBank`:
#: a template ``t`` shares the row of an earlier template ``r`` when
#: ``t = g r`` with ``|1 - |g|| <= ALIAS_RTOL`` and
#: ``max|t - g r| <= ALIAS_RTOL * max|t|`` — float-rounding level, so
#: only waveforms that are the same up to a carrier phase merge.
ALIAS_RTOL = 1e-12

#: FFT length of every plan (:func:`spectrum_plan`), in longest
#: templates: segments are the power of two at or above this many (or
#: one segment for the whole buffer, when that is shorter), up to
#: :data:`MAX_NFFT`. A power of two is the length the screen's
#: :data:`SCREEN_KAPPA` is derived for.
PLAN_TEMPLATES = 8

#: Longest segment of a plan when :data:`PLAN_TEMPLATES` templates
#: exceed it; a template longer than half of it gets the power of two
#: at or above two templates instead. pocketfft transforms a batch
#: :data:`SCREEN_LINES` lines at a time, and four complex64 lines of
#: 2**16 points (2 MiB) fill a 2 MiB L2: on a 2-vCPU x86 box (scipy
#: 1.17.1) the screen of a 270,335-sample gateway buffer against the
#: 8,192-sample universal template took 12.2 ms in a hot loop on five
#: 65,536-point lines and takes 6.5 ms on twelve 32,768-point lines
#: (eleven segments and one zero line).
MAX_NFFT = 1 << 15

#: Lines pocketfft transforms together in complex64 (one SIMD group):
#: :func:`peak_magnitudes` runs its FFTs on whole groups, since a line
#: left over outside a group costs about 1.7 times as much per point
#: (16 against 9.5 ns/point on 65,536-point lines, same box).
SCREEN_LINES = 4

#: ``kappa`` of :func:`peak_magnitudes`' error bound (derived there:
#: the first-order terms sum to about 14; 16 also covers the
#: second-order terms and the complex128 path's own rounding).
SCREEN_KAPPA = 16.0

#: Scale floor of :func:`peak_magnitudes`: below it the bound is
#: infinite, since float32's gradual underflow (an absolute error of up
#: to ``2**-150`` per rounding, which the relative bound does not
#: cover) could then matter. Far below any real capture's scale.
SCREEN_MIN_SCALE = 2.0**-60


@dataclass(frozen=True)
class SpectrumPlan:
    """One memoized overlap-save layout.

    Attributes:
        n_samples: Signal length the plan was built for.
        max_template_len: Longest template the plan must accommodate.
        min_template_len: Shortest template in the workload — its valid
            track ``n_samples - min_template_len + 1`` is the longest
            one, and it is what the segment loop must cover.
        nfft: FFT length (a ``next_fast_len`` size).
        hop: Fresh samples per segment, ``nfft - (max_template_len - 1)``.
            Every segment's first ``hop`` correlation lags are free of
            circular wrap-around for *any* template up to
            ``max_template_len``, so consecutive segments' outputs tile
            the valid-mode track exactly.
    """

    n_samples: int
    max_template_len: int
    min_template_len: int
    nfft: int
    hop: int

    @property
    def n_segments(self) -> int:
        """Segments (forward FFTs) needed to cover the longest track."""
        out_max = self.n_samples - self.min_template_len + 1
        return ceil(out_max / self.hop)


@lru_cache(maxsize=512)
def _cached_spectrum_plan(
    n_samples: int, max_template_len: int, min_template_len: int
) -> SpectrumPlan:
    # One segment holds every lag of the shortest template's track
    # with the longest template's overlap.
    whole = n_samples - min_template_len + max_template_len
    span = max(min(PLAN_TEMPLATES * max_template_len, whole), 16)
    longest = max(MAX_NFFT, 1 << (2 * max_template_len - 1).bit_length())
    nfft = min(1 << (span - 1).bit_length(), longest)
    return SpectrumPlan(
        n_samples=n_samples,
        max_template_len=max_template_len,
        min_template_len=min_template_len,
        nfft=nfft,
        hop=nfft - (max_template_len - 1),
    )


def spectrum_plan(
    n_samples: int,
    max_template_len: int,
    min_template_len: int | None = None,
) -> SpectrumPlan:
    """The (memoized) overlap-save layout for one workload.

    Segments are the power of two at or above :data:`PLAN_TEMPLATES`
    longest templates, or one segment for the whole buffer when that is
    shorter, and never below 16 points (the screen's bound needs
    ``log2(nfft) >= 3``); but no longer than :data:`MAX_NFFT`, or the
    power of two at or above two longest templates if that is longer.
    The segment count covers the shortest template's track, the
    longest one.

    The cache key is ``(n_samples, max_template_len,
    min_template_len)`` — chunked streams hit the same key on every
    steady-state chunk. ``min_template_len`` defaults to
    ``max_template_len`` (a uniform-length bank).

    Raises:
        ConfigurationError: if the template does not fit the signal.
    """
    if max_template_len < 1:
        raise ConfigurationError("max_template_len must be >= 1")
    if max_template_len > n_samples:
        raise ConfigurationError("template longer than signal")
    if min_template_len is None:
        min_template_len = max_template_len
    if not 1 <= min_template_len <= max_template_len:
        raise ConfigurationError(
            "min_template_len must be in [1, max_template_len]"
        )
    return _cached_spectrum_plan(
        int(n_samples), int(max_template_len), int(min_template_len)
    )


def spectrum_plan_cache_info() -> object:
    """``lru_cache`` statistics of the plan cache (hits/misses/size)."""
    return _cached_spectrum_plan.cache_info()


def clear_spectrum_plan_cache() -> None:
    """Drop every memoized plan (tests and benchmarks)."""
    _cached_spectrum_plan.cache_clear()


def _share_rows(
    templates: list[np.ndarray],
) -> tuple[list[int], list[complex]]:
    """Representative index and unit factor ``g`` of each template.

    ``templates[i] == g[i] * templates[rep[i]]`` to within
    :data:`ALIAS_RTOL`; a template no earlier one matches is its own
    representative (``rep[i] == i``, ``g[i] == 1``). Candidates come
    from one Gram matrix per template length (the least-squares factor
    of ``t`` on ``r`` is ``<r, t> / <r, r>``); the sample-wise residual
    then confirms each merge.
    """
    reps = list(range(len(templates)))
    phases = [1 + 0j] * len(templates)
    by_length: dict[int, list[int]] = {}
    for index, template in enumerate(templates):
        by_length.setdefault(len(template), []).append(index)
    for indices in by_length.values():
        if len(indices) < 2:
            continue
        stack = np.stack([templates[i] for i in indices])
        # einsum, not ``@``: a threaded BLAS spends milliseconds waking
        # its threads for a Gram matrix this small.
        gram = np.einsum("ik,jk->ij", stack.conj(), stack)
        energy = gram.diagonal().real
        # A silent template factors onto nothing (g = 0 fails |g| = 1).
        energy = np.where(energy > 0, energy, np.inf)
        peaks = np.abs(stack).max(axis=1)
        distinct: list[int] = []
        for pos, index in enumerate(indices):
            cands = np.array(distinct, dtype=np.intp)
            factors = gram[cands, pos] / energy[cands]
            unit = np.abs(np.abs(factors) - 1) <= ALIAS_RTOL
            for cand, g in zip(cands[unit], factors[unit], strict=True):
                residual = np.abs(stack[pos] - g * stack[cand]).max()
                if residual <= ALIAS_RTOL * peaks[pos]:
                    reps[index] = indices[cand]
                    phases[index] = complex(g)
                    break
            else:
                distinct.append(pos)
    return reps, phases


class TemplateBank:
    """The (conjugate) template spectra of one detector, cached per nfft.

    A bank is built once per detector from its fixed templates; the
    conjugate spectra at a given FFT length are computed on first use
    and kept on the bank (:data:`SPECTRA_CACHE_SLOTS` most recent
    lengths), so steady-state chunks pay zero template FFTs.

    Templates that equal an earlier one up to a unit-modulus factor
    share its row (see the module docstring): the spectra matrix holds
    one row per *distinct* template, :meth:`row` maps every key onto
    it, and :meth:`phase` gives the key's factor ``g``.

    Args:
        templates: Mapping of hashable keys (technology names, block
            offsets, ...) to complex template waveforms. Iteration
            order is preserved.

    Raises:
        ConfigurationError: for an empty bank or an empty template.
    """

    def __init__(self, templates: Mapping[Hashable, npt.ArrayLike]):
        if not templates:
            raise ConfigurationError("template bank must not be empty")
        self._templates: dict[Hashable, np.ndarray] = {}
        for key, waveform in templates.items():
            template = ensure_iq(waveform).copy()
            if len(template) == 0:
                raise ConfigurationError("template must not be empty")
            template.flags.writeable = False
            self._templates[key] = template
        listed = list(self._templates.values())
        reps, phases = _share_rows(listed)
        distinct = sorted(set(reps))
        row_of = {rep: row for row, rep in enumerate(distinct)}
        self._distinct = [listed[i] for i in distinct]
        self._rows = {
            key: row_of[rep] for key, rep in zip(self._templates, reps, strict=True)
        }
        self._phases = dict(zip(self._templates, phases, strict=True))
        self._spectra_cache: OrderedDict[tuple[int, np.dtype], np.ndarray] = (
            OrderedDict()
        )
        # Banks can be shared across decode threads (the persistent
        # sync banks of repro.dsp.correlation); guard the LRU.
        self._spectra_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def n_distinct(self) -> int:
        """Distinct rows: templates left after row sharing."""
        return len(self._distinct)

    def keys(self) -> list[Hashable]:
        """Entry keys in insertion order."""
        return list(self._templates)

    def template(self, key: Hashable) -> np.ndarray:
        """The (read-only) template stored under ``key``."""
        return self._templates[key]

    def length(self, key: Hashable) -> int:
        """Template length in samples."""
        return len(self._templates[key])

    def row(self, key: Hashable) -> int:
        """Row of ``key``'s distinct template in the spectra matrix."""
        return self._rows[key]

    def phase(self, key: Hashable) -> complex:
        """Unit factor ``g`` with ``template(key) == g * distinct row``.

        ``1`` for a distinct template; the correlation against
        ``key`` is ``conj(g)`` times its row's correlation.
        """
        return self._phases[key]

    @property
    def max_template_len(self) -> int:
        """Length of the longest template in the bank."""
        return max(len(t) for t in self._templates.values())

    def spectra(
        self, nfft: int, dtype: npt.DTypeLike = np.complex128
    ) -> np.ndarray:
        """Stacked conjugate spectra ``conj(FFT(t_k, nfft))``.

        Shape ``(n_distinct, nfft)``, one row per distinct template;
        :meth:`row` maps keys onto it. ``dtype`` is the working
        precision: the spectra are always computed in complex128, and a
        complex64 matrix holds them rounded once. Cached per ``(nfft,
        dtype)`` (LRU over :data:`SPECTRA_CACHE_SLOTS`).
        """
        key = (nfft, np.dtype(dtype))
        with self._spectra_lock:
            cached = self._spectra_cache.get(key)
            if cached is not None:
                self._spectra_cache.move_to_end(key)
                return cached
            matrix = np.empty((len(self._distinct), nfft), dtype=dtype)
            for row, template in enumerate(self._distinct):
                matrix[row] = np.conj(sp_fft.fft(template, n=nfft))
            matrix.flags.writeable = False
            self._spectra_cache[key] = matrix
            while len(self._spectra_cache) > SPECTRA_CACHE_SLOTS:
                self._spectra_cache.popitem(last=False)
            return matrix


def blocked_bank(template: npt.ArrayLike, block: int | None = None) -> TemplateBank:
    """Bank of one template's full coherent sub-blocks, keyed by offset.

    A final short block, when ``block`` does not divide the template
    length, is dropped (:func:`segmented_correlation
    <repro.dsp.correlation.segmented_correlation>` semantics).

    Args:
        template: The full reference waveform.
        block: Coherent block length in samples; ``None`` yields a
            single entry (key ``0``) holding the whole template.

    Raises:
        ConfigurationError: for ``block < 1`` or a template shorter
            than one block.
    """
    template = ensure_iq(template)
    if block is None:
        return TemplateBank({0: template})
    if block < 1:
        raise ConfigurationError("block must be >= 1")
    n_blocks = len(template) // block
    if n_blocks == 0:
        raise ConfigurationError("template shorter than one block")
    return TemplateBank(
        {
            b * block: template[b * block : (b + 1) * block]
            for b in range(n_blocks)
        }
    )


def _distinct_rows(
    bank: TemplateBank, keys: list[Hashable]
) -> tuple[list[int], dict[Hashable, int]]:
    """The distinct bank rows ``keys`` use (ascending), and the index of
    each key's row in that list."""
    rows = sorted({bank.row(key) for key in keys})
    index = {row: i for i, row in enumerate(rows)}
    return rows, {key: index[bank.row(key)] for key in keys}


def _requested(
    bank: TemplateBank, keys: Iterable[Hashable] | None, n_samples: int
) -> tuple[list[Hashable], list[int]]:
    """The requested keys (default: all) and their template lengths.

    Raises:
        ConfigurationError: if a requested template is longer than the
            signal.
    """
    requested = bank.keys() if keys is None else list(keys)
    lengths = [bank.length(key) for key in requested]
    if lengths and max(lengths) > n_samples:
        raise ConfigurationError("template longer than signal")
    return requested, lengths


def _load_segments(
    x: np.ndarray,
    nfft: int,
    hop: int,
    first: int,
    stop: int,
    dtype: npt.DTypeLike,
    n_rows: int,
) -> np.ndarray:
    """Segments ``[first, stop)`` of ``x`` as the first rows of a new
    ``n_rows x nfft`` ``dtype`` matrix: row ``s - first`` holds ``x[s *
    hop : s * hop + nfft]``, zero-padded past the end of ``x``, and the
    rows after the last segment are zero.

    The segments that lie wholly inside ``x`` are copied from one
    strided view in one assignment; only the tail segments that run
    past the end (at most ``ceil(nfft / hop)`` of them) are filled one
    by one, and only their padding is zeroed.
    """
    n_samples = len(x)
    segmat = np.empty((n_rows, nfft), dtype=dtype)
    whole = min(stop, (n_samples - nfft) // hop + 1) if n_samples >= nfft else 0
    if whole > first:
        windows = np.lib.stride_tricks.sliding_window_view(x, nfft)
        segmat[: whole - first] = windows[first * hop : whole * hop : hop]
    for seg in range(max(whole, first), stop):
        pos = seg * hop
        filled = n_samples - pos
        segmat[seg - first, :filled] = x[pos:]
        segmat[seg - first, filled:] = 0
    segmat[stop - first :] = 0
    return segmat


def _overlap_save(
    x: np.ndarray,
    bank: TemplateBank,
    rows: list[int],
    plan: SpectrumPlan,
    telemetry: Telemetry,
    segments: range | None = None,
    dtype: npt.DTypeLike = np.complex128,
    lines: int = 1,
) -> Iterator[tuple[int, np.ndarray]]:
    """The shared segment loop of :func:`correlate_many`,
    :func:`correlate_accumulate` and :func:`peak_magnitudes`, over
    distinct bank ``rows`` only, in working precision ``dtype``.

    Yields ``(pos0, corr)`` per batch of segments: ``corr`` has shape
    ``(segments, len(rows), hop)`` and ``corr[s, i]`` holds lags
    ``pos0 + s * hop`` to ``pos0 + (s + 1) * hop`` of row ``rows[i]``'s
    valid-mode track (lags past a track's end are garbage). With one
    row, every batch is a view of its own segments' spectra, which no
    later batch reuses; with more, every batch reuses one buffer.

    ``segments`` (default: all of ``plan``'s) restricts the loop to a
    contiguous run of segments. Batches stay aligned to segment 0 —
    batch ``b`` covers segments ``[b * chunk, (b + 1) * chunk)``
    clipped to the run — so every lag comes out of the batch it would
    in a full call, and a caller folding batches in order sums each
    output entry in the full call's order.

    ``lines`` > 1 runs the FFTs on whole groups of that many segments
    (pocketfft's SIMD groups, :data:`SCREEN_LINES`): batches hold whole
    groups, zero segments after the last one fill the last group, and
    no batch yields them. Every batch is whole groups when the run
    starts on a group boundary, as the whole loop and every part of
    :func:`peak_magnitudes` do.
    """
    nfft, hop = plan.nfft, plan.hop
    if segments is None:
        segments = range(plan.n_segments)
    first, stop = segments.start, segments.stop
    # Segment rows transformed: whole groups of ``lines``.
    loaded = -(-(stop - first) // lines) * lines
    with telemetry.span("fastcorr.correlate"):
        spectra = bank.spectra(nfft, dtype)
        # Every row requested (rows are ascending): use the cached matrix
        # as is instead of copying it on every call.
        row_spectra = spectra if len(rows) == len(spectra) else spectra[rows]
        # All overlap-save segments go through ONE batched forward FFT,
        # which overwrites the segment matrix: a small-template bank
        # plans hundreds of short segments, and paying a separate scipy
        # dispatch per segment used to dominate the actual FFT work on
        # the cloud classify path.
        fwd = sp_fft.fft(
            _load_segments(x, nfft, hop, first, stop, dtype, loaded),
            axis=1,
            overwrite_x=True,
        )
        # Inverse FFTs batch over (segments x rows), chunked so the
        # product tensor stays under BATCH_WORK_ELEMENTS (in whole
        # groups of ``lines`` segments), and work in place. One row
        # multiplies each segment's spectrum in place; more rows share
        # one product buffer across chunks, so each chunk costs one
        # working set, not three.
        chunk = max(1, BATCH_WORK_ELEMENTS // (len(rows) * nfft))
        chunk = -(-chunk // lines) * lines
        product = None
        if len(rows) > 1:
            product = np.empty(
                (min(chunk, loaded), len(rows), nfft), dtype=dtype
            )
        for c0 in range(first - first % chunk, stop, chunk):
            s0, s1 = max(c0, first), min(c0 + chunk, stop)
            # The last batch also transforms the zero rows.
            end = s1 - first if s1 < stop else loaded
            segment_spectra = fwd[s0 - first : end, None, :]
            work = (
                segment_spectra if product is None
                else product[: end - (s0 - first)]
            )
            np.multiply(segment_spectra, row_spectra[None, :, :], out=work)
            corr = sp_fft.ifft(work, axis=2, overwrite_x=True)
            # Each segment's first ``hop`` lags are wrap-free, so
            # consecutive segments tile the track contiguously.
            yield s0 * hop, corr[: s1 - s0, :, :hop]
    telemetry.count("fastcorr.forward_ffts", loaded)
    telemetry.count("fastcorr.inverse_ffts", loaded * len(rows))


def correlate_many(
    x: npt.ArrayLike, bank: TemplateBank
) -> dict[Hashable, np.ndarray]:
    """Valid-mode complex correlation of ``x`` against every template of
    ``bank``.

    One forward FFT per overlap-save segment is shared by every
    template; each distinct template costs one (batched)
    inverse FFT per segment, and an alias ``g r`` of a distinct
    template ``r`` gets ``conj(g)`` times ``r``'s track. Entry ``k`` of
    the result is exactly ``cross_correlate(x, bank.template(k))`` up
    to FFT rounding: ``c[n] = sum_j conj(t[j]) x[n + j]``, length
    ``len(x) - len(t) + 1``. Every returned track is the caller's to
    keep or overwrite: no two keys share memory, and none shares it
    with ``x``.

    Args:
        x: Received complex samples.
        bank: Prebuilt template bank.

    Raises:
        ConfigurationError: if any template is longer than ``x`` (same
            contract as :func:`~repro.dsp.correlation.cross_correlate`).
    """
    x = ensure_iq(x)
    n_samples = len(x)
    requested, lengths = _requested(bank, None, n_samples)
    rows, local = _distinct_rows(bank, requested)
    plan = spectrum_plan(n_samples, max(lengths), min(lengths))
    out_lens = [n_samples - length + 1 for length in lengths]
    out = {
        key: np.empty(out_len, dtype=np.complex128)
        for key, out_len in zip(requested, out_lens, strict=True)
    }
    for pos0, corr in _overlap_save(x, bank, rows, plan, NULL):
        span = corr.shape[0] * corr.shape[2]
        tracks: dict[int, np.ndarray] = {}
        for key, out_len in zip(requested, out_lens, strict=True):
            if pos0 >= out_len:
                continue
            end = min(pos0 + span, out_len)
            i = local[key]
            if i not in tracks:
                tracks[i] = corr[:, i, :].reshape(-1)
            track = tracks[i][: end - pos0]
            phase = bank.phase(key)
            if phase == 1:
                out[key][pos0:end] = track
            else:
                np.multiply(track, phase.conjugate(), out=out[key][pos0:end])
    return out


@dataclass(frozen=True)
class TrackSpec:
    """One non-coherent accumulator over a bank's sub-block tracks.

    Attributes:
        pairs: ``(bank_key, offset)`` terms; the accumulator at index
            ``n`` sums ``f(|corr_key[n + offset]|)`` over all pairs.
        out_len: Accumulator length (the caller's valid-track length).
        squared: ``True`` sums magnitude *squares* (blocked score
            tracks, :class:`~repro.dsp.correlation.ScoreBank`),
            ``False`` sums magnitudes
            (:func:`~repro.dsp.correlation.segmented_correlation`
            semantics).
    """

    pairs: tuple[tuple[Hashable, int], ...]
    out_len: int
    squared: bool = True


def _recompute_spans(
    specs: Mapping[Hashable, TrackSpec],
    plan: SpectrumPlan,
    changed: tuple[int, int] | None,
) -> dict[Hashable, tuple[int, int]]:
    """Per group, the accumulator entries ``[e0, e1)`` to compute.

    ``changed=None`` asks for every entry. Otherwise an entry is
    recomputed iff one of its pairs reads a lag of an overlap-save
    segment whose input window ``[s * hop, s * hop + nfft)`` meets the
    changed sample range: the FFT mixes its whole window, so every lag
    of such a segment may move, and every lag of any other segment is
    bit for bit what it was. Over a spec's offsets the affected entries
    are contiguous up to offset gaps; the span is their hull.
    """
    if changed is None:
        return {group: (0, spec.out_len) for group, spec in specs.items()}
    lo, hi = changed
    nfft, hop = plan.nfft, plan.hop
    first = max((lo - nfft) // hop + 1, 0)
    stop = min(-(-hi // hop), plan.n_segments)
    spans = {}
    for group, spec in specs.items():
        if lo >= hi or first >= stop or not spec.pairs:
            spans[group] = (0, 0)
            continue
        offsets = [offset for _, offset in spec.pairs]
        e0 = max(first * hop - max(offsets), 0)
        e1 = min(stop * hop - min(offsets), spec.out_len)
        spans[group] = (e0, max(e1, e0))
    return spans


def _pair_keys(specs: Iterable[TrackSpec]) -> list[Hashable]:
    """The bank keys the specs' pairs read, each once, in first-use
    order."""
    return list(dict.fromkeys(key for spec in specs for key, _ in spec.pairs))


def _fold(
    x: np.ndarray,
    bank: TemplateBank,
    specs: Mapping[Hashable, TrackSpec],
    plan: SpectrumPlan,
    spans: Mapping[Hashable, tuple[int, int]],
    acc: Mapping[Hashable, np.ndarray],
    telemetry: Telemetry,
    dtype: npt.DTypeLike = np.complex128,
) -> None:
    """The accumulation loop of :func:`correlate_accumulate`,
    :func:`accumulate_at` and :func:`screen_accumulate`: zero entries
    ``spans[group]`` of ``acc[group]`` and fold into them every pair's
    magnitudes (or squares), from the ``plan`` segments they read only,
    in working precision ``dtype`` (magnitudes in ``acc``'s dtype).

    Batches stay aligned to segment 0 (see :func:`_overlap_save`), so
    an entry gets the same terms in the same order whatever the spans:
    batch by batch, and pair by pair within a batch.
    """
    requested = _pair_keys(specs.values())
    rows, local = _distinct_rows(bank, requested)
    n_samples, hop = len(x), plan.hop
    # The segments whose lags the computed entries read.
    first, stop = plan.n_segments, 0
    for group, (e0, e1) in spans.items():
        if e1 <= e0:
            continue
        acc[group][e0:e1] = 0
        offsets = [offset for _, offset in specs[group].pairs]
        first = min(first, (e0 + min(offsets)) // hop)
        stop = max(stop, (e1 - 1 + max(offsets)) // hop + 1)
    stop = min(stop, plan.n_segments)
    if first >= stop:
        return
    track_lens = {key: n_samples - bank.length(key) + 1 for key in requested}
    any_squared = any(spec.squared for spec in specs.values())
    all_squared = all(spec.squared for spec in specs.values())
    real = next(iter(acc.values())).dtype
    for pos0, corr in _overlap_save(
        x, bank, rows, plan, telemetry, range(first, stop), dtype
    ):
        n_seg, n_rows, hop = corr.shape
        # Row-major magnitudes: row i's lags pos0.. are one contiguous run.
        magnitude = np.empty((n_rows, n_seg, hop), dtype=real)
        np.abs(corr, out=magnitude.transpose(1, 0, 2))
        magnitude = magnitude.reshape(n_rows, n_seg * hop)
        power = None
        if any_squared:
            # In place unless some spec still needs plain magnitudes.
            power = np.square(magnitude, out=magnitude if all_squared else None)
        for group, spec in specs.items():
            e0, e1 = spans[group]
            if e1 <= e0:
                continue
            source = power if spec.squared else magnitude
            target = acc[group]
            for key, offset in spec.pairs:
                track_len = track_lens[key]
                if pos0 >= track_len:
                    continue
                t_end = min(pos0 + n_seg * hop, track_len)
                # Track positions [pos0, t_end) feed accumulator
                # positions [pos0 - offset, t_end - offset), clipped
                # to the entries being computed.
                a0 = max(pos0 - offset, e0)
                a1 = min(t_end - offset, e1)
                if a1 <= a0:
                    continue
                target[a0:a1] += source[
                    local[key], a0 + offset - pos0 : a1 + offset - pos0
                ]


def correlate_accumulate(
    x: npt.ArrayLike,
    bank: TemplateBank,
    specs: Mapping[Hashable, TrackSpec],
    telemetry: Telemetry = NULL,
    previous: Mapping[Hashable, np.ndarray] | None = None,
    changed: tuple[int, int] | None = None,
) -> dict[Hashable, np.ndarray]:
    """Fused correlate-and-combine for non-coherent blocked detection.

    The classify/segmented-correlation pattern —
    ``acc[n] += f(|corr_offset[n + offset]|)`` over every coherent
    sub-block — normally materializes one full complex track per
    template (tens of megabytes per classify pass on a wide bank) only
    to reduce each to a magnitude immediately. This entry point performs
    the reduction *inside* the overlap-save chunk loop: each distinct
    row's correlation chunk is reduced to magnitudes once as it leaves
    the inverse FFT, and every ``(key, offset)`` pair folds its row's
    magnitudes into its group's real accumulator (``|conj(g) c| = |c|``,
    so an alias needs nothing of its own). The complex tracks are never
    stored.

    Re-scoring an edited signal: pass the accumulators of the call over
    the signal before the edit as ``previous`` and the edited samples as
    ``changed``. Only entries fed by an overlap-save segment whose input
    window meets ``changed`` are recomputed; the rest are copied. The
    call keeps the full call's plan and batch alignment, so every
    recomputed entry folds the same lags in the same order and the
    result equals a full call over ``x`` bit for bit.

    Args:
        x: Received complex samples.
        bank: Prebuilt template bank (shared forward FFT across every
            spec, exactly like :func:`correlate_many`).
        specs: Accumulator definitions keyed by caller-chosen group key.
        telemetry: Metrics sink; spans ``fastcorr.correlate`` and counts
            forward/inverse FFTs.
        previous: This function's result for the same ``bank`` and
            ``specs`` over a signal of ``x``'s length that differs from
            ``x`` only inside ``changed``.
        changed: ``(lo, hi)``: the sample range where ``x`` may differ
            from the signal ``previous`` was computed over. Given
            together with ``previous``; an empty range copies it.

    Returns:
        ``{group_key: float64 accumulator}`` — un-normalized; callers
        apply their own ``sqrt``/norm scaling.

    Raises:
        ConfigurationError: if a template is longer than ``x``, if only
            one of ``previous`` and ``changed`` is given, or if
            ``previous`` does not match ``specs``.
    """
    x = ensure_iq(x)
    if (previous is None) != (changed is None):
        raise ConfigurationError("previous and changed go together")
    if previous is None:
        acc = {group: np.zeros(spec.out_len) for group, spec in specs.items()}
    else:
        if set(previous) != set(specs) or any(
            previous[group].shape != (spec.out_len,)
            for group, spec in specs.items()
        ):
            raise ConfigurationError("previous accumulators do not match specs")
        acc = {group: np.array(previous[group], dtype=float) for group in specs}
    requested = _pair_keys(specs.values())
    if not requested:
        return acc
    _, lengths = _requested(bank, requested, len(x))
    plan = spectrum_plan(len(x), max(lengths), min(lengths))
    spans = _recompute_spans(specs, plan, changed)
    _fold(x, bank, specs, plan, spans, acc, telemetry)
    return acc


def accumulate_at(
    x: npt.ArrayLike,
    bank: TemplateBank,
    spec: TrackSpec,
    lags: npt.ArrayLike,
) -> np.ndarray:
    """Entries ``lags`` of ``correlate_accumulate(x, bank, {0: spec})[0]``,
    bit for bit, computed from the segments they read only.

    ``lags`` (ascending, within ``spec.out_len``) split into runs whose
    segments do not meet; each run is one range of the full call's
    segment loop, with its plan and batch alignment, so every entry
    folds the same lags of the same FFTs in the same order
    (:func:`_fold`). A run also computes the entries between its lags;
    only the requested ones are returned.

    Raises:
        ConfigurationError: if a template is longer than ``x``.
    """
    x = ensure_iq(x)
    lags = np.asarray(lags, dtype=np.intp)
    keys = _pair_keys([spec])
    if not keys or not lags.size:
        return np.zeros(lags.size)
    _, lengths = _requested(bank, keys, len(x))
    plan = spectrum_plan(len(x), max(lengths), min(lengths))
    offsets = [offset for _, offset in spec.pairs]
    low = (lags + min(offsets)) // plan.hop
    high = (lags + max(offsets)) // plan.hop
    # A new run starts where a lag's first segment lies past the
    # previous lag's last segment plus one.
    breaks = np.flatnonzero(low[1:] > high[:-1] + 1) + 1
    acc = {0: np.zeros(spec.out_len)}
    for run in np.split(lags, breaks):
        spans = {0: (int(run[0]), int(run[-1]) + 1)}
        _fold(x, bank, {0: spec}, plan, spans, acc, NULL)
    return acc[0][lags]


def _row_bounds(
    x: np.ndarray, bank: TemplateBank, rows: list[int], plan: SpectrumPlan
) -> np.ndarray:
    """:func:`peak_magnitudes`' error bound for each of ``rows`` on
    ``plan``: ``kappa * u * log2(N) * max|T_row| * max_s
    ||x_s||_2``, or infinite where ``||x_s||_2`` or ``max|T_row|
    ||x_s||_2`` (largest segment) is below :data:`SCREEN_MIN_SCALE`,
    NaN or infinite.

    The segment energies are summed in float64 from the complex128
    input, as sums of squares over its float64 view: the segments that
    lie wholly inside ``x`` in one vectorized pass over one strided
    view, and the few that run past its end (zero padded) one by one.
    """
    nfft, hop = plan.nfft, plan.hop
    n_samples = len(x)
    whole = (n_samples - nfft) // hop + 1 if n_samples >= nfft else 0
    whole = min(whole, plan.n_segments)
    # einsum, not vecdot/vdot: those call a threaded BLAS, whose idle
    # threads then spin on another core after every call.
    pairs = np.ascontiguousarray(x).view(np.float64)
    # np.maximum, not max(): a NaN energy must survive every segment.
    energy = np.float64(0)
    if whole:
        windows = np.lib.stride_tricks.sliding_window_view(pairs, 2 * nfft)
        segments = windows[: 2 * whole * hop : 2 * hop]
        energy = np.einsum("ij,ij->i", segments, segments).max()
    for seg in range(whole, plan.n_segments):
        tail = pairs[2 * seg * hop :]
        energy = np.maximum(energy, np.einsum("i,i->", tail, tail))
    scale = np.sqrt(energy)
    spectrum_peak = np.abs(bank.spectra(nfft, np.complex64)[rows]).max(axis=1)
    reach = spectrum_peak.astype(np.float64) * scale
    # NaN fails the comparison and so gets the infinite bound too.
    sound = np.minimum(scale, reach) >= SCREEN_MIN_SCALE
    bound = SCREEN_KAPPA * 2.0**-24 * log2(nfft) * reach
    return np.where(sound, bound, np.inf)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helper:
    """The screen's helper thread (see :func:`peak_magnitudes`): one
    worker, started on first use and kept until the process forks."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.executor: ThreadPoolExecutor | None = None

    def submit(self, func: Callable[..., Any], *args: object) -> Future:
        """``func(*args)`` on the helper thread; the future's
        ``result()`` returns its value or re-raises its exception."""
        with self.lock:
            if self.executor is None:
                self.executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="fastcorr-screen"
                )
            future = self.executor.submit(func, *args)
        return future

    def stop(self) -> None:
        """Before a fork: end the helper once its run is done, and hold
        the lock until the fork is over. ``fork`` copies only the
        forking thread, so the child must not find a helper it does not
        have, nor a lock held by a part that a screen on another thread
        still had going on it; with no helper left, Python 3.12 and
        later also do not warn of a fork with live threads. The next
        screen on either side starts a new helper."""
        self.lock.acquire()
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None


_helper = _Helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_helper.stop,
        after_in_parent=_helper.lock.release,
        after_in_child=_helper.lock.release,
    )


def _screen_run(
    x: np.ndarray,
    bank: TemplateBank,
    rows: list[int],
    track_lens: list[int],
    plan: SpectrumPlan,
    segments: range,
) -> np.ndarray:
    """Each of ``rows``' largest complex64 magnitude (float32) over the
    lags a run of ``plan``'s segments holds of its valid track, of
    length ``track_lens[i]``; NaN once any of them is NaN.

    Runs only the engine's own internals and records no telemetry, so
    :func:`peak_magnitudes` may run it on either of its threads.
    """
    hop = plan.hop
    # np.maximum, not max(): a NaN peak must survive every batch.
    peak = np.zeros(len(rows), dtype=np.float32)
    for pos0, corr in _overlap_save(
        x, bank, rows, plan, NULL, segments, np.complex64, SCREEN_LINES
    ):
        n_seg, n_rows, _ = corr.shape
        magnitude = np.empty((n_rows, n_seg, hop), dtype=np.float32)
        np.abs(corr, out=magnitude.transpose(1, 0, 2))
        magnitude = magnitude.reshape(n_rows, n_seg * hop)
        for i, track_len in enumerate(track_lens):
            if pos0 < track_len:
                peak[i] = np.maximum(peak[i], magnitude[i, : track_len - pos0].max())
    return peak


def _screen_parts(
    x: np.ndarray,
    bank: TemplateBank,
    rows: list[int],
    track_lens: list[int],
    plan: SpectrumPlan,
    parts: list[range | None],
    claims: Iterator[int],
    done: list[np.ndarray | None],
) -> None:
    """Take the next part from ``claims`` until none is left, storing
    its result in ``done``: :func:`_screen_run` of a run of segments,
    or :func:`_row_bounds` for ``None``. Both of
    :func:`peak_magnitudes`' threads run this on one shared ``claims``
    (``next`` on an :class:`itertools.count` is atomic under the GIL),
    so each part is computed once, by whichever thread takes it."""
    for i in claims:
        if i >= len(parts):
            return
        part = parts[i]
        done[i] = (
            _row_bounds(x, bank, rows, plan) if part is None
            else _screen_run(x, bank, rows, track_lens, plan, part)
        )


def peak_magnitudes(
    x: npt.ArrayLike,
    bank: TemplateBank,
    keys: Iterable[Hashable] | None = None,
    telemetry: Telemetry = NULL,
) -> dict[Hashable, tuple[float, float]]:
    """Each template's peak correlation magnitude in single precision,
    with a proven bound on its error.

    For every requested key returns ``(peak, bound)``. ``peak`` is the
    largest magnitude of the key's valid-mode track (the track
    :func:`correlate_many` returns), computed by the same overlap-save
    loop on the same segments (:func:`spectrum_plan`) in complex64,
    transformed in whole groups of :data:`SCREEN_LINES` lines; the zero
    lines that fill the last group add no lag to any track and no
    energy to the bound.

    Two threads share the work. It is cut into parts, one per group of
    segments and one for the bounds; the calling thread and the
    process's helper thread (one, kept until the process forks) each
    take the next part until none is left (:func:`_screen_parts`), and
    the parts' peaks are combined with ``np.maximum``. Every line is
    transformed in the same group as in one run over all segments, and
    the maximum is exact, so ``(peak, bound)`` is the same bits however
    the parts fall. A helper that starts late, or gets little CPU, takes
    fewer parts: the caller waits at most for the one part the helper
    is on, and an error in the helper's part is raised to the caller
    once that wait is over. A buffer of one group and a process that
    may run on one CPU only take the one run on the calling thread.
    Telemetry is recorded here, once per call: one
    ``fastcorr.correlate`` span and the ``fastcorr.forward_ffts`` and
    ``fastcorr.inverse_ffts`` counts of all the lines transformed.

    Every entry of the exact track, and of the complex128 track
    :func:`correlate_many` computes, lies within ``bound`` of its
    single-precision value. So no complex128 magnitude exceeds ``peak +
    bound``: a caller that finds that sum below a threshold knows,
    without computing one, that no complex128 score reaches it.

    The bound. For a segment ``x_s`` of ``N = 2**t`` samples, with
    ``u = 2**-24`` (float32's unit roundoff) and ``T`` the template's
    spectrum at length ``N``::

        |c32[n] - c[n]| <= kappa * u * log2(N) * max|T| * ||x_s||_2

    ``bound`` is this with the largest segment norm of the buffer, the
    segment energies summed in float64 from the complex128 input and
    ``max|T|`` read from the complex64 spectra. Derivation, to first
    order in ``u`` and in 2-norms over one segment (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., Thm. 24.2 for the
    FFT, Lemma 3.5 for the complex product): a radix-2 FFT of length
    ``2**t`` has relative error at most ``t * eta``, with ``eta = mu +
    gamma_4 * (sqrt(2) + mu)``, about ``6.66 u`` for twiddles rounded
    once (``mu = u``), and Parseval (``||F x||_2 = sqrt(N) ||x||_2``)
    carries every term to the output at the scale ``max|T| ||x_s||_2``.
    Rounding ``x`` to complex64 adds ``u``, the forward FFT ``6.66 t
    u``, rounding ``T`` ``u``, the complex product ``2 sqrt(2) u``, the
    inverse FFT ``6.66 t u``, its ``1/N`` scaling ``u`` and the float32
    magnitude ``u``: ``(13.3 t + 6.8) u`` in all, below ``14 t u`` from
    ``t = 10`` and below ``16 t u`` from ``t = 3``, the shortest
    segment a plan has; one lag's error is at most the segment's
    2-norm. ``kappa = 16`` (:data:`SCREEN_KAPPA`) leaves the rest for
    the second-order terms and for the complex128 track's own error:
    the same form at ``u = 2**-53`` with its own ``kappa'``, on the same
    segments and with the same ``max|T|`` up to its complex64 rounding,
    so below ``2**-28 * kappa' / kappa`` of this bound, inside the room
    for any ``kappa'`` up to a million times ``kappa``. scipy's
    pocketfft runs a power of two as radix-4 passes
    (and one radix-2 pass); a radix-4 pass rounds each element no more
    often than the two radix-2 stages it replaces. The largest error
    measured, over the perfbench gateway buffers of ``sparse_air`` and
    ``collision_dense`` (seed 3, 0.0023 on their 32,768-point
    segments) and the golden detection scene, is ``0.0114 u log2(N)
    max|T| ||x_s||_2``: ``kappa`` is 1,400 times the error seen.

    The rest is exact or infinite. A non-finite or overflowing
    complex64 value leaves ``peak`` infinite or NaN, which no
    ``peak + bound < threshold`` test passes. Below
    :data:`SCREEN_MIN_SCALE` (for ``||x_s||_2`` or ``max|T| ||x_s||_2``,
    largest segment) ``bound`` is infinite: there, gradual underflow's
    absolute errors are not covered by the relative bound.

    Raises:
        ConfigurationError: if a requested template is longer than
            ``x``.
    """
    x = ensure_iq(x)
    n_samples = len(x)
    requested, lengths = _requested(bank, keys, n_samples)
    if not requested:
        return {}
    rows, local = _distinct_rows(bank, requested)
    plan = spectrum_plan(n_samples, max(lengths), min(lengths))
    # One track length per distinct row: a row is shared by templates
    # of one length only.
    track_lens = [0] * len(rows)
    for key, length in zip(requested, lengths, strict=True):
        track_lens[local[key]] = n_samples - length + 1
    groups = -(-plan.n_segments // SCREEN_LINES)
    args = (x, bank, rows, track_lens, plan)
    with telemetry.span("fastcorr.correlate"):
        if groups < 2 or _usable_cpus() < 2:
            peak = _screen_run(*args, range(plan.n_segments))
            bounds = _row_bounds(x, bank, rows, plan)
        else:
            # One part per group, the short bounds part last.
            parts: list[range | None] = [
                range(g * SCREEN_LINES, min((g + 1) * SCREEN_LINES, plan.n_segments))
                for g in range(groups)
            ]
            parts.append(None)
            claims = itertools.count()
            done: list[np.ndarray | None] = [None] * len(parts)
            helper = _helper.submit(_screen_parts, *args, parts, claims, done)
            try:
                _screen_parts(*args, parts, claims, done)
            finally:
                # Every part is taken: wait only for the one the helper
                # may still be on; a helper that has not started takes
                # none.
                error = None if helper.cancel() else helper.exception()
            if error is not None:
                raise error
            bounds = done.pop()
            peak = np.maximum.reduce(done)
    telemetry.count("fastcorr.forward_ffts", groups * SCREEN_LINES)
    telemetry.count("fastcorr.inverse_ffts", groups * SCREEN_LINES * len(rows))
    return {
        key: (float(peak[local[key]]), float(bounds[local[key]]))
        for key in requested
    }


def screen_accumulate(
    x: npt.ArrayLike,
    bank: TemplateBank,
    spec: TrackSpec,
) -> tuple[np.ndarray, float]:
    """Single-precision counterpart of :func:`correlate_accumulate` for
    one non-squared accumulator, with a proven bound on its error.

    Returns ``(approx, bound)``: ``approx`` (float64 holding float32
    values) is the accumulator folded from complex64 magnitudes on
    :func:`correlate_accumulate`'s own segments, and every entry of
    the complex128 accumulator ``correlate_accumulate(x, bank, {0:
    spec})[0]`` lies within ``bound`` of it. So ``approx + bound`` and
    ``approx - bound`` bound the exact accumulator entry by entry, and
    still do after one more float64 rounding each (an addition, or a
    division by a positive norm: rounding is monotone).

    The bound, over ``P`` pairs with ``A = max(approx)``::

        bound = (sum_p E_row(p) + P * 2**-24 * A) * (1 + 2**-20)

    ``E_row`` is :func:`peak_magnitudes`' per-row bound, which holds for
    every lag of the row's complex64 magnitude against the exact and the
    complex128 one, so the exact sums of the pairs' terms differ by at
    most ``sum_p E_row(p)``. Summing ``P`` non-negative float32 terms
    errs by at most ``gamma_{P-1}`` times their sum (Higham, Lemma 3.1,
    eq. 4.4), below ``P * 2**-24 * A`` while ``P * 2**-24 <= 2**-10``.
    The float64 sum of the complex128 path errs by ``gamma_{P-1}`` in
    double, and the roundings of the bound itself and of ``approx +-
    bound`` by ``2**-53`` of a value below ``A + bound`` each: all of
    that is far below ``2**-20`` of the float32 term, which the last
    factor adds.

    A NaN, infinite or overflowing value makes ``A`` and so ``bound``
    NaN or infinite, and so does a scale below
    :data:`SCREEN_MIN_SCALE`: a caller that finds ``bound`` not finite
    has nothing proven and takes the exact path.

    Raises:
        ConfigurationError: for a squared spec, or a template longer
            than ``x``.
    """
    if spec.squared:
        raise ConfigurationError("the screen folds magnitudes, not squares")
    x = ensure_iq(x)
    n_samples = len(x)
    keys = _pair_keys([spec])
    approx = np.zeros(spec.out_len, dtype=np.float32)
    if not keys:
        return approx.astype(np.float64), 0.0
    _, lengths = _requested(bank, keys, n_samples)
    rows, local = _distinct_rows(bank, keys)
    plan = spectrum_plan(n_samples, max(lengths), min(lengths))
    n_pairs = len(spec.pairs)
    if n_pairs * 2.0**-24 > 2.0**-10:
        return approx.astype(np.float64), float("inf")
    _fold(
        x, bank, {0: spec}, plan, {0: (0, spec.out_len)}, {0: approx},
        NULL, np.complex64,
    )
    approx = approx.astype(np.float64)
    bounds = _row_bounds(x, bank, rows, plan)
    per_pair = sum(float(bounds[local[key]]) for key, _ in spec.pairs)
    top = float(approx.max(initial=0.0))
    bound = (per_pair + n_pairs * 2.0**-24 * top) * (1 + 2.0**-20)
    return approx, bound
