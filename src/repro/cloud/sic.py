"""Successive interference cancellation (SIC).

The strawman the paper compares against (and a building block GalioT
itself uses after a kill filter): decode the strongest transmission,
remodulate it, fit its complex channel gain by least squares, subtract,
and repeat. SIC works when colliding powers are well separated and
fails when they are comparable — which is precisely the regime the kill
filters rescue.

Reconstruction fits the gain per block (not once per frame) so slow
phase drift between transmitter and receiver clocks does not cap the
cancellation depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import iq_contract
from ..dsp.fastcorr import TemplateBank, TrackSpec, correlate_accumulate
from ..dsp.filters import blocked_ls_subtract
from ..dsp.resample import NativeRateCache, to_rate
from ..errors import ReproError
from ..phy.base import FrameResult, Modem
from ..telemetry import NULL, Telemetry

__all__ = ["ReconstructionReport", "reconstruct_and_subtract", "try_decode"]

#: Cap on the alignment-search half-width in segment-rate samples. The
#: half-width scales with ``sample_rate_hz / modem.sample_rate`` (a
#: native-rate timing bias spans that many segment samples), but a
#: pathological rate ratio must not turn the local search into a
#: full-segment scan.
MAX_ALIGN_HALF_WIDTH = 512

#: Block length (seconds) of the per-block least-squares gain fits that
#: subtract a reconstructed waveform (SIC here, and ``KillCodes``).
GAIN_BLOCK_S = 0.25e-3


@dataclass(frozen=True)
class ReconstructionReport:
    """Accounting for one cancellation step.

    Attributes:
        cancelled_db: Power removed from the overlap region, in dB
            (larger is deeper cancellation).
    """

    cancelled_db: float


@iq_contract("samples")
def try_decode(
    modem: Modem,
    samples: np.ndarray,
    sample_rate_hz: float,
    rates: NativeRateCache | None = None,
    telemetry: Telemetry = NULL,
    sync_retries: int = 0,
) -> FrameResult | None:
    """Attempt a plain decode of ``modem`` on ``samples`` at rate ``sample_rate_hz``.

    Returns ``None`` instead of raising when sync or decoding fails or
    the checksum is bad — Algorithm 1 treats all three identically.
    A modem that leaks a bare exception (``ValueError``/``IndexError``
    on a heavily-killed residual, say) is also a miss, not a crash: the
    serial :class:`~repro.cloud.pipeline.CloudService` has no
    retry/quarantine net under it, so a single brittle demodulator must
    not take down the whole segment. Such escapes are counted as
    ``cloud.decode_errors`` in ``telemetry``.

    ``rates``, when given, must wrap ``samples`` and supplies the
    memoized native-rate view instead of resampling again.

    ``sync_retries`` is the anti-spoofing knob: a demodulator locks onto
    its best sync match, so a *valid preamble with a corrupt body* — the
    spoofer's signature — shadows every later frame of the same
    technology in the buffer and one forged preamble silences a real
    one. With retries enabled, each CRC failure nulls the failed
    frame's sync region (in a private copy; cached native-rate views
    are shared) and re-syncs, up to ``sync_retries`` times. Zero keeps
    the historical single-lock behavior bit-identical.
    """
    frame = None
    for _ in range(sync_retries + 1):
        if frame is not None:
            # A retry: null the failed lock's sync region and re-sync.
            lo = max(int(frame.start), 0)
            if frame.crc_ok or lo >= len(native):
                break
            telemetry.count("cloud.sync_retries")
            native = np.array(native, copy=True)
            native[lo : lo + len(modem.sync_reference())] = 0
        try:
            if frame is None:
                native = (
                    rates.view(modem.sample_rate) if rates is not None
                    else to_rate(samples, sample_rate_hz, modem.sample_rate)
                )
            frame = modem.demodulate(native)
        except ReproError:
            return None
        except Exception:
            telemetry.count("cloud.decode_errors")
            return None
    return frame if frame.crc_ok else None


def _align_start(
    samples: np.ndarray,
    probe: np.ndarray,
    start: int,
    half: int,
    block: int,
) -> int:
    """Best-scoring frame start within ``start +- half`` segment samples.

    Candidates are scored by non-coherent block correlation of ``probe``
    against the segment (full blocks plus the remainder: a probe shorter
    than one block would otherwise score 0.0 for every candidate and the
    search would silently snap to the window edge, smearing short frames
    instead of cancelling them). Ties keep the earliest candidate.

    All candidates are scored by one
    :func:`~repro.dsp.fastcorr.correlate_accumulate` call over the
    probe's blocks: entry ``cand - lo + pos`` of block ``pos``'s
    correlation track *is* that candidate's block inner product, and
    the block magnitudes accumulate inside the engine's chunk loop.
    """
    offsets = list(range(0, len(probe), block))
    lo = max(start - half, 0)
    hi = min(start + half, len(samples) - len(probe))
    if hi < lo or not offsets:
        return start
    bank = TemplateBank({pos: probe[pos : pos + block] for pos in offsets})
    spec = TrackSpec(
        pairs=tuple((pos, pos) for pos in offsets),
        out_len=hi - lo + 1,
        squared=False,
    )
    metric = correlate_accumulate(samples[lo : hi + len(probe)], bank, {0: spec})[0]
    return lo + int(np.argmax(metric))


@iq_contract("samples")
def reconstruct_and_subtract(
    samples: np.ndarray,
    sample_rate_hz: float,
    modem: Modem,
    frame: FrameResult,
) -> tuple[np.ndarray, ReconstructionReport]:
    """Subtract a decoded frame's waveform from ``samples``.

    Args:
        samples: The working segment at rate ``sample_rate_hz``.
        sample_rate_hz: Segment sample rate.
        modem: Technology of the decoded frame.
        frame: The decode result (``payload`` + native-rate ``start``).

    Returns:
        ``(residual, report)``. The subtraction never amplifies: blocks
        where the LS fit is degenerate are left unchanged.
    """
    wave = to_rate(modem.modulate(frame.payload), modem.sample_rate, sample_rate_hz)
    start = int(round(frame.start * sample_rate_hz / modem.sample_rate))
    # Local alignment search: a carrier offset biases chirp correlation
    # peaks by several samples (time-frequency coupling), and a
    # misaligned subtraction smears instead of cancelling. Score small
    # offsets with non-coherent block correlation and keep the best.
    probe = wave[: min(len(wave), int(8e-3 * sample_rate_hz))]
    block = max(int(GAIN_BLOCK_S * sample_rate_hz), 128)
    # The timing bias is native to the *modem's* rate (a chirp peak
    # lands a few native samples early under CFO), so the search window
    # must cover that many native samples expressed at the segment
    # rate; a fixed +-16 is blind past a 16x rate ratio and the
    # subtraction smears instead of cancelling.
    ratio = sample_rate_hz / float(modem.sample_rate)
    half = int(min(max(16, round(16 * ratio)), MAX_ALIGN_HALF_WIDTH))
    start = _align_start(samples, probe, start, half, block)
    stop = min(start + len(wave), len(samples))
    if stop <= start:
        return samples.copy(), ReconstructionReport(cancelled_db=0.0)
    ref = wave[: stop - start]
    region = samples[start:stop]
    before = float(np.sum(np.abs(region) ** 2))
    residual = samples.copy()
    residual[start:stop] = blocked_ls_subtract(ref, region, block)
    after = float(np.sum(np.abs(residual[start:stop]) ** 2))
    cancelled_db = (
        10 * np.log10(before / after) if after > 0 and before > 0 else 0.0
    )
    return residual, ReconstructionReport(cancelled_db=float(cancelled_db))
