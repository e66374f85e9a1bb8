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

__all__ = [
    "FrameWaveformMemo",
    "ReconstructionReport",
    "reconstruct_and_subtract",
    "try_decode",
]

#: Cap on the alignment-search half-width in segment-rate samples. The
#: half-width scales with ``sample_rate_hz / modem.sample_rate`` (a
#: native-rate timing bias spans that many segment samples), but a
#: pathological rate ratio must not turn the local search into a
#: full-segment scan.
MAX_ALIGN_HALF_WIDTH = 512

#: Block length (seconds) of the per-block least-squares gain fits that
#: subtract a reconstructed waveform (SIC here, and ``KillCodes``).
GAIN_BLOCK_S = 0.25e-3


class FrameWaveformMemo:
    """Per-segment cache of remodulated + resampled frame waveforms.

    Algorithm 1 reconstructs the *same* decoded frame more than once per
    segment: a kill-filter retry that re-decodes the victim, or repeated
    SIC passes over a multi-collision, each pay ``modulate()`` plus
    ``to_rate()`` for an identical ``(technology, payload, rate)``
    triple. The memo returns a read-only waveform so every consumer can
    share one buffer safely. Scope it to one segment: payload bytes are
    arbitrary, so an unbounded process-wide cache would grow without
    limit.
    """

    def __init__(self) -> None:
        self._waves: dict[tuple[str, bytes, float], np.ndarray] = {}

    def wave(
        self, modem: Modem, payload: bytes, sample_rate_hz: float
    ) -> np.ndarray:
        """The frame waveform of ``payload`` resampled to ``sample_rate_hz``."""
        key = (modem.name, bytes(payload), float(sample_rate_hz))
        wave = self._waves.get(key)
        if wave is None:
            wave = to_rate(
                modem.modulate(payload), modem.sample_rate, sample_rate_hz
            )
            wave.flags.writeable = False
            self._waves[key] = wave
        return wave


@dataclass(frozen=True)
class ReconstructionReport:
    """Accounting for one cancellation step.

    Attributes:
        gain: Fitted complex gain of the first block.
        cancelled_db: Power removed from the overlap region, in dB
            (larger is deeper cancellation).
    """

    gain: complex
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
    try:
        if rates is not None:
            native = rates.view(modem.sample_rate)
        else:
            native = to_rate(samples, sample_rate_hz, modem.sample_rate)
        frame = modem.demodulate(native)
    except ReproError:
        return None
    except Exception:
        telemetry.count("cloud.decode_errors")
        return None
    for _ in range(sync_retries):
        if frame.crc_ok:
            break
        lo = max(int(frame.start), 0)
        if lo >= len(native):
            break
        telemetry.count("cloud.sync_retries")
        native = np.array(native, copy=True)
        native[lo : lo + len(modem.sync_reference())] = 0
        try:
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
    memo: FrameWaveformMemo | None = None,
) -> tuple[np.ndarray, ReconstructionReport]:
    """Subtract a decoded frame's waveform from ``samples``.

    Args:
        samples: The working segment at rate ``sample_rate_hz``.
        sample_rate_hz: Segment sample rate.
        modem: Technology of the decoded frame.
        frame: The decode result (``payload`` + native-rate ``start``).
        memo: Optional per-segment :class:`FrameWaveformMemo`; repeated
            reconstructions of the same frame then skip the
            remodulate + resample step.

    Returns:
        ``(residual, report)``. The subtraction never amplifies: blocks
        where the LS fit is degenerate are left unchanged.
    """
    if memo is not None:
        wave = memo.wave(modem, frame.payload, sample_rate_hz)
    else:
        wave = to_rate(
            modem.modulate(frame.payload), modem.sample_rate, sample_rate_hz
        )
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
        return samples.copy(), ReconstructionReport(gain=0j, cancelled_db=0.0)
    ref = wave[: stop - start]
    region = samples[start:stop]
    before = float(np.sum(np.abs(region) ** 2))
    residual = samples.copy()
    residual[start:stop], first_gain = blocked_ls_subtract(ref, region, block)
    after = float(np.sum(np.abs(residual[start:stop]) ** 2))
    cancelled_db = (
        10 * np.log10(before / after) if after > 0 and before > 0 else 0.0
    )
    return residual, ReconstructionReport(
        gain=first_gain, cancelled_db=float(cancelled_db)
    )
