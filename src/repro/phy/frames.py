"""Frame-level helpers shared by the concrete modems.

The demodulators synchronize in the *sample* domain: the known
preamble(+sync) waveform is slid over the segment with normalized
correlation and the strongest peak above a threshold marks the frame
start. This is the same primitive the gateway's detectors use, so a
segment that was detected is (by construction) one the demodulator can
lock onto.
"""

from __future__ import annotations

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import normalized_correlation, segmented_correlation
from ..errors import FrameSyncError

__all__ = ["sample_sync"]


@iq_contract("iq")
def sample_sync(
    iq: np.ndarray,
    reference: np.ndarray,
    threshold: float,
    block: int | None = None,
) -> tuple[int, float]:
    """Locate ``reference`` inside ``iq``.

    Args:
        iq: Segment to search.
        reference: Known waveform (preamble + sync word).
        threshold: Minimum normalized correlation in [0, 1].
        block: Coherent block length in samples for CFO-tolerant sync
            (``None`` = fully coherent). A transmitter crystal offset
            rotates the carrier across a long reference and destroys
            coherent correlation; per-block correlation with
            non-coherent combining keeps the peak at the cost of a
            little processing gain.

    Returns:
        ``(start_index, score)`` of the strongest correlation peak.

    Raises:
        FrameSyncError: when the segment is shorter than the reference or
            no peak reaches the threshold.
    """
    if len(reference) > len(iq):
        raise FrameSyncError("segment shorter than the sync reference")
    if block is not None and block < len(reference):
        scores = segmented_correlation(iq, reference, block)
    else:
        scores = normalized_correlation(iq, reference)
    best = int(np.argmax(scores))
    score = float(scores[best])
    if score < threshold:
        raise FrameSyncError(
            f"no sync: best correlation {score:.3f} below threshold {threshold:.3f}"
        )
    return best, score


@iq_contract("iq")
def sample_sync_strided(
    iq: np.ndarray,
    reference: np.ndarray,
    threshold: float,
    block: int,
    stride: int,
) -> tuple[int, float]:
    """CFO-tolerant sync at a reduced sample stride.

    Correlates ``iq[::stride]`` against ``reference[::stride]`` (cutting
    the FFT work by ~stride^2) and scales the peak index back to the
    full rate. The timing quantization is ±stride/2 samples; callers
    must tolerate that (FSK demodulators sample mid-bit with tens of
    samples per bit, so a few samples of skew are harmless).

    Raises:
        FrameSyncError: as :func:`sample_sync`.
    """
    if stride <= 1:
        return sample_sync(iq, reference, threshold, block=block)
    start, score = sample_sync(
        iq[::stride],
        reference[::stride],
        threshold,
        block=max(block // stride, 4),
    )
    return start * stride, score
