"""Frame-level helpers shared by the concrete modems.

The demodulators synchronize in the *sample* domain: the known
preamble(+sync) waveform is slid over the segment with normalized
correlation and the strongest peak above a threshold marks the frame
start. Every modem searches through one :func:`sample_sync`, which runs
the screened :func:`~repro.dsp.correlation.segmented_peak` on the
overlap-save engine the gateway's detectors and the cloud's classifier
use.
"""

from __future__ import annotations

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import segmented_peak
from ..errors import ConfigurationError, FrameSyncError, checked_count

__all__ = ["checked_sync_threshold", "sample_sync"]


def checked_sync_threshold(value: float) -> float:
    """``value`` as a modem's sync threshold: a normalized correlation
    in [0, 1].

    Raises:
        ConfigurationError: for a value outside [0, 1], NaN included
            (a NaN or negative threshold would sync onto noise, one
            above 1 would never sync).
    """
    threshold = float(value)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(f"sync_threshold must be in [0, 1], got {value}")
    return threshold


@iq_contract("iq")
def sample_sync(
    iq: np.ndarray,
    reference: np.ndarray,
    threshold: float,
    block: int | None = None,
    stride: int = 1,
) -> tuple[int, float]:
    """Locate ``reference`` inside ``iq``.

    Args:
        iq: Segment to search.
        reference: Known waveform (preamble + sync word).
        threshold: Minimum normalized correlation in [0, 1].
        block: Coherent block length in samples for CFO-tolerant sync
            (``None`` = fully coherent, one block). A transmitter
            crystal offset rotates the carrier across a long reference
            and destroys coherent correlation; per-block correlation
            with non-coherent combining keeps the peak at the cost of a
            little processing gain.
        stride: Sample stride of the search. Above 1, ``iq[::stride]``
            is searched for ``reference[::stride]`` with a block of
            ``block // stride`` (at least 4), which cuts the FFT work by
            about ``stride**2``, and the start is scaled back to the
            full rate: callers must tolerate a timing quantization of
            ±stride/2 samples (FSK demodulators sample mid-bit with
            tens of samples per bit; LoRa refines around it).

    The search returns exactly ``(argmax, max)`` of
    :func:`~repro.dsp.correlation.segmented_correlation` (a coherent
    reference is one block) without computing its whole complex128
    track (:func:`~repro.dsp.correlation.segmented_peak`): a complex64
    pass with a proven error bound scores every lag, and complex128 runs
    only on the overlap-save segments that feed lags whose upper bound
    reaches the best lower bound. When even the best upper bound is
    below ``threshold``, it raises with no complex128 work, and the
    message reports that bound.

    Returns:
        ``(start_index, score)`` of the strongest correlation peak.

    Raises:
        ConfigurationError: for a threshold outside [0, 1] (NaN
            included) or a stride that is not an integer >= 1.
        FrameSyncError: when the segment is shorter than the reference or
            no peak reaches the threshold.
    """
    threshold = checked_sync_threshold(threshold)
    checked_count("stride", stride)
    if stride > 1:
        iq, reference = iq[::stride], reference[::stride]
        if block is not None:
            block = max(block // stride, 4)
    if len(reference) > len(iq):
        raise FrameSyncError("segment shorter than the sync reference")
    block = len(reference) if block is None else min(block, len(reference))
    best, score = segmented_peak(iq, reference, block, threshold)
    if best is None:
        raise FrameSyncError(
            f"no sync: best correlation at most {score:.3f} "
            f"below threshold {threshold:.3f}"
        )
    if score < threshold:
        raise FrameSyncError(
            f"no sync: best correlation {score:.3f} below threshold {threshold:.3f}"
        )
    return best * stride, score
