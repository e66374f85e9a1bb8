"""Common modem interface for all implemented IoT PHY layers.

Every technology in the registry (Table 1 of the paper) implements
:class:`Modem`: it can modulate a payload into complex baseband I/Q at its
native sample rate, demodulate a segment back into a frame, and expose the
waveform of its preamble (+ sync word) — the ingredient the gateway's
universal preamble is built from.

The modulation *class* (:class:`ModulationClass`) is what the cloud's
Algorithm 1 dispatches on: FSK/PSK collisions are handled by
KILL-FREQUENCY, CSS by KILL-CSS and DSSS by KILL-CODES.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModulationClass", "FrameResult", "Modem"]


class ModulationClass(enum.Enum):
    """Broad modulation family, used to pick a kill filter."""

    FSK = "fsk"
    PSK = "psk"
    CSS = "css"
    DSSS = "dsss"
    OFDM = "ofdm"


@dataclass
class FrameResult:
    """Outcome of one demodulation attempt.

    Attributes:
        payload: Recovered payload bytes (may be garbage if ``crc_ok`` is
            False).
        crc_ok: Whether the frame integrity check passed.
        start: Sample index (within the given segment) where the frame's
            preamble was found.
        sync_score: Normalized correlation score of the sync search.
        corrected_errors: FEC-corrected bit errors, when the PHY has FEC.
        extra: PHY-specific diagnostics.
    """

    payload: bytes
    crc_ok: bool
    start: int
    sync_score: float = 0.0
    corrected_errors: int = 0
    extra: dict[str, object] = field(default_factory=dict)


class Modem(abc.ABC):
    """Abstract modulator/demodulator for one radio technology."""

    #: Registry name, e.g. ``"lora"``.
    name: str = "modem"
    #: Modulation family for kill-filter dispatch.
    modulation: ModulationClass = ModulationClass.FSK

    # -- static characteristics -------------------------------------------

    @property
    @abc.abstractmethod
    def sample_rate(self) -> float:
        """Native complex sample rate of :meth:`modulate` output."""

    @property
    @abc.abstractmethod
    def bandwidth(self) -> float:
        """Occupied bandwidth of the emitted signal in Hz."""

    @property
    @abc.abstractmethod
    def bit_rate(self) -> float:
        """Raw on-air bit rate in bit/s."""

    @property
    def max_payload(self) -> int:
        """Largest payload accepted by :meth:`modulate`, in bytes."""
        return 127

    @property
    def sync_block(self) -> int | None:
        """Coherent block length for CFO-tolerant sync correlation.

        ``None`` means fully-coherent correlation is safe (the sync
        reference is short relative to plausible carrier offsets).
        """
        return None

    @property
    def sync_decimation(self) -> int:
        """Stride at which sync correlation may safely run.

        Spread-spectrum signals can be synchronized at (near) their chip
        rate instead of the oversampled capture rate, saving a factor of
        ~stride^2 in correlation cost. The residual timing quantization
        must be absorbed by the modem's own fine synchronization.
        """
        return 1

    # -- waveforms ---------------------------------------------------------

    @abc.abstractmethod
    def preamble_waveform(self) -> np.ndarray:
        """I/Q waveform of the technology's preamble (and sync, if fixed).

        This is the template the gateway correlates with; it must be the
        exact waveform :meth:`modulate` emits at the start of every frame.
        """

    @abc.abstractmethod
    def modulate(self, payload: bytes) -> np.ndarray:
        """Modulate ``payload`` into a complete frame of unit-RMS I/Q."""

    @abc.abstractmethod
    def demodulate(self, iq: np.ndarray) -> FrameResult:
        """Find and decode one frame inside ``iq`` (native sample rate).

        Raises:
            FrameSyncError: when no preamble is found in the segment.
            DecodeError: when demodulation cannot produce a frame.
        """

    # -- derived helpers ----------------------------------------------------

    def sync_reference(self) -> np.ndarray:
        """The modem's sync template, generated once and cached read-only.

        Demodulators correlate every segment against the same reference
        (``sync_waveform()`` where the PHY defines one, the preamble
        otherwise), and regenerating a multi-thousand-sample waveform
        per :meth:`demodulate` call is pure waste. The cache is safe
        because the reference is a pure function of the modem's fixed
        parameters; it is returned non-writeable so no caller can
        corrupt it for the next frame.
        """
        cached = getattr(self, "_sync_reference_cache", None)
        if cached is None:
            waveform = (
                self.sync_waveform()
                if hasattr(self, "sync_waveform")
                else self.preamble_waveform()
            )
            cached = np.array(waveform, dtype=np.complex128)
            cached.flags.writeable = False
            self._sync_reference_cache = cached
        return cached

    def frame_samples(self, payload_len: int) -> int:
        """Number of native samples a frame with this payload occupies."""
        return len(self.modulate(bytes(payload_len)))

    def frame_airtime(self, payload_len: int) -> float:
        """Frame duration in seconds for a payload of ``payload_len``."""
        return self.frame_samples(payload_len) / self.sample_rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"mod={self.modulation.value} fs={self.sample_rate:g} "
            f"bw={self.bandwidth:g} rate={self.bit_rate:g}>"
        )
