"""Jamming detection from noise-floor and band-occupancy anomalies.

A jammed gateway's first symptom is never a decoder error — it is the
spectrum itself going wrong: the robust noise floor rises (wideband and
pulsed jammers), an abnormal fraction of the band lights up (swept
jammers), or one narrow region stays hot far longer than any frame's
airtime (CW tones). :class:`JammingDetector` watches exactly those three
statistics over fixed analysis blocks and emits
:class:`OccupancyDetector`-style events (:class:`JammingEvent`) when an
anomaly *persists* — the persistence debounce is what separates a jammer
from a legitimate packet, which is loud in the same ways but only for a
frame's airtime.

The detector is streaming by construction: blocks are cut on absolute
sample positions and a partial tail is carried between :meth:`feed`
calls, so feeding a capture in one call or in arbitrary chunks yields
bit-identical events. That lets :class:`repro.gateway.GalioTGateway`
and :class:`repro.gateway.streaming.StreamingGateway` share one detector
instance at their common front-end choke point.

Besides events, the detector exposes :meth:`pressure_at` — a [0, 1]
jamming-severity signal on the capture time axis that the gateway folds
into :class:`~repro.gateway.resilience.DegradationLadder` decisions, so
jamming-induced backpressure degrades shipping instead of silently
drowning the backhaul in garbage segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import iq_contract
from ..errors import checked_positive
from ..telemetry import NULL, Telemetry

__all__ = ["JammingEvent", "JammingDetector"]

#: Analysis block length in seconds.
BLOCK_S = 0.005
#: Noise-floor rise (dB over baseline) that flags a block.
FLOOR_RISE_DB = 2.0
#: Hot-bin fraction that flags a block.
OCCUPANCY_RATIO = 0.35
#: Single-bin rise (dB over the baseline floor) that flags a block.
PEAK_DB = 18.0
#: Per-bin threshold over the baseline floor for the occupancy statistic.
HOT_BIN_DB = 8.0
#: Consecutive anomalous blocks required to open an event.
MIN_BLOCKS = 3
#: Consecutive clean blocks required to close it.
RECOVER_BLOCKS = 4
#: Anomalous blocks a run must accumulate before
#: :meth:`JammingDetector.rise_at` reports a jam-attributed rise.
#: Deliberately stiffer than :data:`MIN_BLOCKS`: with gap tolerance, two
#: legitimate frames bracketing a short burst can chain into a run of
#: 3-4 and must never raise the detection bar against their own
#: preambles, while a real jammer accumulates runs of dozens within its
#: first few duty cycles.
GATE_MIN_BLOCKS = 6
#: Blocks used to train the initial baseline.
BASELINE_BLOCKS = 8
#: Look-back of :meth:`JammingDetector.pressure_at`, in seconds.
PRESSURE_WINDOW_S = 0.05


@dataclass(frozen=True)
class JammingEvent:
    """One sustained spectrum anomaly attributed to interference.

    Attributes:
        start_s: First anomalous block's start on the capture time axis.
        end_s: End of the last anomalous block.
        floor_rise_db: Peak robust-noise-floor rise over baseline.
        occupancy: Peak fraction of FFT bins hot above the baseline
            floor during the event.
        score: Peak per-block severity in [0, 1] (what
            :meth:`JammingDetector.pressure_at` reports while the event
            is live).
        n_blocks: Number of anomalous analysis blocks in the event.
    """

    start_s: float
    end_s: float
    floor_rise_db: float
    occupancy: float
    score: float
    n_blocks: int


class JammingDetector:
    """Streaming noise-floor / band-occupancy anomaly tracker.

    Per analysis block the detector computes a periodogram and derives:

    * ``floor``: the 25th-percentile bin power — a noise-floor estimate
      robust to packets (which occupy bins, not the lower quartile);
    * ``occupancy``: the fraction of bins more than :data:`HOT_BIN_DB`
      above the *baseline* floor;
    * ``peak``: the hottest bin over the baseline floor (catches a CW
      tone, which moves neither the floor nor the occupancy).

    The baseline floor is learned from the first :data:`BASELINE_BLOCKS`
    blocks and then slowly tracks clean blocks only, so a long jam burst
    cannot absorb itself into the baseline. A block is *anomalous* when
    any statistic crosses its threshold; an event opens once
    :data:`MIN_BLOCKS` anomalous blocks accumulate in a run and closes
    after :data:`RECOVER_BLOCKS` consecutive clean ones. Short clean
    gaps (fewer than :data:`RECOVER_BLOCKS`) do not reset a run — a
    duty-cycled pulse jammer is off most of the time and must still
    accumulate into one event — while a lone loud packet's single
    anomalous block dies with the next :data:`RECOVER_BLOCKS` of clean
    air.

    Args:
        sample_rate_hz: Capture sample rate.
        telemetry: Metrics sink (``attack.*`` counters).

    Raises:
        ConfigurationError: if ``sample_rate_hz`` is not a positive
            finite number.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        telemetry: Telemetry | None = None,
    ):
        self.sample_rate_hz = checked_positive("sample_rate_hz", sample_rate_hz)
        self.block = max(int(round(BLOCK_S * sample_rate_hz)), 8)
        self.telemetry = telemetry if telemetry is not None else NULL
        self.reset()

    def reset(self) -> None:
        """Forget baseline, carried samples and open events."""
        self._tail = np.zeros(0, dtype=complex)
        self._block_index = 0  # absolute index of the next block
        self._baseline: float | None = None
        self._train: list[float] = []
        self._run = 0  # consecutive anomalous blocks
        self._clean = 0  # consecutive clean blocks since the run
        self._open: list[tuple[int, float, float, float]] = []
        self._closed: list[JammingEvent] = []
        self._severity: list[float] = []  # per-block severity timeline
        self._gate_rise: list[float] = []  # per-block floor rise, jam-attributed

    # -- streaming ingest -------------------------------------------------

    @iq_contract("samples")
    def feed(self, samples: np.ndarray) -> None:
        """Ingest samples; the events they close wait for
        :meth:`drain_events`.

        Block boundaries are absolute (a partial tail is carried to the
        next call), so any chunking of the same stream produces the same
        events.
        """
        data = np.concatenate([self._tail, np.asarray(samples)])
        n_blocks = len(data) // self.block
        for b in range(n_blocks):
            self._ingest_block(data[b * self.block : (b + 1) * self.block])
        self._tail = data[n_blocks * self.block :]

    def flush(self) -> None:
        """Close any open event at end of stream (tail samples shorter
        than one block are dropped, as a monolithic pass drops them)."""
        if self._run >= MIN_BLOCKS:
            self._close_event()
        self._run = 0
        self._clean = 0
        self._open = []

    def drain_events(self) -> list[JammingEvent]:
        """Return and clear all closed events accumulated so far: the
        one way events leave the detector."""
        events, self._closed = self._closed, []
        return events

    # -- queries ----------------------------------------------------------

    def pressure_at(self, at_time: float) -> float:
        """Jamming pressure in [0, 1] at ``at_time``.

        The maximum per-block severity over ``[at_time -``
        :data:`PRESSURE_WINDOW_S` ``, at_time]``. Only already-ingested blocks contribute, so the
        answer is identical whether the stream arrived monolithically or
        chunk by chunk (the signal is causal either way).
        """
        if not self._severity:
            return 0.0
        block_s = self.block / self.sample_rate_hz
        hi = min(int(at_time / block_s) + 1, len(self._severity))
        lo = max(int((at_time - PRESSURE_WINDOW_S) / block_s), 0)
        if hi <= lo:
            return 0.0
        return max(self._severity[lo:hi])

    def rise_at(self, at_time: float) -> float:
        """Jam-attributed noise-floor rise (dB) of the block at ``at_time``.

        Non-zero only once an anomaly run has persisted past
        :data:`GATE_MIN_BLOCKS` — a lone loud packet never raises it, so a
        detection-threshold gate keyed on this signal cannot suppress
        the packet's own preamble. Causal: only ingested blocks answer,
        so monolithic and chunked feeding agree.
        """
        if at_time < 0 or not self._gate_rise:
            return 0.0
        block = int(at_time * self.sample_rate_hz / self.block)
        if block >= len(self._gate_rise):
            return 0.0
        return self._gate_rise[block]

    # -- internals --------------------------------------------------------

    def _ingest_block(self, block: np.ndarray) -> None:
        psd = np.abs(np.fft.fft(np.asarray(block, dtype=complex))) ** 2 / len(
            block
        )
        floor = float(np.percentile(psd, 25))
        index = self._block_index
        self._block_index += 1
        if self._baseline is None:
            self._train.append(floor)
            self._severity.append(0.0)
            self._gate_rise.append(0.0)
            if len(self._train) >= BASELINE_BLOCKS:
                self._baseline = float(np.median(self._train))
            return
        baseline = max(self._baseline, 1e-30)
        rise_db = 10.0 * np.log10(max(floor, 1e-30) / baseline)
        hot = psd > baseline * 10.0 ** (HOT_BIN_DB / 10.0)
        occupancy = float(np.mean(hot))
        peak_db = 10.0 * np.log10(max(float(psd.max()), 1e-30) / baseline)
        anomalous = (
            rise_db >= FLOOR_RISE_DB
            or occupancy >= OCCUPANCY_RATIO
            or peak_db >= PEAK_DB
        )
        if anomalous:
            # Calibrated against DegradationLadder's 0.6 escalation
            # threshold: moderate jamming (a tone, a partial-duty pulse)
            # must not push shipping off the FULL level by itself —
            # frames under it still decode, and degrading them would be
            # a self-inflicted outage. Only a floor rise approaching
            # drowning (>= ~7 dB) crosses the ladder's bar.
            severity = max(
                0.25,
                min(1.0, rise_db / 12.0),
                min(occupancy, 0.55),
            )
        else:
            severity = 0.0
            # Clean block: let the baseline track slow drift.
            self._baseline = 0.98 * self._baseline + 0.02 * floor
        self._severity.append(severity)
        # The gate timeline only reports a floor rise once the anomaly
        # run has persisted (>= GATE_MIN_BLOCKS including this block) —
        # a lone loud packet's block, or a frame/burst/frame chain held
        # together by gap tolerance, must never raise the detection bar
        # against a legitimate preamble.
        persisted = anomalous and (self._run + 1) >= GATE_MIN_BLOCKS
        self._gate_rise.append(max(rise_db, 0.0) if persisted else 0.0)
        self._advance_state(index, anomalous, rise_db, occupancy, severity)

    def _advance_state(
        self,
        index: int,
        anomalous: bool,
        rise_db: float,
        occupancy: float,
        severity: float,
    ) -> None:
        if anomalous:
            self._clean = 0
            self._run += 1
            self._open.append((index, rise_db, occupancy, severity))
            if self._run == MIN_BLOCKS:
                self.telemetry.count("attack.jamming_events")
            return
        if self._run == 0:
            return
        # Gap tolerance: a duty-cycled jammer is off most of the time, so
        # clean blocks only end a run once RECOVER_BLOCKS arrive in a row.
        self._clean += 1
        if self._clean >= RECOVER_BLOCKS:
            if self._run >= MIN_BLOCKS:
                self._close_event()
            self._run = 0
            self._clean = 0
            self._open = []

    def _close_event(self) -> None:
        block_s = self.block / self.sample_rate_hz
        first = self._open[0][0]
        last = self._open[-1][0]
        self._closed.append(
            JammingEvent(
                start_s=first * block_s,
                end_s=(last + 1) * block_s,
                floor_rise_db=max(r for _, r, _, _ in self._open),
                occupancy=max(o for _, _, o, _ in self._open),
                score=max(s for _, _, _, s in self._open),
                n_blocks=len(self._open),
            )
        )
