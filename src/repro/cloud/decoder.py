"""The cloud collision decoder — Algorithm 1 of the paper.

Pseudo-code being implemented (paper, Sec. 5)::

    procedure CLOUDDECODE(S)
        if S = S_i then Decode(S_i)                      # no collision
        else pick S_i | P(S_i) > P(S_j)
            if Decode(S_i) = True then
                cancel S_i from S and repeat             # SIC
            else find S_j with least power orthogonal to S_i
                if S_j in FSK or PSK: KILL-FREQUENCY(S_j), retry decode
                elif S_j in CSS: KILL-CSS(S_j), retry decode
                elif S_j in orthogonal codes: KILL-CODE(S_j), retry decode
                else find next least S_j
        if Decode(S) = False:
            S_i <- next highest powered signal, repeat

"Orthogonal" S_j means a different modulation class from S_i, so
removing it cannot take S_i with it. Two flavours are exposed:

* :class:`CloudDecoder` with ``use_kill_filters=True`` — full GalioT.
* ``use_kill_filters=False`` — the SIC-only strawman baseline used in
  Figure 3(c): a classic SIC receiver that decodes strictly in
  decreasing power order and stops at the first failure (you cannot
  cancel what you cannot decode).

Each piece of work runs once per residual. A decode attempt never sees
the candidate's start, and a kill filter's output depends only on the
victim and the residual, so while the residual is unchanged
:class:`_Residual` keeps the plain attempt per technology, the kill
output per victim and the filtered attempt per (technology, victim).
A cancellation replaces the residual and with it all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..contracts import ensure_iq, iq_contract
from ..dsp.resample import NativeRateCache, to_rate
from ..errors import ConfigurationError
from ..phy.base import FrameResult, Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult
from .classify import ClassifiedSignal, ScoreState, SegmentClassifier
from .kill_filters import kill_filter_for
from .sic import FrameWaveformMemo, reconstruct_and_subtract, try_decode

__all__ = ["CloudDecodeReport", "CloudDecoder"]


@dataclass
class CloudDecodeReport:
    """Output of one CLOUDDECODE run.

    Attributes:
        results: Successfully decoded frames, in decode order.
        candidates: The classifier's initial view of the segment.
        kill_invocations: Kill filters that actually ran: one per
            (victim, residual) pair the decoder filtered. A kill output
            reused from the residual's memo does not count again.
        sic_cancellations: How many reconstruct-and-subtract steps ran.
    """

    results: list[DecodeResult] = field(default_factory=list)
    candidates: list[ClassifiedSignal] = field(default_factory=list)
    kill_invocations: int = 0
    sic_cancellations: int = 0


class _Residual:
    """One working residual and the work already done on it.

    ``rates`` holds its native-rate views; ``plain`` the plain decode
    attempt per technology; ``killed`` the kill-filter output per victim
    (``None`` when the victim's modulation has no filter), shared by
    every target technology; ``filtered`` the decode attempt per
    (technology, victim) on that output. A cancellation builds a new
    residual, which drops all of them.
    """

    def __init__(self, samples: np.ndarray, sample_rate_hz: float) -> None:
        self.rates = NativeRateCache(ensure_iq(samples), sample_rate_hz)
        self.plain: dict[str, FrameResult | None] = {}
        self.killed: dict[ClassifiedSignal, np.ndarray | None] = {}
        self.filtered: dict[tuple[str, ClassifiedSignal], FrameResult | None] = {}

    @property
    def samples(self) -> np.ndarray:
        return self.rates.samples


class CloudDecoder:
    """Algorithm-1 joint decoder over a set of registered technologies.

    Args:
        modems: Registered technologies.
        sample_rate_hz: Sample rate of incoming segments.
        use_kill_filters: True runs full GalioT: kill filters, and on a
            failed decode the next strongest candidate. False runs the
            paper's classic-SIC baseline, which stops at the first
            failure.
        max_iterations: Safety bound on the decode loop.
        sync_retries: Per-decode re-sync attempts after a CRC failure
            (see :func:`~repro.cloud.sic.try_decode`). Zero — the
            default, bit-identical to prior releases — lets one forged
            preamble shadow a real same-technology frame in the same
            segment; the hardened receive path runs with 2.
        telemetry: Metrics sink (the shared no-op by default).
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        use_kill_filters: bool = True,
        max_iterations: int = 12,
        sync_retries: int = 0,
        telemetry: Telemetry = NULL,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        if sync_retries < 0:
            raise ConfigurationError("sync_retries must be >= 0")
        # Written so NaN fails too: every comparison with NaN is false.
        if not (0 < sample_rate_hz < math.inf):
            raise ConfigurationError("sample_rate_hz must be positive and finite")
        if not (max_iterations >= 1):
            raise ConfigurationError("max_iterations must be >= 1")
        self.modems = {m.name: m for m in modems}
        self.sample_rate_hz = float(sample_rate_hz)
        self.use_kill_filters = use_kill_filters
        self.max_iterations = int(max_iterations)
        self.sync_retries = int(sync_retries)
        self.classifier = SegmentClassifier(
            modems, sample_rate_hz, telemetry=telemetry
        )
        self.telemetry = telemetry

    @classmethod
    def galiot(cls, modems: list[Modem], sample_rate_hz: float, **kwargs) -> CloudDecoder:
        """Full GalioT decoder (kill filters + power-order fallback)."""
        return cls(modems, sample_rate_hz, use_kill_filters=True, **kwargs)

    @classmethod
    def sic_baseline(
        cls, modems: list[Modem], sample_rate_hz: float, **kwargs
    ) -> CloudDecoder:
        """The paper's strawman: classic SIC, stop at the first failure."""
        return cls(modems, sample_rate_hz, use_kill_filters=False, **kwargs)

    # -- internals --------------------------------------------------------

    def _attempt(self, residual: _Residual, modem: Modem) -> FrameResult | None:
        """The plain decode attempt of ``modem`` on the residual (memoized)."""
        if modem.name in residual.plain:
            self.telemetry.count("cloud.memo_hits")
            return residual.plain[modem.name]
        frame = try_decode(
            modem, residual.samples, self.sample_rate_hz, rates=residual.rates,
            telemetry=self.telemetry, sync_retries=self.sync_retries,
        )
        residual.plain[modem.name] = frame
        return frame

    def _kill(
        self,
        report: CloudDecodeReport,
        residual: _Residual,
        victim: ClassifiedSignal,
    ) -> np.ndarray | None:
        """Apply the victim's kill filter at its native rate (memoized).

        Reads the working buffer through the shared native-rate view
        cache (every kill filter copies before mutating, so the cached
        view survives for the next victim).
        """
        if victim in residual.killed:
            self.telemetry.count("cloud.memo_hits")
            return residual.killed[victim]
        modem = self.modems[victim.technology]
        try:
            kill = kill_filter_for(modem)
        except ConfigurationError:
            filtered = None
        else:
            native = residual.rates.view(modem.sample_rate)
            filtered = to_rate(
                kill.apply(native, modem.sample_rate, victim),
                modem.sample_rate,
                self.sample_rate_hz,
            )
            report.kill_invocations += 1
        residual.killed[victim] = filtered
        return filtered

    def _filtered_attempt(
        self,
        report: CloudDecodeReport,
        residual: _Residual,
        modem: Modem,
        victim: ClassifiedSignal,
    ) -> FrameResult | None:
        """Decode ``modem`` after killing ``victim`` (memoized)."""
        key = (modem.name, victim)
        if key in residual.filtered:
            self.telemetry.count("cloud.memo_hits")
            return residual.filtered[key]
        filtered = self._kill(report, residual, victim)
        frame = None
        if filtered is not None:
            frame = try_decode(
                modem, filtered, self.sample_rate_hz,
                telemetry=self.telemetry, sync_retries=self.sync_retries,
            )
        residual.filtered[key] = frame
        return frame

    def _record(
        self,
        report: CloudDecodeReport,
        residual: _Residual,
        candidate: ClassifiedSignal,
        frame,
        method: str,
        memo: FrameWaveformMemo | None = None,
    ) -> _Residual:
        """Store a success, cancel the frame and return the new residual."""
        modem = self.modems[candidate.technology]
        samples, recon = reconstruct_and_subtract(
            residual.samples, self.sample_rate_hz, modem, frame, memo=memo
        )
        report.sic_cancellations += 1
        report.results.append(
            DecodeResult(
                technology=candidate.technology,
                payload=frame.payload,
                ok=True,
                method=method,
                power_db=float(10 * np.log10(max(candidate.power, 1e-30))),
                start=frame.start,
            )
        )
        return _Residual(samples, self.sample_rate_hz)

    @staticmethod
    def _same_frame(a: DecodeResult, frame_start: int, technology: str) -> bool:
        return a.technology == technology and abs(a.start - frame_start) < 256

    def _open_candidates(
        self,
        residual: _Residual,
        scores: ScoreState,
        report: CloudDecodeReport,
        failed: list,
    ) -> tuple[list[ClassifiedSignal], list[ClassifiedSignal]]:
        """Re-classify the residual signal.

        Returns:
            ``(targets, residuals)``: fresh decode targets, and leftover
            energy of already-decoded frames. Residuals are not decoded
            again, but they remain valid *victims* for kill filters —
            imperfect SIC cancellation (CFO, clock drift) leaves residue
            that an estimation-free kill filter can still remove.
        """
        fresh = self.classifier.classify(
            residual.samples, rates=residual.rates, state=scores
        )
        targets: list[ClassifiedSignal] = []
        residuals: list[ClassifiedSignal] = []
        for cand in fresh:
            if any(
                self._same_frame(r, cand.start, cand.technology)
                for r in report.results
            ):
                residuals.append(cand)
                continue
            if any(
                cand.technology == f.technology and abs(cand.start - f.start) < 256
                for f in failed
            ):
                continue
            targets.append(cand)
        return targets, residuals

    # -- the algorithm -------------------------------------------------------

    @iq_contract("samples")
    def decode(self, samples: np.ndarray) -> CloudDecodeReport:
        """Run CLOUDDECODE over one segment."""
        with self.telemetry.span("cloud.decode"):
            report = self._decode(samples)
        self.telemetry.count("cloud.segments")
        self.telemetry.count("cloud.frames", len(report.results))
        self.telemetry.count("cloud.kill_invocations", report.kill_invocations)
        self.telemetry.count("cloud.sic_cancellations", report.sic_cancellations)
        return report

    def _decode(self, samples: np.ndarray) -> CloudDecodeReport:
        report = CloudDecodeReport()
        # One waveform memo per segment: repeated reconstructions of the
        # same decoded frame (kill-filter retries, deep SIC stacks) skip
        # the remodulate + resample step.
        memo = FrameWaveformMemo()
        # One score state per segment: each re-classification re-scores
        # only what the last cancellation changed.
        scores = ScoreState()
        # One residual per working buffer: every classify, decode and
        # kill attempt on it shares the same resampled views and memo
        # (rebuilt only when a cancellation replaces the buffer).
        residual = _Residual(
            np.asarray(samples, dtype=complex).copy(), self.sample_rate_hz
        )
        report.candidates = self.classifier.classify(
            residual.samples, rates=residual.rates, state=scores
        )
        failed: list[ClassifiedSignal] = []
        open_candidates = list(report.candidates)
        residuals: list[ClassifiedSignal] = []
        iterations = 0
        while open_candidates and iterations < self.max_iterations:
            iterations += 1
            open_candidates.sort(key=lambda c: c.power, reverse=True)
            strongest = open_candidates[0]
            modem = self.modems[strongest.technology]
            frame = self._attempt(residual, modem)
            if frame is not None and not any(
                self._same_frame(r, frame.start, strongest.technology)
                for r in report.results
            ):
                residual = self._record(
                    report, residual, strongest, frame, method="sic",
                    memo=memo,
                )
                # Algorithm 1 line 6: cancel and *repeat* — the residual
                # may now reveal transmissions the collision masked.
                open_candidates, residuals = self._open_candidates(
                    residual, scores, report, failed
                )
                continue
            if frame is not None:
                # Already decoded this frame (duplicate classification).
                open_candidates.pop(0)
                continue
            recovered = False
            if self.use_kill_filters:
                # Victims of a *different* modulation class, weakest first.
                # Cancellation residue of already-decoded frames is always
                # a victim: its position is known exactly, and the kill
                # filters remove it without any channel estimate.
                decoded_victims = [
                    ClassifiedSignal(
                        technology=r.technology,
                        start=r.start,
                        score=0.0,
                        amplitude=0j,
                    )
                    for r in report.results
                ]
                victims = decoded_victims + sorted(
                    (
                        c
                        for c in open_candidates[1:] + residuals
                        if not any(
                            self._same_frame(r, c.start, c.technology)
                            for r in report.results
                        )
                    ),
                    key=lambda c: c.power,
                )
                victims = [
                    v
                    for v in victims
                    if self.modems[v.technology].modulation
                    is not modem.modulation
                ]
                for victim in victims:
                    frame = self._filtered_attempt(
                        report, residual, modem, victim
                    )
                    if frame is not None and any(
                        self._same_frame(r, frame.start, strongest.technology)
                        for r in report.results
                    ):
                        # The filter exposed a frame we already decoded —
                        # drop this candidate instead of recording a dupe.
                        frame = None
                        open_candidates.pop(0)
                        recovered = True
                        break
                    if frame is not None:
                        # Subtract the recovered frame from the *unfiltered*
                        # signal so the victim is still there for SIC.
                        kill_name = kill_filter_for(
                            self.modems[victim.technology]
                        ).name
                        residual = self._record(
                            report, residual, strongest, frame,
                            method=kill_name, memo=memo,
                        )
                        open_candidates, residuals = self._open_candidates(
                            residual, scores, report, failed
                        )
                        recovered = True
                        break
            if not recovered:
                if not self.use_kill_filters:
                    # Classic SIC: the strongest signal could not be
                    # decoded, so nothing can be cancelled — stop.
                    break
                # Give up on the strongest; move to the next (last line
                # of Algorithm 1).
                failed.append(strongest)
                open_candidates.pop(0)
        return report
