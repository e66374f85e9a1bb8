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

Each iteration of the loop makes the plain attempt on the strongest
candidate, then (kill filters on, plain attempt failed) one attempt per
victim until one finds a frame, and then decides the candidate's fate
in one place: no frame fails it (classic SIC stops instead), a frame
already decoded drops it, and any other frame is recorded and
cancelled.

Each piece of work runs once per residual. A decode attempt never sees
the candidate's start, and a kill filter's output depends only on the
victim and the residual, so while the residual is unchanged
:class:`_Residual` keeps every attempt per (technology, victim), the
plain attempt under victim ``None``, and the kill output per victim. A
cancellation replaces the residual and with it both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..contracts import ensure_iq, iq_contract
from ..dsp.resample import NativeRateCache, to_rate
from ..errors import ConfigurationError, checked_count, checked_positive
from ..phy.base import FrameResult, Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult
from .classify import ClassifiedSignal, ScoreState, SegmentClassifier
from .kill_filters import kill_filter_for
from .sic import reconstruct_and_subtract, try_decode

__all__ = ["CloudDecodeReport", "CloudDecoder"]

#: Two frames or candidates of one technology whose starts lie closer
#: than this many native samples are the same transmission.
SAME_FRAME_SAMPLES = 256


def _has_frame(
    signals: list[DecodeResult] | list[ClassifiedSignal], technology: str, start: int
) -> bool:
    """Whether ``signals`` hold ``technology``'s frame at ``start``."""
    return any(
        s.technology == technology and abs(s.start - start) < SAME_FRAME_SAMPLES
        for s in signals
    )


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

    ``rates`` holds its native-rate views; ``attempts`` the decode
    attempt per (technology, victim), with victim ``None`` for the plain
    attempt; ``killed`` the kill-filter output per victim (``None`` when
    the victim's modulation has no filter), shared by every target
    technology. A cancellation builds a new residual, which drops all
    of them.
    """

    def __init__(self, samples: np.ndarray, sample_rate_hz: float) -> None:
        self.rates = NativeRateCache(ensure_iq(samples), sample_rate_hz)
        self.attempts: dict[tuple[str, ClassifiedSignal | None], FrameResult | None] = {}
        self.killed: dict[ClassifiedSignal, np.ndarray | None] = {}

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
        self.modems = {m.name: m for m in modems}
        self.sample_rate_hz = checked_positive("sample_rate_hz", sample_rate_hz)
        self.use_kill_filters = use_kill_filters
        self.max_iterations = checked_count("max_iterations", max_iterations)
        self.sync_retries = checked_count("sync_retries", sync_retries, minimum=0)
        self.classifier = SegmentClassifier(
            modems, sample_rate_hz, telemetry=telemetry
        )
        self.telemetry = telemetry

    # -- internals --------------------------------------------------------

    def _attempt(
        self,
        report: CloudDecodeReport,
        residual: _Residual,
        modem: Modem,
        victim: ClassifiedSignal | None = None,
    ) -> FrameResult | None:
        """Decode ``modem`` on the residual, after killing ``victim`` if
        one is given (memoized)."""
        key = (modem.name, victim)
        if key in residual.attempts:
            self.telemetry.count("cloud.memo_hits")
            return residual.attempts[key]
        if victim is None:
            samples, rates = residual.samples, residual.rates
        else:
            samples, rates = self._kill(report, residual, victim), None
        frame = None
        if samples is not None:
            frame = try_decode(
                modem, samples, self.sample_rate_hz, rates=rates,
                telemetry=self.telemetry, sync_retries=self.sync_retries,
            )
        residual.attempts[key] = frame
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

    def _victims(
        self,
        report: CloudDecodeReport,
        modem: Modem,
        others: list[ClassifiedSignal],
    ) -> list[ClassifiedSignal]:
        """Kill-filter victims for a ``modem`` target, in trial order.

        Victims are of a *different* modulation class. Cancellation
        residue of already-decoded frames comes first: its position is
        known exactly, and the kill filters remove it without any
        channel estimate. The other open candidates and residuals
        follow, weakest first.
        """
        decoded = [
            ClassifiedSignal(
                technology=r.technology, start=r.start, score=0.0, amplitude=0j
            )
            for r in report.results
        ]
        undecoded = sorted(
            (c for c in others
             if not _has_frame(report.results, c.technology, c.start)),
            key=lambda c: c.power,
        )
        return [
            v for v in decoded + undecoded
            if self.modems[v.technology].modulation is not modem.modulation
        ]

    def _record(
        self,
        report: CloudDecodeReport,
        residual: _Residual,
        candidate: ClassifiedSignal,
        frame,
        method: str,
    ) -> _Residual:
        """Store a success, cancel the frame and return the new residual.

        The frame is subtracted from the *unfiltered* residual, so a
        killed victim is still there for the next iteration.
        """
        modem = self.modems[candidate.technology]
        samples, recon = reconstruct_and_subtract(
            residual.samples, self.sample_rate_hz, modem, frame
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
            if _has_frame(report.results, cand.technology, cand.start):
                residuals.append(cand)
            elif not _has_frame(failed, cand.technology, cand.start):
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
        for _ in range(self.max_iterations):
            if not open_candidates:
                break
            open_candidates.sort(key=lambda c: c.power, reverse=True)
            strongest = open_candidates[0]
            modem = self.modems[strongest.technology]
            method = "sic"
            frame = self._attempt(report, residual, modem)
            if frame is None and self.use_kill_filters:
                others = open_candidates[1:] + residuals
                for victim in self._victims(report, modem, others):
                    frame = self._attempt(report, residual, modem, victim)
                    if frame is not None:
                        method = kill_filter_for(
                            self.modems[victim.technology]
                        ).name
                        break
            if frame is None:
                if not self.use_kill_filters:
                    # Classic SIC: the strongest signal could not be
                    # decoded, so nothing can be cancelled — stop.
                    break
                # Give up on the strongest; move to the next (last line
                # of Algorithm 1).
                failed.append(strongest)
                open_candidates.pop(0)
            elif _has_frame(report.results, strongest.technology, frame.start):
                # Already decoded this frame (duplicate classification,
                # or a kill filter exposed it again): drop the candidate.
                open_candidates.pop(0)
            else:
                residual = self._record(
                    report, residual, strongest, frame, method
                )
                # Algorithm 1 line 6: cancel and *repeat* — the residual
                # may now reveal transmissions the collision masked.
                open_candidates, residuals = self._open_candidates(
                    residual, scores, report, failed
                )
        return report
