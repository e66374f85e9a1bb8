"""Chunked streaming front for the GalioT gateway: its one receive path.

The paper's gateway runs *continuously* on a Raspberry-Pi-class device,
fed an endless sample stream. :class:`StreamingGateway` drives the
Figure-2 pipeline over an unbounded iterator of capture chunks and, for
the correlation detectors with a frozen threshold, produces *exactly*
the events, segments and shipped bits of one whole-capture pass:

* **Overlap carry.** The matched-filter score at index ``n`` depends on
  samples ``x[n : n + L]`` (``L`` = template length), so each chunk is
  scored together with the last ``L - 1`` samples of history. With
  exactly that much carry the per-chunk score tracks *partition* the
  monolithic track — every score index is computed exactly once, by
  exactly one chunk (per-technology ``scored_to`` bookkeeping drops the
  short strip the preamble bank's shorter templates re-score). A
  detector whose scores also look back (the energy detector's centred
  average) carries more history, and a score whose window the buffer
  end cut short waits for the next chunk, or for the stream's end.
* **Incremental greedy suppression.**
  :func:`~repro.dsp.correlation.find_peaks_above` accepts candidates in
  descending score order and is *not* decomposable per chunk: a locally
  kept peak may suppress a neighbour and then itself lose to a peak in
  the next chunk, resurrecting the neighbour. Detectors therefore hand
  the streaming layer their **candidates** before suppression
  (:meth:`~repro.gateway.detection.CorrelationDetector.stream_candidates`:
  raw threshold crossings; the energy detector's kept rising edges),
  and the global greedy is replayed over a pending window every chunk
  with the same :func:`~repro.dsp.correlation.greedy_suppress` the
  monolithic peak finder runs, already-emitted peaks acting as
  pre-accepted suppressors. A candidate is emitted (or discarded) only
  once its accept/reject status is provably stable against *any*
  future candidate: instability starts within ``min_distance`` of the
  scored frontier and propagates backwards only through strictly
  priority-decreasing neighbour chains, so a fixpoint marking finalizes
  everything the future can no longer touch.
* **In-flight extractor state.** Ship windows (``2x`` the largest frame
  around each event) routinely span chunk boundaries and can still
  *merge* with the next event's window. Each stream feeds its own
  :class:`~repro.gateway.extractor.ExtractorStream` (the extractor's
  one window rule) every admitted event and the emission watermark; a
  segment is cut once no future event can merge into it and all of its
  samples have arrived, so a packet bisected by a chunk boundary is
  shipped once, in one piece.

Each processed chunk yields an incremental
:class:`~repro.gateway.gateway.GatewayReport`. Its ``shipped`` list is
the one way a segment leaves the stream for the cloud: every segment
the chunk delivered over the backhaul, in delivery order, older spilled
segments a resilient backhaul delivered late included. A caller hands
each to a cloud service (``CloudService.process_segment`` or
``ParallelCloudService.submit``) as its chunk's report arrives, so
decoding can run while the stream is still arriving.
:meth:`GatewayReport.absorb <repro.gateway.gateway.GatewayReport.absorb>`
merges the reports into totals identical to one
:meth:`~repro.gateway.gateway.GalioTGateway.process` call over the
concatenated stream, which is itself this stream over one chunk: the
gateway has one receive path. Two caveats: per-capture CFAR thresholds
are data-dependent (freeze the operating point with
``detector.calibrate(...)`` for exactness), and the energy detector
streams only approximately, because its keep-first-edge rule restarts
in every buffer.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..contracts import iq_contract
from ..dsp.correlation import greedy_suppress
from ..errors import ConfigurationError, checked_count
from ..types import DetectionEvent
from .gateway import GalioTGateway, GatewayReport
from .resilience import ResilientBackhaul

__all__ = ["StreamingGateway", "iter_chunks"]


@iq_contract("capture")
def iter_chunks(capture: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Split an in-memory capture into consecutive chunks (for tests
    and demos; a real deployment feeds SDR buffers directly)."""
    chunk_size = checked_count("chunk_size", chunk_size)
    for lo in range(0, len(capture), chunk_size):
        yield capture[lo : lo + chunk_size]


@dataclass
class _TechTrack:
    """Pending suppression state of one technology's score track."""

    indices: list[int] = field(default_factory=list)  # ascending
    scores: list[float] = field(default_factory=list)
    scored_to: int = 0  # score indices below this are already ingested
    accepted: list[int] = field(default_factory=list)  # finalized, sorted
    # Candidates at or past scored_to, whose window the buffer end cut
    # short: the next chunk scores them again; at stream end they stand,
    # as in a monolithic pass.
    tail: tuple[Sequence[int], Sequence[float]] = ((), ())


class StreamingGateway:
    """Run a :class:`GalioTGateway` over an iterator of capture chunks.

    One instance consumes one stream: detector carry, pending candidates
    and open extraction windows live on the instance between chunks.
    Call :meth:`reset` (or build a fresh instance) for a new stream.
    Segments bound for the cloud leave in each report's ``shipped`` list
    (see :meth:`run`); the stream calls no cloud itself.

    Args:
        gateway: The configured gateway whose pipeline to drive. Its
            detector, extractor, edge, codec, backhaul and telemetry
            sink are used as-is, so streaming and monolithic accounting
            share every code path below the chunking layer.
    """

    def __init__(self, gateway: GalioTGateway):
        self.gateway = gateway
        self.telemetry = gateway.telemetry
        self.context = gateway.detector.context
        self.min_distance = gateway.detector.min_distance
        self.reset()

    def reset(self) -> None:
        """Forget all carried state; ready for a new stream."""
        self.gateway.reset_stream()
        self._pos = 0  # absolute index of the next sample to arrive
        self._buffer = np.zeros(0, dtype=complex)
        self._buf_start = 0  # absolute index of _buffer[0]
        self._tracks: dict[str | None, _TechTrack] = {}
        self._flushed_to = 0  # emitted events are below, future ones above
        self._segments = self.gateway.extractor.stream()
        self._ended = False

    # -- public API -------------------------------------------------------

    def run(
        self,
        chunks: Iterable[np.ndarray],
        rng: np.random.Generator | None = None,
    ) -> Iterator[GatewayReport]:
        """Process a chunk stream, yielding one incremental report per
        chunk plus a final flush report after the stream ends."""
        for chunk in chunks:
            yield self.process_chunk(chunk, rng)
        yield self.finalize()

    def process_stream(
        self,
        chunks: Iterable[np.ndarray],
        rng: np.random.Generator | None = None,
    ) -> GatewayReport:
        """Consume the whole stream and return the merged totals."""
        return GatewayReport.merged(list(self.run(chunks, rng)))

    def process_chunk(
        self, chunk: np.ndarray, rng: np.random.Generator | None = None
    ) -> GatewayReport:
        """Ingest one chunk; returns the report of what it completed.

        Events appear in the report of the chunk that *finalized* them
        (proved their suppression outcome stable), segments in the
        report of the chunk that supplied their last needed sample —
        so a boundary-spanning packet is reported exactly once.
        """
        if self._ended:
            raise ConfigurationError(
                "stream already finalized; call reset() for a new stream"
            )
        report = GatewayReport()
        chunk = np.asarray(chunk)
        if len(chunk) == 0:
            return report
        with self.telemetry.span("stream.chunk"):
            # The front end writes the chunk's samples once, into the
            # tail of the next buffer, behind a copy of the carry. A new
            # buffer per chunk: trimmed carries are views, and nothing
            # overwrites memory a view may still read.
            carry = len(self._buffer)
            buffer = np.empty(carry + len(chunk), dtype=complex)
            buffer[:carry] = self._buffer
            _, report.raw_bits = self.gateway.capture_front_end(
                chunk, rng, out=buffer[carry:]
            )
            self._buffer = buffer
            chunk_start = self._pos
            self._pos += len(chunk)
            self._ingest(chunk_start)
            self._admit(self._resolve(final=False), report)
            self._close_ready(report, final=False)
            self._flush_backhaul(report, final=False)
            self._trim_buffer()
            if self.gateway.jamming is not None:
                # capture_front_end already fed the samples; report the
                # events this chunk closed.
                report.jamming_events = self.gateway.jamming.drain_events()
        self.telemetry.count("stream.chunks")
        self.telemetry.count("stream.samples_in", len(chunk))
        self.telemetry.gauge("stream.buffered_samples", len(self._buffer))
        return report

    def finalize(self) -> GatewayReport:
        """Flush carried state after the stream ends.

        Emits every still-pending event and open window (clamped to the
        true stream length, as a monolithic pass would clamp to the
        capture length). Idempotent: a second call returns an empty
        report.
        """
        if self._ended:
            return GatewayReport()
        self._ended = True
        report = GatewayReport()
        with self.telemetry.span("stream.finalize"):
            for track in self._tracks.values():
                track.indices.extend(track.tail[0])
                track.scores.extend(track.tail[1])
            self._admit(self._resolve(final=True), report)
            self._close_ready(report, final=True)
            self._flush_backhaul(report, final=True)
            if self.gateway.jamming is not None:
                self.gateway.jamming.flush()
                report.jamming_events = self.gateway.jamming.drain_events()
        return report

    # -- detection --------------------------------------------------------

    def _ingest(self, chunk_start: int) -> None:
        """Score [carry + chunk] and add its new candidates to the tracks.

        A chunk takes the score indices from its track's ``scored_to`` up
        to the last one the buffer holds every sample of; later ones wait
        in the track's ``tail``.
        """
        det_lo = max(chunk_start - self.context, 0)
        det_buf = self._buffer[det_lo - self._buf_start :]
        for tech, tlen, idx, sc in self.gateway.detector.stream_candidates(det_buf):
            track = self._tracks.setdefault(tech, _TechTrack())
            absolute = np.asarray(idx, dtype=np.int64) + det_lo
            sc = np.asarray(sc, dtype=float)
            complete = self._pos - tlen + 1
            fresh = (absolute >= track.scored_to) & (absolute < complete)
            track.indices.extend(absolute[fresh].tolist())
            track.scores.extend(sc[fresh].tolist())
            cut = absolute >= complete
            track.tail = (absolute[cut].tolist(), sc[cut].tolist())
            track.scored_to = max(track.scored_to, complete)

    def _admit(self, events: list[DetectionEvent], report: GatewayReport) -> None:
        """Pass emitted events through the gateway's admission gate into
        ``report`` and the extractor stream."""
        self.telemetry.count("detect.events", len(events))
        for event in events:
            if self.gateway.admit_event(event):
                report.events.append(event)
                self._segments.add(event)

    def _resolve(self, final: bool) -> list[DetectionEvent]:
        """Replay the global greedy suppression over pending candidates
        and emit every candidate whose outcome the future cannot change.

        The emission watermark is the lowest still-unstable candidate
        (capped at the scored frontier), so events always reach the
        extractor in ascending index order across chunks.
        """
        md = self.min_distance
        known = max(self._pos - self.context, 0)
        frontier = known - md
        states: dict[str | None, tuple] = {}
        watermark: int | None = None
        for tech, track in self._tracks.items():
            if not track.indices:
                continue
            idx = np.asarray(track.indices, dtype=np.int64)
            sc = np.asarray(track.scores, dtype=float)
            fixed = np.asarray(track.accepted, dtype=np.int64)
            # Already-emitted peaks suppress unconditionally: the
            # stability proof guarantees no pending candidate outranks
            # them in range.
            status = greedy_suppress(idx, sc, md, track.accepted)
            if final:
                marked = np.zeros(len(idx), dtype=bool)
            else:
                marked = idx > frontier
                self._stabilize(idx, sc, status, marked, fixed, md)
            states[tech] = (idx, sc, status, marked)
            if marked.any():
                lowest = int(idx[marked].min())
                watermark = (
                    lowest if watermark is None else min(watermark, lowest)
                )
        if final:
            cutoff = None  # flush everything
        else:
            cutoff = known if watermark is None else min(watermark, known)
        emitted: list[DetectionEvent] = []
        name = self.gateway.detector.name
        for tech, (idx, sc, status, marked) in states.items():
            track = self._tracks[tech]
            flush = ~marked if cutoff is None else (~marked) & (idx < cutoff)
            if not flush.any():
                continue
            for i, s in zip(
                idx[flush & status].tolist(),
                sc[flush & status].tolist(),
                strict=True,
            ):
                emitted.append(
                    DetectionEvent(
                        index=int(i),
                        score=float(s),
                        detector=name,
                        technology=tech,
                    )
                )
                insort(track.accepted, int(i))
            keep = ~flush
            track.indices = idx[keep].tolist()
            track.scores = sc[keep].tolist()
            floor = (
                track.indices[0] if track.indices else track.scored_to
            ) - md
            track.accepted = [a for a in track.accepted if a >= floor]
        if cutoff is not None:
            self._flushed_to = max(self._flushed_to, cutoff)
        emitted.sort(key=lambda e: e.index)
        return emitted

    @staticmethod
    def _stabilize(
        idx: np.ndarray,
        sc: np.ndarray,
        status: np.ndarray,
        marked: np.ndarray,
        fixed: np.ndarray,
        md: int,
    ) -> None:
        """Grow ``marked`` (in place) to every candidate whose greedy
        outcome a future candidate could still flip.

        A future candidate can directly contest only the strip within
        ``md`` of the scored frontier (the initial marking); from there
        instability propagates through neighbour chains of strictly
        decreasing priority. The greatest stable set is the fixpoint of:

        * a rejected candidate is stable iff an emitted peak, or an
          unmarked accepted candidate of higher priority, lies within
          ``md`` (a lower-priority one cannot be what rejected it);
        * an accepted candidate is stable iff no *marked* candidate of
          higher priority lies within ``md``.
        """
        rank = np.empty(idx.size, dtype=np.int64)  # greedy visiting order
        rank[np.argsort(sc, kind="stable")[::-1]] = np.arange(idx.size)
        lo = np.searchsorted(fixed, idx - md, side="right")
        near_emitted = np.searchsorted(fixed, idx + md, side="left") > lo
        while True:
            stable = status & ~marked
            s_idx, s_rank = idx[stable], rank[stable]
            held = near_emitted.copy()
            if s_idx.size:
                lo = np.searchsorted(s_idx, idx - md, side="right")
                hi = np.searchsorted(s_idx, idx + md, side="left")
                # Accepted candidates lie md apart: at most two in range.
                for k in (lo, hi - 1):
                    k = np.clip(k, 0, s_idx.size - 1)
                    held |= (hi > lo) & (s_rank[k] < rank)
            grew = (~status) & (~marked) & (~held)
            m_idx, m_rank = idx[marked], rank[marked]
            for i in np.flatnonzero(stable):
                a = np.searchsorted(m_idx, idx[i] - md, side="right")
                b = np.searchsorted(m_idx, idx[i] + md, side="left")
                if a < b and m_rank[a:b].min() < rank[i]:
                    grew[i] = True
            if not grew.any():
                return
            marked |= grew

    # -- extraction -------------------------------------------------------

    def _close_ready(self, report: GatewayReport, final: bool) -> None:
        """Ship every segment the extractor stream can cut now."""
        horizon = None if final else self._flushed_to
        for segment in self._segments.close(
            self._buffer, self._buf_start, horizon
        ):
            report.segments.append(segment)
            self.gateway.ship_segment(segment, report)
            self.telemetry.count("stream.segments")

    def _flush_backhaul(self, report: GatewayReport, final: bool) -> None:
        """Retry the resilient backhaul's spill buffer at stream time.

        Per chunk, due retries go out even when the chunk closed no
        windows; at finalize, everything still spilled is retried once
        more (an outage outlasting the stream keeps its entries spilled,
        not lost).
        """
        backhaul = self.gateway.backhaul
        if not isinstance(backhaul, ResilientBackhaul):
            return
        now = self._pos / self.gateway.sample_rate_hz
        delivered = backhaul.drain(now) if final else backhaul.flush(now)
        if delivered:
            self.gateway.account_deliveries(delivered, (), report)

    # -- buffer management ------------------------------------------------

    def _trim_buffer(self) -> None:
        """Drop samples nothing can reference any more.

        Retention floor: the next chunk's detection carry and the
        earliest sample the extractor stream can still cut.
        """
        keep_from = min(
            self._pos - self.context,
            self._segments.first_needed(self._flushed_to - self.min_distance),
        )
        keep_from = max(keep_from, self._buf_start)
        drop = keep_from - self._buf_start
        if drop > 0:
            self._buffer = self._buffer[drop:]
            self._buf_start = keep_from
