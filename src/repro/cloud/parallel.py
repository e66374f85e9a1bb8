"""The parallel cloud decode farm: ``repro.cloud.parallel``.

The paper's cloud absorbs every detected segment from every gateway, and
Algorithm 1's cost is superlinear in collision depth — so the cloud
side, not the Pi-class front end, is the throughput bottleneck of a
deployment. :class:`ParallelCloudService` fans shipped segments (each
gateway report's ``shipped`` list) out over a process pool while
keeping the three properties the serial
:class:`~repro.cloud.pipeline.CloudService` guarantees. Like the serial
service it takes :class:`~repro.types.Segment` objects only. A segment
reaches its worker one way only: as the pickled argument of the pool's
task, which the executor's feeder thread serializes into the pipe and
drops once sent, so the parent keeps no second copy of what it ships.

* **Determinism.** Results are merged in *submission* order, never
  completion order, so a parallel run is result-identical to the serial
  service over the same segments (segments are independent by
  construction: each is decoded from its own sample buffer). Retries
  and requeues keep their original sequence slot, so a faulty run is
  deterministic too: same fault plan, same merged results, same
  counters.
* **Aggregated stats.** Every worker reports a per-segment
  :class:`~repro.cloud.pipeline.CloudStats` delta; the parent folds them
  with :meth:`CloudStats.merge`, so the totals equal a serial run's.
* **Telemetry rollup.** Workers record into their own sinks; the parent
  absorbs each per-segment snapshot
  (:meth:`~repro.telemetry.Telemetry.absorb_snapshot`) in sequence
  order — counters and span counts match the serial pipeline's exactly,
  wall-clock totals reflect the actual per-worker time spent.

On top of that sits the resilience layer (all off by default, zero
overhead when unused):

* **Per-segment decode timeouts** (:attr:`CloudResilience.
  decode_timeout_s`): a segment that overruns its budget is counted
  ``degraded`` and requeued; one that keeps overrunning is quarantined
  instead of wedging ``drain()`` forever.
* **Crash recovery.** A dead worker surfaces as ``BrokenProcessPool``,
  which poisons *every* future its pool holds, however many happened to
  be in flight. The farm respawns the pool once per breakage and
  resubmits every poisoned segment, but only the segments whose
  current submission the :class:`~repro.faults.FaultPlan` schedules as
  a crash are requeued (a new submission number, one requeue); the
  others re-run under their old numbers and count nowhere, so the
  requeue count does not depend on timing. A breakage the plan does not
  explain (a real worker death) requeues every segment it poisoned. A
  breakage also poisons ``submit()`` itself, so new arrivals (the
  segments of the next chunk reports, submitted while the stream still
  runs) trigger the same respawn instead of being rejected at the door.
* **Retry-once-then-quarantine.** A decode exception (poison segment,
  injected fault) is retried up to
  :attr:`CloudResilience.max_retries` times; a segment that still
  fails lands in :attr:`ParallelCloudService.quarantine` with its
  reason, and the pipeline moves on.

All outcomes are surfaced twice: as telemetry counters
(``cloud.parallel.retried`` / ``requeued`` / ``quarantined`` /
``degraded`` / ``timeouts`` / ``crashes``, one per breakage) and in
:class:`CloudStats`.

Worker state (one :class:`CloudService` per worker, built once by the
pool initializer) lives in the module-level ``threading.local``
``_worker``; a worker process runs its tasks on its main thread.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import (
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError, checked_count
from ..faults import FaultPlan
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult, Segment
from .pipeline import CloudService, CloudStats

__all__ = ["CloudResilience", "QuarantinedSegment", "ParallelCloudService"]


@dataclass(frozen=True)
class CloudResilience:
    """Fault-handling policy for the decode farm.

    Attributes:
        decode_timeout_s: Per-segment wall-clock decode budget; ``None``
            (default) or ``inf`` waits forever, exactly like the
            pre-resilience farm.
        max_retries: Decode-exception retries before quarantine
            (retry *once* then quarantine, by default).
        max_requeues: Crash/timeout requeues before quarantine — bounds
            how long a persistently hanging or crashing segment can
            churn the pool.
    """

    decode_timeout_s: float | None = None
    max_retries: int = 1
    max_requeues: int = 3

    def __post_init__(self) -> None:
        # ``not (x > 0)`` also rejects NaN, which would time out every
        # wait and quarantine every segment; inf means no budget.
        if self.decode_timeout_s is not None and not self.decode_timeout_s > 0:
            raise ConfigurationError("decode_timeout_s must be positive")
        # inf would retry a poison segment forever, 1.5 retry it twice.
        checked_count("max_retries", self.max_retries, minimum=0)
        checked_count("max_requeues", self.max_requeues, minimum=0)


@dataclass(frozen=True)
class QuarantinedSegment:
    """One segment the farm gave up on, with the evidence."""

    seq: int
    payload: Segment
    reason: str
    attempts: int
    requeues: int


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker needs to rebuild the serial service."""

    modems: tuple[Modem, ...]
    sample_rate_hz: float
    faults: FaultPlan | None = None


_worker = threading.local()


def _init_worker(config: _WorkerConfig) -> None:
    """Pool initializer: build one serial service per worker."""
    # A worker *is* a composition root: it lives in another process and
    # its private sink is snapshotted back to the parent after every
    # segment, which is the rollup GL005 wants.
    telemetry = Telemetry()  # noqa: GL005
    _worker.service = CloudService(
        list(config.modems), config.sample_rate_hz, telemetry=telemetry
    )
    _worker.telemetry = telemetry
    _worker.faults = config.faults


_WorkerResult = tuple[list[DecodeResult], CloudStats, dict[str, dict[str, Any]]]


def _run_one(segment: Segment, seq: int, submission: int) -> _WorkerResult:
    """Decode one segment in a worker; return (results, stats, telemetry).

    ``segment`` arrives through the pool's pickle pipe, a private copy
    of the parent's. ``seq`` is the segment's stable sequence number
    (identical across retries), ``submission`` the number of its current
    trip through the pool — the two axes a
    :class:`~repro.faults.FaultPlan` keys its worker faults on.
    """
    service: CloudService = _worker.service
    telemetry: Telemetry = _worker.telemetry
    faults: FaultPlan | None = getattr(_worker, "faults", None)
    if faults is not None:
        faults.apply_in_worker(seq, submission)
        segment = Segment(
            start=segment.start,
            samples=faults.corrupt_samples(seq, segment.samples),
            sample_rate=segment.sample_rate,
            detections=segment.detections,
        )
    service.stats = CloudStats()
    telemetry.reset()
    results = service.process_segment(segment)
    return results, service.stats, telemetry.snapshot()


@dataclass
class _Pending:
    """Parent-side bookkeeping for one in-flight segment.

    ``payload`` is the caller's original segment: what every trip
    through the pool pickles, what retries re-decode and what
    quarantine preserves. ``future`` and ``generation`` belong to the
    current submission, ``submission`` is the number of the current
    trip through the pool.
    """

    seq: int
    payload: Segment
    future: Future | None = None
    generation: int = 0
    submission: int = 0
    attempts: int = 0
    requeues: int = 0


class ParallelCloudService:
    """Fan segments out over a process pool; merge in submission order.

    Drop-in for the serial service at the workload level: ``submit()``
    segments as they arrive — each streaming chunk report's ``shipped``
    list, in order — then ``drain()`` for the merged results.
    :meth:`process_segments` wraps both for batch use. Every worker
    runs the full GalioT decoder (kill filters on).

    Args:
        modems: Registered technologies (pickled to the workers).
        sample_rate_hz: Capture sample rate of arriving segments.
        workers: Pool size.
        telemetry: Parent sink receiving the per-worker rollups.
        executor: The pool kind; only ``"process"`` is supported.
        faults: Optional :class:`~repro.faults.FaultPlan` shipped to
            every worker (chaos testing).
        resilience: Fault-handling policy; the default behaves like the
            pre-resilience farm for healthy workloads but quarantines
            failing segments instead of raising out of ``drain()``.
    """

    def __init__(
        self,
        modems: list[Modem],
        sample_rate_hz: float,
        workers: int = 2,
        telemetry: Telemetry = NULL,
        executor: str = "process",
        faults: FaultPlan | None = None,
        resilience: CloudResilience | None = None,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        if not (0 < sample_rate_hz < math.inf):
            raise ConfigurationError("sample_rate_hz must be positive and finite")
        workers = checked_count("workers", workers)
        if executor != "process":
            raise ConfigurationError(
                f"executor must be 'process', got {executor!r}"
            )
        self.telemetry = telemetry
        self.workers = workers
        self.resilience = resilience if resilience is not None else CloudResilience()
        self.stats = CloudStats()
        self.quarantine: list[QuarantinedSegment] = []
        self._config = _WorkerConfig(
            modems=tuple(modems),
            sample_rate_hz=float(sample_rate_hz),
            faults=faults,
        )
        self._generation = 0
        self._seq = 0
        self._submissions = 0
        self._closed = False
        self._pool = self._make_pool()
        self._pending: list[_Pending] = []

    # -- pool lifecycle ---------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._config,),
        )

    def _respawn(self) -> None:
        """Replace a broken pool; in-flight work must be resubmitted.

        Called once per breakage, which it counts as
        ``cloud.parallel.crashes``.
        """
        old = self._pool
        self._generation += 1
        self.telemetry.count("cloud.parallel.crashes")
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            # A broken pool may refuse even shutdown — abandon it, but
            # leave a trace so leaked pools show up in telemetry.
            self.telemetry.count("cloud.parallel.shutdown_errors")
        self._pool = self._make_pool()

    # -- submission -------------------------------------------------------

    def _dispatch(self, item: _Pending) -> None:
        """Send ``item`` on a new trip through the pool.

        Every trip — a first dispatch, a retry or a requeue — takes
        exactly one submission number, so the numbers a
        :class:`~repro.faults.FaultPlan` schedules land on the same
        trips in every run.
        """
        item.submission = self._submissions
        self._submissions += 1
        self._submit(item)

    def _submit(self, item: _Pending) -> None:
        """Submit ``item`` to the current pool under its current number.

        A broken pool poisons ``submit()`` itself, not just the in-flight
        futures — without this respawn-and-resubmit, every segment
        arriving between a worker crash and the next ``drain()`` (the
        shipped segments of chunk reports the stream yields meanwhile)
        would be rejected at the door and lost outside the requeue
        accounting.
        Finding the pool broken is not a trip: the number stays.
        """
        args = (_run_one, item.payload, item.seq, item.submission)
        try:
            item.future = self._pool.submit(*args)
        except BrokenExecutor:
            self._respawn()
            item.future = self._pool.submit(*args)
        item.generation = self._generation

    def _enqueue(self, segment: Segment) -> _Pending:
        item = _Pending(seq=self._seq, payload=segment)
        self._seq += 1
        self._dispatch(item)
        self.telemetry.count("cloud.parallel.submitted")
        return item

    def submit(self, segment: Segment) -> None:
        """Queue one shipped segment for decoding."""
        self._pending.append(self._enqueue(segment))

    def submit_future(self, segment: Segment) -> Future:
        """Out-of-band decode: submit one segment, get its Future back.

        The per-segment handle of a closed-loop caller that settles each
        segment on its own instead of batching through :meth:`drain` —
        the pipeline benchmark (``perfbench/harness.py``) keeps at most
        ``workers`` segments in flight this way and times each one from
        hand-off to completion. The future resolves to the worker's raw
        ``(results, stats, telemetry_snapshot)`` triple;
        :meth:`absorb_result` folds one into the parent's aggregates
        (call it in submission order for reproducible rollups).

        Differences from the :meth:`submit`/:meth:`drain` path: the
        segment does not participate in :meth:`drain`'s merge or its
        retry/requeue bookkeeping — error policy belongs to the caller
        (the benchmark counts a failed segment and moves on). A broken
        pool is still respawned on submission.
        """
        return self._enqueue(segment).future

    def absorb_result(self, result: _WorkerResult) -> list[DecodeResult]:
        """Fold one :meth:`submit_future` result into stats/telemetry.

        Returns the decode results. Callers that care about
        reproducible aggregates must absorb results in a deterministic
        order (e.g. segment-sequence order), exactly like
        :meth:`drain` does.
        """
        results, stats, snapshot = result
        self.stats.merge(stats)
        self.telemetry.absorb_snapshot(snapshot)
        return results

    # -- collection -------------------------------------------------------

    def drain(self) -> list[DecodeResult]:
        """Wait for every outstanding segment; merge in sequence order.

        Returns the concatenated decode results. Stats and telemetry
        rollups happen here, in segment-sequence order, so repeated runs
        over the same segments produce identical aggregates regardless
        of worker scheduling — with or without injected faults. Crashed
        or timed-out submissions are requeued (bounded), failing decodes
        retried then quarantined, so ``drain()`` raises only what no
        policy handles (e.g. ``KeyboardInterrupt``).
        """
        pending, self._pending = self._pending, []
        queue = deque(pending)
        done: dict[int, _WorkerResult] = {}
        self._drain_queue(queue, done)
        merged: list[DecodeResult] = []
        for seq in sorted(done):
            results, stats, snapshot = done[seq]
            merged.extend(results)
            self.stats.merge(stats)
            self.telemetry.absorb_snapshot(snapshot)
        self.telemetry.count("cloud.parallel.drained", len(done))
        return merged

    def _drain_queue(
        self, queue: deque[_Pending], done: dict[int, _WorkerResult]
    ) -> None:
        budget = self.resilience.decode_timeout_s
        # A timed wait overflows on inf; an infinite budget is no budget.
        timeout = None if budget == math.inf else budget
        with self.telemetry.span("cloud.parallel.drain"):
            while queue:
                item = queue.popleft()
                try:
                    done[item.seq] = item.future.result(timeout=timeout)
                except FutureTimeoutError:
                    item.future.cancel()
                    self.stats.degraded += 1
                    self.telemetry.count("cloud.parallel.timeouts")
                    self.telemetry.count("cloud.parallel.degraded")
                    self._requeue(item, queue, reason="decode timeout")
                except BrokenExecutor as exc:
                    if self._rerun_poisoned(item, queue):
                        queue.appendleft(item)  # wait on it again, in place
                    else:
                        self._requeue(item, queue, reason=f"worker crash: {exc!r}")
                except Exception as exc:
                    if item.attempts < self.resilience.max_retries:
                        item.attempts += 1
                        self.stats.retried += 1
                        self.telemetry.count("cloud.parallel.retried")
                        self._dispatch(item)
                        queue.append(item)
                    else:
                        self._quarantine(item, f"decode failure: {exc!r}")

    def _rerun_poisoned(self, item: _Pending, queue: deque[_Pending]) -> bool:
        """Resubmit the segments poisoned by the breakage ``item`` hit.

        The breakage is attributed to the poisoned segments whose current
        submission the fault plan schedules as a crash, or to all of them
        when it names none (no plan, or a real worker death); the caller
        requeues those as it reaches them. Every other poisoned segment
        is resubmitted here under its old number and keeps its place in
        ``queue``. Returns whether ``item`` was resubmitted. Calling this
        again for the same breakage is harmless: what it leaves behind is
        exactly what the breakage is attributed to.
        """
        broken = item.generation
        if broken == self._generation:
            self._respawn()  # the first sign of this breakage
        poisoned = [item] + [
            other
            for other in queue
            if other.generation == broken
            and isinstance(other.future.exception(), BrokenExecutor)
        ]
        faults = self._config.faults
        crashes = faults.crash_submissions if faults is not None else frozenset()
        if not any(p.submission in crashes for p in poisoned):
            return False
        for p in poisoned:
            if p.submission not in crashes:
                self._submit(p)
        return item.submission not in crashes

    def _requeue(self, item: _Pending, queue: deque, reason: str) -> None:
        """Give a crashed/timed-out segment another trip, bounded."""
        if item.requeues < self.resilience.max_requeues:
            item.requeues += 1
            self.stats.requeued += 1
            self.telemetry.count("cloud.parallel.requeued")
            self._dispatch(item)
            queue.append(item)
        else:
            self._quarantine(item, reason)

    def _quarantine(self, item: _Pending, reason: str) -> None:
        self.quarantine.append(
            QuarantinedSegment(
                seq=item.seq,
                payload=item.payload,
                reason=reason,
                attempts=item.attempts,
                requeues=item.requeues,
            )
        )
        self.stats.quarantined += 1
        self.telemetry.count("cloud.parallel.quarantined")

    def process_segments(self, segments: list[Segment]) -> list[DecodeResult]:
        """Batch convenience: submit every segment, then drain."""
        for segment in segments:
            self.submit(segment)
        return self.drain()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down (outstanding work completes first).

        Idempotent and exception-safe: double-``close()``, ``close()``
        after a worker crash, and ``__exit__`` on an error path are all
        no-ops or absorbed (counted as ``cloud.parallel.close_errors``).
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.shutdown(wait=True)
        except Exception:
            self.telemetry.count("cloud.parallel.close_errors")

    def __enter__(self) -> ParallelCloudService:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
