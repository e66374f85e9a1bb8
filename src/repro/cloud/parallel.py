"""The parallel cloud decode farm: ``repro.cloud.parallel``.

The paper's cloud absorbs every detected segment from every gateway, and
Algorithm 1's cost is superlinear in collision depth — so the cloud
side, not the Pi-class front end, is the throughput bottleneck of a
deployment. :class:`ParallelCloudService` fans decompressed segments out
over a process pool while keeping the three properties the serial
:class:`~repro.cloud.pipeline.CloudService` guarantees:

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
  breakage also poisons ``submit()`` itself, so new arrivals (e.g. from
  the streaming gateway's ``on_shipped`` hook) trigger the same respawn
  instead of being rejected at the door.
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
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..phy.base import Modem
from ..telemetry import NULL, Telemetry
from ..types import DecodeResult, DetectionEvent, Segment
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
        if self.max_retries < 0 or self.max_requeues < 0:
            raise ConfigurationError(
                "max_retries and max_requeues must be >= 0"
            )


@dataclass(frozen=True)
class QuarantinedSegment:
    """One segment the farm gave up on, with the evidence."""

    seq: int
    payload: Segment
    reason: str
    attempts: int
    requeues: int


#: Segments below this many samples are pickled to process workers: the
#: shared-memory round trip (create + copy + attach) costs two syscalls
#: and a page-table walk, which only pays for itself on buffers big
#: enough that pickle's serialize/deserialize copies dominate.
SHM_MIN_SAMPLES = 8192


@dataclass(frozen=True)
class _ShmSegment:
    """Wire descriptor for a segment whose samples live in shared memory.

    What crosses the pickle boundary instead of the I/Q buffer: the
    block name plus the metadata needed to rebuild the
    :class:`~repro.types.Segment` around a zero-copy view. The *parent*
    owns the block's lifetime — it creates, registers and unlinks; the
    worker only attaches, reads and closes. (With the default ``fork``
    start method the workers share the parent's resource tracker, so the
    attach-side registration is a set no-op and the parent's single
    unlink leaves the tracker clean.)
    """

    shm_name: str
    length: int
    dtype: str
    start: int
    sample_rate: float
    detections: list[DetectionEvent] = field(default_factory=list)


def _attach_shm_segment(
    wire: _ShmSegment,
) -> tuple[shared_memory.SharedMemory, Segment]:
    """Rebuild a :class:`~repro.types.Segment` over the shared block.

    The returned samples are a read-only, zero-copy view of the block
    (the decoder copies into its working buffer anyway, and fault
    corruption returns fresh arrays) — the caller must drop the Segment
    before closing the handle or ``close()`` raises ``BufferError``.
    """
    shm = shared_memory.SharedMemory(name=wire.shm_name)
    samples = np.ndarray(
        (wire.length,), dtype=np.dtype(wire.dtype), buffer=shm.buf
    )
    samples.flags.writeable = False
    return shm, Segment(
        start=wire.start,
        samples=samples,
        sample_rate=wire.sample_rate,
        detections=wire.detections,
    )


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker needs to rebuild the serial service."""

    modems: tuple[Modem, ...]
    sample_rate_hz: float
    use_kill_filters: bool
    strict_order: bool
    faults: FaultPlan | None = None


_worker = threading.local()


def _init_worker(config: _WorkerConfig) -> None:
    """Pool initializer: build one serial service per worker."""
    # A worker *is* a composition root: it lives in another process and
    # its private sink is snapshotted back to the parent after every
    # segment, which is the rollup GL005 wants.
    telemetry = Telemetry()  # noqa: GL005
    _worker.service = CloudService(
        list(config.modems),
        config.sample_rate_hz,
        use_kill_filters=config.use_kill_filters,
        strict_order=config.strict_order,
        telemetry=telemetry,
    )
    _worker.telemetry = telemetry
    _worker.faults = config.faults


_WorkerResult = tuple[list[DecodeResult], CloudStats, dict[str, dict[str, Any]]]


def _run_one(
    payload: Segment | _ShmSegment,
    seq: int,
    submission: int,
) -> _WorkerResult:
    """Decode one segment in a worker; return (results, stats, telemetry).

    ``seq`` is the segment's stable sequence number (identical across
    retries), ``submission`` the number of its current trip through the
    pool — the two axes a :class:`~repro.faults.FaultPlan` keys its
    worker faults on.
    """
    shm = None
    if isinstance(payload, _ShmSegment):
        shm, payload = _attach_shm_segment(payload)
    try:
        service: CloudService = _worker.service
        telemetry: Telemetry = _worker.telemetry
        faults: FaultPlan | None = getattr(_worker, "faults", None)
        if faults is not None:
            faults.apply_in_worker(seq, submission)
            payload = Segment(
                start=payload.start,
                samples=faults.corrupt_samples(seq, payload.samples),
                sample_rate=payload.sample_rate,
                detections=payload.detections,
            )
        service.stats = CloudStats()
        telemetry.reset()
        results = service.process_segment(payload)
        return results, service.stats, telemetry.snapshot()
    finally:
        if shm is not None:
            # The zero-copy view must die before the handle closes.
            del payload
            try:
                shm.close()
            except BufferError:
                pass  # a stray view keeps the mapping; GC closes it


@dataclass
class _Pending:
    """Parent-side bookkeeping for one in-flight segment.

    ``payload`` is always the caller's original segment (what retries
    re-decode and quarantine preserves); ``wire``/``shm`` are set when
    its samples were staged into a shared-memory block, in which case
    the descriptor is what crosses the pool boundary and the parent
    unlinks the block once the segment is finished or given up on.
    ``future`` and ``generation`` belong to the current submission,
    ``submission`` is the number of the current trip through the pool.
    """

    seq: int
    payload: Segment
    future: Future | None = None
    generation: int = 0
    submission: int = 0
    attempts: int = 0
    requeues: int = 0
    wire: _ShmSegment | None = None
    shm: shared_memory.SharedMemory | None = None


class ParallelCloudService:
    """Fan segments out over a process pool; merge in submission order.

    Drop-in for the serial service at the workload level: ``submit()``
    segments as they arrive — e.g. from the streaming gateway's
    ``on_shipped`` hook — then ``drain()`` for the merged results.
    :meth:`process_segments` wraps both for batch use.

    Args:
        modems: Registered technologies (pickled to the workers).
        sample_rate_hz: Capture sample rate of arriving segments.
        workers: Pool size.
        use_kill_filters: False runs the SIC-only baseline.
        strict_order: Classic-SIC decode order (see ``CloudDecoder``).
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
        use_kill_filters: bool = True,
        strict_order: bool = False,
        telemetry: Telemetry = NULL,
        executor: str = "process",
        faults: FaultPlan | None = None,
        resilience: CloudResilience | None = None,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        if not (0 < sample_rate_hz < math.inf):
            raise ConfigurationError("sample_rate_hz must be positive and finite")
        # The chained form also rejects NaN, which int() would raise on
        # as a bare ValueError (and inf as an OverflowError).
        if not (1 <= workers < math.inf):
            raise ConfigurationError("workers must be a finite count >= 1")
        if executor != "process":
            raise ConfigurationError(
                f"executor must be 'process', got {executor!r}"
            )
        self.telemetry = telemetry
        self.workers = int(workers)
        self.resilience = resilience if resilience is not None else CloudResilience()
        self.stats = CloudStats()
        self.quarantine: list[QuarantinedSegment] = []
        self._config = _WorkerConfig(
            modems=tuple(modems),
            sample_rate_hz=float(sample_rate_hz),
            use_kill_filters=bool(use_kill_filters),
            strict_order=bool(strict_order),
            faults=faults,
        )
        self._generation = 0
        self._seq = 0
        self._submissions = 0
        self._closed = False
        # Start the resource tracker *before* the pool forks workers so
        # every worker inherits the parent's tracker: attach-side
        # registrations then dedupe against the parent's and the single
        # unlink here leaves nothing for trackers to clean.
        resource_tracker.ensure_running()
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
        arriving between a worker crash and the next ``drain()`` (e.g.
        from the streaming gateway's ``on_shipped`` hook) would be
        rejected at the door and lost outside the requeue accounting.
        Finding the pool broken is not a trip: the number stays.
        """
        wire = item.wire if item.wire is not None else item.payload
        args = (_run_one, wire, item.seq, item.submission)
        try:
            item.future = self._pool.submit(*args)
        except BrokenExecutor:
            self._respawn()
            item.future = self._pool.submit(*args)
        item.generation = self._generation

    def _stage_shm(self, item: _Pending) -> None:
        """Stage a big segment's samples into a shared-memory block.

        Workers then receive a tiny pickled descriptor instead of a
        multi-megabyte serialized ndarray. Small segments and an
        exhausted ``/dev/shm`` silently keep the pickle path, which
        decodes identically.
        """
        samples = np.ascontiguousarray(item.payload.samples)
        if len(samples) < SHM_MIN_SAMPLES:
            return
        try:
            shm = shared_memory.SharedMemory(create=True, size=samples.nbytes)
        except OSError:
            self.telemetry.count("cloud.parallel.shm_fallbacks")
            return
        np.ndarray(samples.shape, dtype=samples.dtype, buffer=shm.buf)[
            :
        ] = samples
        item.shm = shm
        item.wire = _ShmSegment(
            shm_name=shm.name,
            length=len(samples),
            dtype=str(samples.dtype),
            start=item.payload.start,
            sample_rate=item.payload.sample_rate,
            detections=item.payload.detections,
        )
        self.telemetry.count("cloud.parallel.shm_segments")

    def _release_shm(self, item: _Pending) -> None:
        """Drop a finished item's shared block (parent owns the unlink)."""
        if item.shm is None:
            return
        try:
            item.shm.close()
            item.shm.unlink()
        except OSError:
            pass  # already gone (e.g. /dev/shm purged underneath us)
        item.shm = None
        item.wire = None

    def _enqueue(self, segment: Segment) -> _Pending:
        item = _Pending(seq=self._seq, payload=segment)
        self._seq += 1
        self._stage_shm(item)
        self._dispatch(item)
        self.telemetry.count("cloud.parallel.submitted")
        return item

    def submit(self, segment: Segment) -> None:
        """Queue one decompressed segment for decoding."""
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
        pool is still respawned on submission, and a staged
        shared-memory block is released when the future settles,
        whatever the outcome. The release runs in a done callback, which
        may fire just after ``result()`` returns; after :meth:`close`
        every block is gone.
        """
        item = self._enqueue(segment)
        if item.shm is not None:
            # The parent owns the unlink; the callback fires on
            # completion, cancellation and error alike.
            item.future.add_done_callback(
                lambda _f, it=item: self._release_shm(it)
            )
        return item.future

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
        try:
            self._drain_queue(queue, done)
        except BaseException:
            # An escaping exception (e.g. KeyboardInterrupt) must not
            # leak /dev/shm blocks of the abandoned queue.
            for item in queue:
                self._release_shm(item)
            raise
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
                    self._release_shm(item)
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
                except BaseException:
                    # Not a handled fault class (KeyboardInterrupt, ...):
                    # release the popped item; drain() sweeps the rest.
                    self._release_shm(item)
                    raise

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
        self._release_shm(item)
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
        # Undrained submissions' shared blocks die with the farm (the
        # shutdown above waited for any worker still reading them).
        for item in self._pending:
            self._release_shm(item)

    def __enter__(self) -> ParallelCloudService:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
