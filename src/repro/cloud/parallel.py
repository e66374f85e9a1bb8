"""The parallel cloud decode farm: ``repro.cloud.parallel``.

The paper's cloud absorbs every detected segment from every gateway, and
Algorithm 1's cost is superlinear in collision depth — so the cloud
side, not the Pi-class front end, is the throughput bottleneck of a
deployment. :class:`ParallelCloudService` fans decompressed segments out
over a ``concurrent.futures`` pool while keeping the three properties
the serial :class:`~repro.cloud.pipeline.CloudService` guarantees:

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
* **Crash recovery.** A dead process-pool worker surfaces as
  ``BrokenProcessPool``, which poisons *every* in-flight future; the
  farm respawns the pool once per breakage and requeues everything that
  had not already finished. A breakage also poisons ``submit()`` itself,
  so new arrivals (e.g. from the streaming gateway's ``on_shipped``
  hook) trigger the same respawn instead of being rejected at the door.
  Thread-pool crash injection raises
  :class:`~repro.errors.InjectedCrash` and takes the same requeue path
  (minus the respawn — the pool itself is intact).
* **Retry-once-then-quarantine.** A decode exception (poison segment,
  corrupt blob, injected fault) is retried up to
  :attr:`CloudResilience.max_retries` times; a segment that still
  fails lands in :attr:`ParallelCloudService.quarantine` with its
  reason, and the pipeline moves on.

All outcomes are surfaced twice: as telemetry counters
(``cloud.parallel.retried`` / ``requeued`` / ``quarantined`` /
``degraded`` / ``timeouts`` / ``crashes`` / ``pool_respawns``) and in
:class:`CloudStats`.

Worker state (one :class:`CloudService` per worker, built once by the
pool initializer) lives in a ``threading.local``: a process-pool worker
runs tasks on its single main thread and a thread-pool worker is a
thread, so the same initializer serves both executors.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import (
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..errors import ConfigurationError, InjectedCrash
from ..faults import FaultPlan
from ..gateway.compression import CompressedSegment, SegmentCodec
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
            how long a persistently hanging segment can churn the pool.
        propagate_errors: Re-raise decode exceptions instead of
            quarantining (restores the fail-fast behaviour; crash and
            timeout handling stay active).
    """

    decode_timeout_s: float | None = None
    max_retries: int = 1
    max_requeues: int = 3
    propagate_errors: bool = False

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
    payload: Segment | CompressedSegment
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
    codec: SegmentCodec | None
    faults: FaultPlan | None = None
    is_process: bool = True


_worker = threading.local()


def _init_worker(config: _WorkerConfig) -> None:
    """Pool initializer: build one serial service per worker."""
    # A worker *is* a composition root: it lives in another process (or
    # thread) and its private sink is snapshotted back to the parent
    # after every segment, which is the rollup GL005 wants.
    telemetry = Telemetry()  # noqa: GL005
    service = CloudService(
        list(config.modems),
        config.sample_rate_hz,
        use_kill_filters=config.use_kill_filters,
        strict_order=config.strict_order,
        codec=config.codec,
        telemetry=telemetry,
    )
    # The codec crossed a pickle boundary, so identity checks against
    # the NULL singleton no longer apply — rewire it explicitly.
    service.codec.telemetry = telemetry
    _worker.service = service
    _worker.telemetry = telemetry
    _worker.faults = config.faults
    _worker.is_process = config.is_process


_WorkerResult = tuple[list[DecodeResult], CloudStats, dict[str, dict[str, Any]]]


def _run_one(
    payload: Segment | CompressedSegment | _ShmSegment,
    seq: int,
    submission: int,
) -> _WorkerResult:
    """Decode one segment in a worker; return (results, stats, telemetry).

    ``seq`` is the segment's stable sequence number (identical across
    retries), ``submission`` the retry-inclusive pool-submission counter
    — the two axes a :class:`~repro.faults.FaultPlan` keys its worker
    faults on.
    """
    shm = None
    if isinstance(payload, _ShmSegment):
        shm, payload = _attach_shm_segment(payload)
    try:
        service: CloudService = _worker.service
        telemetry: Telemetry = _worker.telemetry
        faults: FaultPlan | None = getattr(_worker, "faults", None)
        if faults is not None:
            faults.apply_in_worker(seq, submission, _worker.is_process)
            if isinstance(payload, Segment):
                payload = Segment(
                    start=payload.start,
                    samples=faults.corrupt_samples(seq, payload.samples),
                    sample_rate=payload.sample_rate,
                    detections=payload.detections,
                )
            else:
                payload = CompressedSegment(
                    blob=faults.corrupt_blob(seq, payload.blob)
                )
        service.stats = CloudStats()
        telemetry.reset()
        if isinstance(payload, CompressedSegment):
            results = service.process_compressed(payload)
        else:
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
    """

    seq: int
    payload: Segment | CompressedSegment
    future: Future
    generation: int
    attempts: int = 0
    requeues: int = 0
    timed_out: bool = False
    wire: _ShmSegment | None = None
    shm: shared_memory.SharedMemory | None = None


class ParallelCloudService:
    """Fan segments out over a worker pool; merge in submission order.

    Drop-in for the serial service at the workload level: ``submit()``
    segments (or compressed wire blobs) as they arrive — e.g. from the
    streaming gateway's ``on_shipped`` hook — then ``drain()`` for the
    merged results. :meth:`process_segments` wraps both for batch use.

    Args:
        modems: Registered technologies (pickled to process workers).
        sample_rate_hz: Capture sample rate of arriving segments.
        workers: Pool size.
        use_kill_filters: False runs the SIC-only baseline.
        strict_order: Classic-SIC decode order (see ``CloudDecoder``).
        codec: Wire codec for compressed segments.
        telemetry: Parent sink receiving the per-worker rollups.
        executor: ``"process"`` (default — real parallelism for the
            CPU-bound decode) or ``"thread"`` (cheaper startup, shared
            memory; useful for tests and I/O-bound deployments).
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
        codec: SegmentCodec | None = None,
        telemetry: Telemetry = NULL,
        executor: str = "process",
        faults: FaultPlan | None = None,
        resilience: CloudResilience | None = None,
    ):
        if not modems:
            raise ConfigurationError("at least one modem is required")
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if executor not in ("process", "thread"):
            raise ConfigurationError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        self.telemetry = telemetry
        self.workers = int(workers)
        self.executor_kind = executor
        self.resilience = resilience if resilience is not None else CloudResilience()
        self.stats = CloudStats()
        self.quarantine: list[QuarantinedSegment] = []
        self._config = _WorkerConfig(
            modems=tuple(modems),
            sample_rate_hz=float(sample_rate_hz),
            use_kill_filters=bool(use_kill_filters),
            strict_order=bool(strict_order),
            codec=codec,
            faults=faults,
            is_process=executor == "process",
        )
        self._generation = 0
        self._seq = 0
        self._submissions = 0
        self._closed = False
        if executor == "process":
            # Start the resource tracker *before* the pool forks workers
            # so every worker inherits the parent's tracker: attach-side
            # registrations then dedupe against the parent's and the
            # single unlink here leaves nothing for trackers to clean.
            resource_tracker.ensure_running()
        self._pool = self._make_pool()
        self._pending: list[_Pending] = []

    # -- pool lifecycle ---------------------------------------------------

    def _make_pool(self):
        pool_cls = (
            ProcessPoolExecutor
            if self.executor_kind == "process"
            else ThreadPoolExecutor
        )
        return pool_cls(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._config,),
        )

    def _respawn(self) -> None:
        """Replace a broken pool; in-flight work must be resubmitted."""
        old = self._pool
        self._generation += 1
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            # A broken pool may refuse even shutdown — abandon it, but
            # leave a trace so leaked pools show up in telemetry.
            self.telemetry.count("cloud.parallel.shutdown_errors")
        self._pool = self._make_pool()
        self.telemetry.count("cloud.parallel.pool_respawns")

    # -- submission -------------------------------------------------------

    def _dispatch(self, item: _Pending) -> None:
        """(Re-)submit one pending item to the current pool.

        A broken process pool poisons ``submit()`` itself, not just the
        in-flight futures — without this respawn-and-resubmit, every
        segment arriving between a worker crash and the next ``drain()``
        (e.g. from the streaming gateway's ``on_shipped`` hook) would be
        rejected at the door and lost outside the requeue accounting.
        """
        try:
            item.future = self._submit(item)
        except BrokenExecutor:
            self.telemetry.count("cloud.parallel.crashes")
            self._respawn()
            item.future = self._submit(item)

    def _submit(self, item: _Pending) -> Future:
        submission = self._submissions
        self._submissions += 1
        item.generation = self._generation
        wire = item.wire if item.wire is not None else item.payload
        return self._pool.submit(_run_one, wire, item.seq, submission)

    def _stage_shm(self, item: _Pending) -> None:
        """Stage a big segment's samples into a shared-memory block.

        Process workers then receive a tiny pickled descriptor instead
        of a multi-megabyte serialized ndarray. Anything that cannot or
        should not be staged — thread pools (already zero-copy), small
        segments, compressed blobs (decompressed worker-side), or an
        exhausted ``/dev/shm`` — silently keeps the pickle path, which
        decodes identically.
        """
        if self.executor_kind != "process":
            return
        if not isinstance(item.payload, Segment):
            return
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

    def _enqueue(self, payload: Segment | CompressedSegment) -> None:
        item = _Pending(
            seq=self._seq, payload=payload, future=None, generation=self._generation
        )
        self._seq += 1
        self._stage_shm(item)
        self._dispatch(item)
        self._pending.append(item)
        self.telemetry.count("cloud.parallel.submitted")

    def submit(self, segment: Segment) -> None:
        """Queue one decompressed segment for decoding."""
        self._enqueue(segment)

    def submit_compressed(self, compressed: CompressedSegment) -> None:
        """Queue one wire blob; the worker decompresses it (so codec
        telemetry lands in the worker sink, exactly as in a serial run)."""
        self._enqueue(compressed)

    def submit_future(
        self, payload: Segment | CompressedSegment
    ) -> Future:
        """Out-of-band decode: submit one segment, get its Future back.

        The per-segment handle the asyncio ingestion tier
        (:mod:`repro.service`) is built on: the caller awaits each
        segment individually (``asyncio.wrap_future``) instead of
        batching through :meth:`drain`, so completions can be observed
        — and latencies measured — as they happen. The future resolves
        to the worker's raw ``(results, stats, telemetry_snapshot)``
        triple; :meth:`absorb_result` folds one into the parent's
        aggregates (call it in a deterministic order for reproducible
        rollups).

        Differences from the :meth:`submit`/:meth:`drain` path: the
        segment does not participate in :meth:`drain`'s merge or its
        retry/requeue bookkeeping — error policy belongs to the caller
        (the service retries then quarantines at its own layer). A
        broken pool is still respawned on submission, and a staged
        shared-memory block is released when the future settles,
        whatever the outcome.
        """
        item = _Pending(
            seq=self._seq,
            payload=payload,
            future=None,
            generation=self._generation,
        )
        self._seq += 1
        self._stage_shm(item)
        self._dispatch(item)
        if item.shm is not None:
            # The parent owns the unlink; the callback fires on
            # completion, cancellation and error alike.
            item.future.add_done_callback(
                lambda _f, it=item: self._release_shm(it)
            )
        self.telemetry.count("cloud.parallel.submitted")
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
        retried then quarantined; ``drain()`` itself only raises when
        :attr:`CloudResilience.propagate_errors` is set.
        """
        pending, self._pending = self._pending, []
        queue = deque(pending)
        done: dict[int, _WorkerResult] = {}
        try:
            self._drain_queue(queue, done)
        except BaseException:
            # The propagate_errors escape hatch (or a KeyboardInterrupt)
            # must not leak /dev/shm blocks of the abandoned queue.
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
                    item.timed_out = True
                    self.stats.degraded += 1
                    self.telemetry.count("cloud.parallel.timeouts")
                    self.telemetry.count("cloud.parallel.degraded")
                    self._requeue(item, queue, reason="decode timeout")
                except (BrokenExecutor, InjectedCrash) as exc:
                    self.telemetry.count("cloud.parallel.crashes")
                    if (
                        isinstance(exc, BrokenExecutor)
                        and item.generation == self._generation
                    ):
                        self._respawn()
                    self._requeue(item, queue, reason=f"worker crash: {exc!r}")
                except Exception as exc:
                    if self.resilience.propagate_errors:
                        self._release_shm(item)
                        raise
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

    def _requeue(self, item: _Pending, queue: deque, reason: str) -> None:
        """Give a crashed/timed-out submission another trip, bounded."""
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

    def process_compressed_batch(
        self, blobs: list[CompressedSegment]
    ) -> list[DecodeResult]:
        """Batch convenience for wire blobs."""
        for blob in blobs:
            self.submit_compressed(blob)
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
