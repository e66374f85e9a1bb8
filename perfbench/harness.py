"""Set-up, closed-loop replay, correctness gates and metrics.

The shipping path under test is ``RtlSdrModel`` -> ``StreamingGateway``
(universal detector, extractor, edge decode, ``SegmentCodec``, a
``BackhaulLink`` sized never to drop) -> ``CloudService``, or
``ParallelCloudService`` for the farm. The loop is closed: the next
chunk goes in only after the previous call returns, and at most
``workers`` segments are in flight in the farm.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.cloud import CloudService, ParallelCloudService
from repro.cloud.pipeline import CloudStats
from repro.dsp.fastcorr import clear_spectrum_plan_cache
from repro.dsp.resample import clear_resample_plan_cache
from repro.gateway import BackhaulLink, GalioTGateway, RtlSdrModel, StreamingGateway
from repro.phy import create_modem
from repro.telemetry import NULL, Telemetry

from workloads import FS, TRIO, Inputs

#: Far above any shipped load (a pass ships a few Mbit per air second),
#: with an hour of queue: the link never refuses a segment.
BACKHAUL_BPS = 1e9
BACKHAUL_QUEUE_S = 3600.0


@dataclass
class Pipeline:
    gateway: GalioTGateway
    stream: StreamingGateway
    service: CloudService | None = None
    farm: ParallelCloudService | None = None
    workers: int = 0

    def close(self) -> None:
        if self.farm is not None:
            self.farm.close()

    @property
    def stats(self) -> CloudStats:
        return self.farm.stats if self.farm is not None else self.service.stats


def build(inputs: Inputs, farm_telemetry: Telemetry = NULL) -> tuple[Pipeline, float, float]:
    """Build and warm one pipeline; returns it with (gateway_s, cloud_s).

    Process-wide plan caches are cleared first so every build pays what
    a fresh deployment pays; imports and input rendering are not timed.
    """
    clear_resample_plan_cache()
    clear_spectrum_plan_cache()
    t0 = time.perf_counter()
    modems = [create_modem(name) for name in TRIO]
    gateway = GalioTGateway(
        modems,
        FS,
        detector="universal",
        front_end=RtlSdrModel(),
        backhaul=BackhaulLink(rate_bps=BACKHAUL_BPS, max_queue_s=BACKHAUL_QUEUE_S),
    )
    gateway.detector.calibrate(inputs.calibration)
    stream = StreamingGateway(gateway)
    # Warm the detector's FFT plans at the chunk size, then the edge and
    # codec on a representative segment; reset() forgets the warm chunk.
    stream.process_chunk(inputs.noise_chunk)
    stream.reset()
    gateway.edge.try_decode(inputs.warmup)
    gateway.codec.compress(inputs.warmup)
    t1 = time.perf_counter()
    pipe = Pipeline(gateway=gateway, stream=stream, workers=inputs.spec.workers)
    if pipe.workers:
        pipe.farm = ParallelCloudService(
            modems, FS, workers=pipe.workers, executor="process", telemetry=farm_telemetry
        )
        # One warm-up segment per worker, all in flight together, so each
        # worker process is forked and warmed before the measured loop.
        # Their results are not absorbed: stats and telemetry stay clean.
        warm = [pipe.farm.submit_future(inputs.warmup) for _ in range(pipe.workers)]
        for future in warm:
            future.result()
    else:
        pipe.service = CloudService(modems, FS)
        pipe.service.process_segment(inputs.warmup)
        pipe.service.stats = CloudStats()
    t2 = time.perf_counter()
    return pipe, t1 - t0, t2 - t1


@dataclass
class RunLog:
    """Everything one driven run produced (all passes)."""

    passes: int = 0
    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Per pass: cloud frames in segment order, as (technology, payload
    #: hex, method, frame start in pass). Segment bounds are left out: a
    #: noise detection late in a pass can join the next pass's first
    #: segment, which moves that segment's start but not its frames.
    cloud_frames: list[list[tuple]] = field(default_factory=list)
    #: Per pass: edge-decoded (technology, payload hex) in stream order.
    edge_frames: list[list[tuple]] = field(default_factory=list)
    segments: int = 0
    shipped: int = 0
    events: int = 0
    raw_bits: int = 0
    shipped_bits: int = 0
    failed: list[str] = field(default_factory=list)
    stats: CloudStats | None = None


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def drive(pipe: Pipeline, inputs: Inputs, tracer=None) -> RunLog:
    """Play every pass of ``inputs`` through ``pipe`` in a closed loop.

    The stream is continuous: pass ``k`` starts at sample
    ``k * pass_samples``, and a segment's id is its capture start index.
    """
    log = RunLog()
    stream, farm, service = pipe.stream, pipe.farm, pipe.service
    pass_samples = inputs.pass_samples
    inflight: deque = deque()
    done_at: dict[int, float] = {}

    def span(name: str, segment: int | None = None):
        return tracer.span(name, segment) if tracer is not None else nullcontext()

    def record(pass_idx: int, segment, results, handed: float, finished: float) -> None:
        log.latencies_s.append(finished - handed)
        log.cloud_frames[pass_idx].extend(
            (r.technology, r.payload.hex(), r.method, r.start - pass_idx * pass_samples)
            for r in results
            if r.ok
        )

    def settle_oldest() -> None:
        pass_idx, segment, future, handed = inflight.popleft()
        with span("cloud.parallel.wait", segment.start):
            try:
                raw = future.result()
            except Exception as exc:  # a failed segment is counted, not fatal
                log.failed.append(f"segment {segment.start}: {exc!r}")
                return
        results = farm.absorb_result(raw)
        # The done-callback may run just after result() wakes this thread.
        finished = done_at.pop(segment.start, None) or time.perf_counter()
        record(pass_idx, segment, results, handed, finished)

    def ship(pass_idx: int, report, handed: float) -> None:
        log.segments += len(report.segments)
        log.events += len(report.events)
        log.raw_bits += report.raw_bits
        log.shipped_bits += report.shipped_bits
        log.edge_frames[pass_idx].extend(
            (r.technology, r.payload.hex()) for r in report.edge_results if r.ok
        )
        for segment in report.shipped:
            log.shipped += 1
            if farm is None:
                try:
                    results = service.process_segment(segment)
                except Exception as exc:
                    log.failed.append(f"segment {segment.start}: {exc!r}")
                    continue
                record(pass_idx, segment, results, handed, time.perf_counter())
                continue
            while len(inflight) >= pipe.workers:
                settle_oldest()
            with span("cloud.parallel.submit", segment.start):
                future = farm.submit_future(segment)
            key = segment.start
            future.add_done_callback(
                lambda _f, key=key: done_at.setdefault(key, time.perf_counter())
            )
            inflight.append((pass_idx, segment, future, handed))

    root = tracer.open("bench.run") if tracer is not None else None
    cpu0 = _cpu_self()
    t0 = time.perf_counter()
    for pass_idx, chunks in enumerate(inputs.chunks):
        log.cloud_frames.append([])
        log.edge_frames.append([])
        for chunk in chunks:
            report = stream.process_chunk(chunk)
            ship(pass_idx, report, time.perf_counter())
        log.passes += 1
    ship(log.passes - 1, stream.finalize(), time.perf_counter())
    while inflight:
        settle_oldest()
    log.wall_s = time.perf_counter() - t0
    log.cpu_self_s = _cpu_self() - cpu0
    if root is not None:
        tracer.close(root)
    log.stats = pipe.stats
    return log


# -- correctness gates ------------------------------------------------------


def truth_sets(inputs: Inputs) -> list[set[tuple[str, str]]]:
    """Per pass: the (technology, payload hex) of every transmitted frame."""
    return [{(f.technology, f.payload.hex()) for f in frames} for frames in inputs.frames]


#: Z-Wave's frame check is an 8-bit XOR checksum and the modem does not
#: filter on home ID, so any Z-Wave demodulation of other energy passes
#: with p ~ 1/256 (measured: 2 of 300 attempts on LoRa frames). The edge
#: tries every modem on every segment, so a pass of this benchmark makes
#: dozens of such attempts and an exact-zero gate would fail ~1 seed in 8
#: on the protocol, not on the program. Z-Wave false accepts are added to
#: the result's ``failed`` count; more than this many in one pass fails
#: the run. LoRa and XBee frames carry a CRC-16: one false decode of
#: theirs fails the run.
WEAK_CHECK_FALSE_PER_PASS = {"zwave": 2}


def _decoded(log: RunLog) -> list[set[tuple[str, str]]]:
    """Per pass: (technology, payload hex) decoded by the edge or the cloud."""
    return [
        {(t, p) for t, p, _, _ in cloud} | set(edge)
        for cloud, edge in zip(log.cloud_frames, log.edge_frames, strict=True)
    ]


def false_decodes(log: RunLog, truths: list[set[tuple[str, str]]]) -> list[list[tuple[str, str]]]:
    """Per pass: decoded (technology, payload) pairs never transmitted in it."""
    return [sorted(got - truth) for got, truth in zip(_decoded(log), truths, strict=True)]


def gate_frames(log: RunLog, truths: list[set[tuple[str, str]]]) -> list[str]:
    """Failures of the per-run gate; an empty list means the run passed.

    No decoded payload (edge or cloud) may be one never transmitted in
    its pass, within :data:`WEAK_CHECK_FALSE_PER_PASS`.
    """
    problems = []
    for k, false in enumerate(false_decodes(log, truths)):
        for tech, payload in false:
            allowed = WEAK_CHECK_FALSE_PER_PASS.get(tech, 0)
            if sum(t == tech for t, _ in false) > allowed:
                problems.append(f"pass {k}: false decode {tech} {payload}")
    return problems


def delivered(log: RunLog, truths: list[set[tuple[str, str]]]) -> int:
    """Transmitted frames decoded by the edge or the cloud, summed over passes."""
    return sum(len(got & truth) for got, truth in zip(_decoded(log), truths, strict=True))


def gate_same_frames(mine: list[list], other: list[list] | None, other_name: str) -> list[str]:
    """Serial and farm runs at one seed must return identical frame lists.

    Both are per-pass lists; the passes the two runs share are compared.
    """
    if other is None:
        return []
    shared = min(len(mine), len(other))
    if [[tuple(f) for f in p] for p in mine[:shared]] == [
        [tuple(f) for f in p] for p in other[:shared]
    ]:
        return []
    return [f"frame list differs from {other_name} at the same seed"]


# -- metrics ----------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(
    log: RunLog,
    inputs: Inputs,
    setup_s: float,
    worker_cpu_s: float,
    mem_peak_mb: float,
) -> dict[str, float]:
    air_s = log.passes * inputs.pass_seconds
    truths = truth_sets(inputs)
    sent = sum(len(truth) for truth in truths)
    return {
        "setup_s": setup_s,
        "realtime_factor": air_s / log.wall_s,
        "frames_per_s": delivered(log, truths) / log.wall_s,
        "cpu_s_per_capture_s": (log.cpu_self_s + worker_cpu_s) / air_s,
        "mem_peak_mb": mem_peak_mb,
        "backhaul_saving_x": log.raw_bits / log.shipped_bits,
        "delivery_ratio": delivered(log, truths) / sent,
    }
