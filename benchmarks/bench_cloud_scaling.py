#!/usr/bin/env python
"""Cloud decode-farm scaling: segments/sec vs worker count.

Measures the serial :class:`~repro.cloud.pipeline.CloudService` against
:class:`~repro.cloud.parallel.ParallelCloudService` at several pool
sizes over one fixture batch of shipped segments (clean frames plus
two-technology collisions), and checks that every parallel run is
result-identical to the serial run.

Unlike the pytest-benchmark files next to it, this is a standalone
script: it emits a machine-readable ``BENCH_cloud_scaling.json`` so
successive PRs accumulate a throughput trajectory (see the README note
on ``BENCH_*.json`` files).

Honesty note: the recorded speedup is whatever this machine produced —
``cpu_count`` is in the JSON, and on a single-core runner a process pool
cannot beat serial. Run on a multi-core host for the scaling headline.

Usage::

    PYTHONPATH=src python benchmarks/bench_cloud_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_cloud_scaling.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud import CloudService, ParallelCloudService  # noqa: E402
from repro.dsp.resample import (  # noqa: E402
    clear_resample_plan_cache,
    resample_plan_builds,
    resample_plan_cache_info,
    reset_resample_plan_builds,
)
from repro.net.scene import SceneBuilder  # noqa: E402
from repro.net.traffic import collision_scene  # noqa: E402
from repro.phy import create_modem  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.types import Segment  # noqa: E402

FS = 1e6


def build_segments(
    n_segments: int, payload_len: int, rng: np.random.Generator
) -> tuple[list, list[Segment]]:
    """A fixture batch: alternating clean frames and 2-deep collisions.

    The modem set includes sigfox (16 kHz native) alongside the paper's
    trio (1 MHz native), so every classify pass exercises cross-rate
    resampling.
    """
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave", "sigfox")]
    by = {m.name: m for m in modems}
    trio = [by["lora"], by["xbee"], by["zwave"]]
    segments: list[Segment] = []
    for i in range(n_segments):
        if i % 2 == 0:
            solo = trio[(i // 2) % len(trio)]
            builder = SceneBuilder(FS, 0.05)
            builder.add_packet(
                solo, f"seg-{i}".encode()[:payload_len], 3000, 15, rng
            )
            capture, _ = builder.render(rng)
        else:
            pair = [trio[i % len(trio)], trio[(i + 1) % len(trio)]]
            capture, _ = collision_scene(
                pair, [12, 12], FS, rng, payload_len=payload_len
            )
        segments.append(
            Segment(start=i * 100_000, samples=capture, sample_rate=FS)
        )
    return modems, segments


def run_serial(modems: list, segments: list[Segment]) -> tuple[list, object, float]:
    service = CloudService(modems, FS, telemetry=Telemetry())
    t0 = time.perf_counter()
    results = [r for s in segments for r in service.process_segment(s)]
    return results, service.stats, time.perf_counter() - t0


def run_parallel(
    modems: list, segments: list[Segment], workers: int, executor: str
) -> tuple[list, object, float]:
    warmup = Segment(
        start=0,
        samples=np.zeros(4096, dtype=complex) + 1e-6,
        sample_rate=FS,
    )
    with ParallelCloudService(
        modems, FS, workers=workers, telemetry=Telemetry(), executor=executor
    ) as farm:
        # Touch every worker once so pool spin-up and module import cost
        # is not billed to the measured batch.
        for _ in range(workers):
            farm.submit(warmup)
        farm.drain()
        farm.stats = type(farm.stats)()
        t0 = time.perf_counter()
        results = farm.process_segments(segments)
        elapsed = time.perf_counter() - t0
        stats = farm.stats
    return results, stats, elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scene + 2 workers: CI plumbing check, not a measurement",
    )
    parser.add_argument(
        "--workers", type=int, nargs="*", default=None,
        help="pool sizes to sweep (default: 1 2 4, smoke: 1 2)",
    )
    parser.add_argument(
        "--segments", type=int, default=None,
        help="fixture segments (default: 8, smoke: 2)",
    )
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="process",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_cloud_scaling.json"),
    )
    args = parser.parse_args(argv)
    n_segments = args.segments or (2 if args.smoke else 8)
    worker_counts = args.workers or ([1, 2] if args.smoke else [1, 2, 4])
    payload_len = 6 if args.smoke else 10

    rng = np.random.default_rng(0xC0FFEE)
    modems, segments = build_segments(n_segments, payload_len, rng)
    cpu_count = os.cpu_count() or 1
    underprovisioned = cpu_count < max(worker_counts)
    print(
        f"fixture: {n_segments} segments, {len(modems)} technologies, "
        f"cpu_count={cpu_count}"
    )
    if underprovisioned:
        print(
            f"WARNING: cpu_count={cpu_count} < max workers "
            f"{max(worker_counts)} — parallel 'speedups' below are "
            "scheduling noise, not scaling; rerun on a bigger box "
            "for the headline numbers",
            file=sys.stderr,
        )

    # Serial reference.
    clear_resample_plan_cache()
    ref_results, ref_stats, _warm = run_serial(modems, segments)
    reset_resample_plan_builds()
    ref_results2, _stats2, t_serial = run_serial(modems, segments)
    serial_plan_builds = resample_plan_builds()
    assert ref_results2 == ref_results, "serial decode is not deterministic"
    cache_info = resample_plan_cache_info()
    serial_rate = n_segments / t_serial
    print(f"serial           : {t_serial:7.2f} s  {serial_rate:6.3f} seg/s "
          f"(plan cache: {cache_info.hits} hits / {cache_info.misses} misses, "
          f"{serial_plan_builds} plan builds)")

    parallel_rows = []
    equivalence_ok = True
    for workers in worker_counts:
        results, stats, elapsed = run_parallel(
            modems, segments, workers, args.executor
        )
        identical = results == ref_results and stats == ref_stats
        equivalence_ok = equivalence_ok and identical
        rate = n_segments / elapsed
        parallel_rows.append(
            {
                "workers": workers,
                "underprovisioned": workers > cpu_count,
                "executor": args.executor,
                "seconds": elapsed,
                "segments_per_sec": rate,
                "speedup_vs_serial": rate / serial_rate,
                "identical_to_serial": identical,
            }
        )
        print(
            f"parallel w={workers:<2d}    : {elapsed:7.2f} s  {rate:6.3f} seg/s "
            f"({rate / serial_rate:.2f}x serial, identical={identical})"
        )

    payload = {
        "bench": "cloud_scaling",
        "schema": 4,
        "smoke": bool(args.smoke),
        "cpu_count": cpu_count,
        "underprovisioned": underprovisioned,
        "n_segments": n_segments,
        "technologies": [m.name for m in modems],
        "serial": {"seconds": t_serial, "segments_per_sec": serial_rate},
        "plan_builds": serial_plan_builds,
        "parallel": parallel_rows,
        "equivalence_ok": equivalence_ok,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not equivalence_ok:
        print("ERROR: parallel/serial results diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
