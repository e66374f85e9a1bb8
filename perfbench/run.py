"""GalioT gateway->cloud pipeline benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload collision_dense_farm2 --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload in turn in one process and
reports their metrics prefixed with the workload's name (there,
``mem_peak_mb`` is the process's running peak).

``--seconds`` only sets how many passes of the workload's air run
(``WorkloadSpec.passes``), so a run's work never depends on how fast
the box is. ``--trace 0`` measures the end-to-end metrics with the
default ``NULL`` telemetry; ``--trace 1`` runs one pass untraced and
one pass traced and reports the per-layer metrics. Human-readable lines
come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Trace artifacts
and frame lists go to ``.perfbench-out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before NumPy loads: OpenBLAS defaults
# to one thread per core, so two farm workers would otherwise run four
# BLAS threads on two cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: Knobs that select non-shipping code paths, with their default values.
#: The parent commit and a change must both measure the shipping path.
SHIPPING_ENV = {"GALIOT_BACKEND": "numpy", "GALIOT_FASTCORR": "on", "GALIOT_SANITIZE": "off"}

#: (name, unit, better) of every end-to-end metric, in report order.
#: Segment latency is measured too, but reported as the per-layer
#: ``cloud.segment_latency_p50_ms``: README.md says why it has no bound.
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("realtime_factor", "x", "higher"),
    ("frames_per_s", "1/s", "higher"),
    ("cpu_s_per_capture_s", "s/s", "lower"),
    ("mem_peak_mb", "MB", "lower"),
    ("backhaul_saving_x", "x", "higher"),
    ("delivery_ratio", "ratio", "higher"),
]
SETUP_REPEATS = 3


class BenchError(Exception):
    """A condition under which the benchmark must not report a result."""


def check_environment() -> None:
    for var, default in SHIPPING_ENV.items():
        value = os.environ.get(var)
        if value is not None and value.strip().lower() != default:
            raise BenchError(f"{var}={value!r} selects a non-shipping path; unset it")


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {origin}, not from {SRC}")


def environment(workers: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus,
        "workers": workers,
        "underprovisioned": workers > cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def _children_cpu() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


def program_digest() -> str:
    """SHA-1 of every ``src/`` and ``perfbench/`` Python file, path included."""
    import hashlib

    digest = hashlib.sha1()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def cross_check(workload: str, seed: int, slots: int, frames: list) -> list[str]:
    """Compare with the twin collision workload's saved frame list.

    Lists are keyed on :func:`program_digest`, so only runs of the same
    program and inputs are ever compared. Pass ``k`` is the same in runs
    of any length, so the passes both runs played are compared.
    """
    import json

    from harness import gate_same_frames

    twins = {"collision_dense": "collision_dense_farm2", "collision_dense_farm2": "collision_dense"}
    if workload not in twins:
        return []
    key = f"seed{seed}-{slots}slots-{program_digest()}.json"
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"frames-{workload}-{key}"), "w", encoding="utf-8") as fh:
        json.dump(frames, fh)
    other = os.path.join(OUT, f"frames-{twins[workload]}-{key}")
    if not os.path.exists(other):
        print(f"cross-check: no {twins[workload]} frame list for this program and seed "
              f"yet; it is compared when that workload runs")
        return []
    with open(other, encoding="utf-8") as fh:
        problems = gate_same_frames(frames, json.load(fh), twins[workload])
    print(f"cross-check: frame list compared with {twins[workload]}: "
          + ("differs" if problems else "identical"))
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, slots: int | None = None) -> dict:
    """One benchmark run; returns the result object (not yet printed).

    ``slots`` shrinks the inputs for the self-test.
    """
    import json
    import statistics

    from harness import build, drive, end_to_end, false_decodes, gate_frames, median, truth_sets
    from workloads import WORKLOADS, render

    spec = WORKLOADS[workload]
    inputs = render(spec, seed, 1 if trace else spec.passes(seconds), slots=slots)
    print("environment " + json.dumps(environment(spec.workers)))
    print("workload " + json.dumps(
        {"name": workload, "seed": seed, "passes": inputs.passes, **inputs.descriptor}
    ))

    # Set up several times and report the median; the last build is the
    # one measured. Earlier farm builds are closed, and the CPU their
    # workers spent on pool start and warm-up stands in for the measured
    # farm's own, which RUSAGE_CHILDREN only reports once mixed in.
    gateway_s, cloud_s, warm_cpu = [], [], []
    for rep in range(SETUP_REPEATS):
        children0 = _children_cpu()
        pipe, g_s, c_s = build(inputs)
        gateway_s.append(g_s)
        cloud_s.append(c_s)
        if rep < SETUP_REPEATS - 1:
            pipe.close()
            warm_cpu.append(_children_cpu() - children0)
    setup_s = statistics.median(g + c for g, c in zip(gateway_s, cloud_s, strict=True))

    truths = truth_sets(inputs)
    try:
        log = drive(pipe, inputs)
    finally:
        pipe.close()
    logs = [log]
    if trace:
        metrics, units, traced = traced_metrics(
            inputs, log, statistics.median(gateway_s), statistics.median(cloud_s)
        )
        logs.append(traced)
    else:
        worker_cpu = 0.0
        if spec.workers:
            worker_cpu = max(_children_cpu() - children0 - statistics.median(warm_cpu), 0.0)
        values = end_to_end(log, inputs, setup_s, worker_cpu, _peak_rss_mb())
        metrics = {name: values[name] for name, _, _ in E2E_METRICS}
        units = {name: (unit, better) for name, unit, better in E2E_METRICS}
    problems = [p for lg in logs for p in gate_frames(lg, truths)]
    if logs[-1].cloud_frames != log.cloud_frames:
        problems.append("traced pass decoded different frames")
    problems += cross_check(
        workload,
        seed,
        len(spec.pattern[:slots] if slots else spec.pattern),
        [[list(f) for f in frames] for frames in log.cloud_frames],
    )
    failed = [f for lg in logs for f in lg.failed]
    # False decodes within the Z-Wave allowance leave the run correct but
    # count as failed operations, so a change that adds some shows.
    false = sum(len(f) for lg in logs for f in false_decodes(lg, truths))

    print(f"passes {log.passes}  wall {log.wall_s:.3f} s  segments shipped {log.shipped}  "
          f"failed {len(failed)}  false decodes {false}")
    print(f"segment latency p50 {1e3 * median(log.latencies_s):.1f} ms over "
          f"{len(log.latencies_s)} segments")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:40s} {value:14.6g} {unit:6s} ({better} is better)")
    for problem in problems + failed:
        print(f"GATE: {problem}")
    return {
        "correct": not problems and not failed,
        "attempted": max(sum(lg.shipped for lg in logs), 1),
        "failed": len(failed) + false,
        "metrics": {
            name: {"value": float(value), "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }


def traced_metrics(inputs, untraced, setup_gateway_s, setup_cloud_s):
    """Trace one pass on a fresh pipeline.

    Returns the per-layer metrics, their (unit, better) and the traced
    pass's log.
    """
    import json

    from harness import build, drive
    from layers import LAYER_METRICS, format_table, per_layer
    from repro.telemetry import NULL, Telemetry
    from tracer import Tracer, install_layers

    tracer = Tracer()
    install_layers(tracer)
    try:
        # Built after installation so forked farm workers run the
        # wrappers; the farm needs a real sink to roll their timers up.
        farm_telemetry = Telemetry() if inputs.spec.workers else None
        pipe, _, _ = build(inputs, farm_telemetry=farm_telemetry or NULL)
        tracer.spans.clear()
        tracer.counts.clear()
        try:
            traced = drive(pipe, inputs, tracer=tracer)
        finally:
            pipe.close()
    finally:
        tracer.uninstall()
    metrics, table = per_layer(
        tracer, traced, untraced, farm_telemetry, setup_gateway_s, setup_cloud_s,
        inputs.spec.workers,
    )
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{inputs.spec.name}-seed{inputs.seed}")
    tracer.write_spans(stem + "-spans.jsonl")
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
    print(format_table(table))
    return metrics, {name: (unit, better) for name, unit, better in LAYER_METRICS}, traced


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process a process-pool farm starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_environment()
        load_program()
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            raise BenchError(
                f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all"
            )
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
        stop_resource_tracker()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    # --workload all: every workload's metrics, prefixed with its name.
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
