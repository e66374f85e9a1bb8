"""Command-line entry point: ``galiot <command>``.

Two families of subcommands:

* one per paper-reproduction experiment (``galiot table1``,
  ``galiot fig3b --trials 5`` …) printing its table;
* ``galiot stream`` — run the chunked :class:`~repro.gateway.streaming.
  StreamingGateway` over a synthetic scene with live telemetry and print
  the per-chunk progress plus the end-to-end stage breakdown;
* ``galiot cloud --workers N`` — stream a collision-heavy scene through
  the gateway and fan the shipped segments out over the
  :class:`~repro.cloud.parallel.ParallelCloudService` decode farm
  (``--workers 0`` decodes serially for comparison);
* ``galiot chaos --scenario mixed`` / ``galiot attack --scenario
  mixed`` — one scored :mod:`repro.drill`: run the same end-to-end
  pipeline under a seeded :class:`~repro.faults.FaultPlan` (backhaul
  outages, worker crashes/hangs, poison segments, front-end dropouts)
  or :class:`~repro.net.adversary.AttackPlan` (jammers, replays,
  spoofs), and report frame survival versus a clean baseline run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .contracts import set_sanitize_mode

from .experiments import (
    format_table,
    run_battery,
    run_boundary,
    run_compression,
    run_compression_depth,
    run_overlap,
    run_roc,
    run_edge_cloud,
    run_fig3b,
    run_fig3c,
    run_headline,
    run_hopping,
    run_kill_filters,
    run_scaling,
    run_sic_depth,
    run_table1,
)
from .telemetry import Telemetry, format_snapshot

_EXPERIMENTS = {
    "table1": lambda args: run_table1(),
    "fig3b": lambda args: run_fig3b(trials_per_band=args.trials).table(),
    "fig3c": lambda args: run_fig3c(episodes_per_bucket=args.trials).table(),
    "headline": lambda args: run_headline(
        detection_trials=args.trials, episodes_per_bucket=args.trials
    ).table(),
    "scaling": lambda args: run_scaling(),
    "compression": lambda args: run_compression(),
    "kill-filters": lambda args: run_kill_filters(),
    "edge-cloud": lambda args: run_edge_cloud(),
    "sic-depth": lambda args: run_sic_depth(),
    "boundary": lambda args: run_boundary(trials=args.trials),
    "hopping": lambda args: run_hopping(),
    "roc": lambda args: run_roc(trials=args.trials),
    "compression-depth": lambda args: run_compression_depth(trials=args.trials),
    "overlap": lambda args: run_overlap(trials=args.trials),
    "battery": lambda args: run_battery(rounds=max(args.trials, 1)),
}


def _run_experiment(args: argparse.Namespace) -> int:
    table = _EXPERIMENTS[args.command](args)
    print(format_table(table))
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    """Chunked streaming demo: scene -> StreamingGateway -> telemetry."""
    from .gateway import GalioTGateway, StreamingGateway, iter_chunks
    from .net.scene import SceneBuilder
    from .phy import create_modem

    fs = 1e6
    rng = np.random.default_rng(args.seed)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    builder = SceneBuilder(fs, args.duration)
    n_samples = int(args.duration * fs)
    for i in range(args.packets):
        modem = modems[i % len(modems)]
        start = int((i + 0.5) * n_samples / args.packets)
        builder.add_packet(
            modem, f"stream-{i}".encode(), start, args.snr, rng,
            snr_mode="capture",
        )
    capture, truth = builder.render(rng)

    telemetry = Telemetry()
    gateway = GalioTGateway(
        modems, fs, detector=args.detector, telemetry=telemetry
    )
    # Freeze the operating point on a noise-only stretch so every chunk
    # (and a monolithic rerun) shares one threshold.
    noise = (
        rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    ) * np.sqrt(truth.noise_power / 2)
    gateway.detector.calibrate(noise)

    stream = StreamingGateway(gateway)
    total_events = total_segments = total_bits = 0
    for n, report in enumerate(
        stream.run(iter_chunks(capture, args.chunk))
    ):
        total_events += len(report.events)
        total_segments += len(report.segments)
        total_bits += report.shipped_bits
        label = f"chunk {n:3d}" if n * args.chunk < len(capture) else "finalize"
        print(
            f"{label}: +{len(report.events)} events, "
            f"+{len(report.segments)} segments, "
            f"+{report.shipped_bits} bits shipped"
        )
    print(
        f"\ntotals: {total_events} events, {total_segments} segments, "
        f"{total_bits} bits shipped "
        f"({args.packets} packets in {args.duration:.2f} s of capture)\n"
    )
    print(format_snapshot(telemetry.snapshot()))
    return 0


def _run_cloud(args: argparse.Namespace) -> int:
    """Gateway -> cloud farm demo: shipped segments decoded in parallel."""
    import time

    from .cloud import CloudService, ParallelCloudService
    from .gateway import GalioTGateway, StreamingGateway, iter_chunks
    from .net.scene import SceneBuilder
    from .phy import create_modem

    fs = 1e6
    rng = np.random.default_rng(args.seed)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    builder = SceneBuilder(fs, args.duration)
    n_samples = int(args.duration * fs)
    for i in range(args.packets):
        modem = modems[i % len(modems)]
        # Every other packet lands on top of its predecessor, so the
        # farm sees a realistic mix of clean and collided segments.
        slot = (i // 2 * 2 + 0.5) * n_samples / args.packets
        start = int(slot) + (i % 2) * 400
        builder.add_packet(
            modem, f"cloud-{i}".encode(), start, args.snr, rng,
            snr_mode="capture",
        )
    capture, truth = builder.render(rng)

    telemetry = Telemetry()
    gateway = GalioTGateway(
        modems, fs, use_edge=False, telemetry=telemetry
    )
    noise = (
        rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    ) * np.sqrt(truth.noise_power / 2)
    gateway.detector.calibrate(noise)

    stream = StreamingGateway(gateway)
    if args.workers < 1:
        service = CloudService(modems, fs, telemetry=telemetry)
        label = "serial"
    else:
        service = ParallelCloudService(
            modems, fs, workers=args.workers, telemetry=telemetry
        )
        label = f"{args.workers} workers"

    results = []
    t0 = time.perf_counter()
    try:
        for report in stream.run(iter_chunks(capture, args.chunk)):
            for segment in report.shipped:
                if args.workers < 1:
                    results.extend(service.process_segment(segment))
                else:
                    service.submit(segment)
        if args.workers >= 1:
            results = service.drain()
    finally:
        # A crashed run must not leave worker processes behind; the
        # segments went to them through the pool's pipe, so the worker
        # processes are all there is to release. close() is idempotent.
        if args.workers >= 1:
            service.close()
    elapsed = time.perf_counter() - t0

    stats = service.stats
    rate = stats.segments / elapsed if elapsed > 0 else float("inf")
    print(
        f"cloud [{label}]: {stats.segments} segments, "
        f"{stats.frames_decoded} frames decoded in {elapsed:.2f} s "
        f"({rate:.2f} segments/s)"
    )
    print(f"  by method: {stats.by_method}")
    print(f"  by technology: {stats.by_technology}")
    for r in results:
        print(f"  {r.technology:>6s} @ {r.start:>9d} via {r.method}: {r.payload!r}")
    print()
    print(format_snapshot(telemetry.snapshot()))
    return 0


def _run_drill(args: argparse.Namespace) -> int:
    """Scored drill (``chaos`` or ``attack``): baseline vs. perturbed run."""
    from .drill import DrillScene, describe_plan, run_drill

    scene = DrillScene(
        seed=args.seed, duration_s=args.duration, packets=args.packets, snr_db=args.snr,
        technologies=tuple(n.strip() for n in args.technologies.split(",")),
        rate_mbps=args.rate_mbps, chunk=args.chunk,
    )
    plan = scene.plan(args.command, args.scenario)
    print(f"scenario {args.scenario!r} (seed {args.seed}):")
    for line in describe_plan(plan):
        print(f"  {line}")
    print()
    report = run_drill(
        plan, args.scenario, scene,
        hardened=not getattr(args, "unhardened", False),  # attack only
        workers=getattr(args, "workers", 2),  # chaos only
    )
    print("\n".join(report.summary()))
    print()
    print(format_snapshot(report.telemetry.snapshot()))
    return 0 if report.passed() else 1


def _run_lint(args: argparse.Namespace) -> int:
    """Run the repo's DSP-aware linter (``tools/galiot_lint``)."""
    try:
        from galiot_lint.cli import main as lint_main
    except ImportError:
        tools = Path(__file__).resolve().parents[2] / "tools"
        if not (tools / "galiot_lint").is_dir():
            print(
                "galiot-lint is unavailable (tools/galiot_lint not found; "
                "run from a source checkout)",
                file=sys.stderr,
            )
            return 2
        sys.path.insert(0, str(tools))
        from galiot_lint.cli import main as lint_main
    return lint_main(args.lint_argv)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_drill_args(parser: argparse.ArgumentParser) -> None:
    """The scene and pipeline flags ``chaos`` and ``attack`` share, and
    their shared runner."""
    parser.add_argument(
        "--chunk", type=_positive_int, default=262_144,
        help="streaming chunk size in samples (default: 262144)",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="scene duration in seconds (default: 2.0)",
    )
    parser.add_argument(
        "--packets", type=_positive_int, default=48,
        help="honest packets placed in the scene (default: 48; the 95%% "
        "survival bar needs a few dozen)",
    )
    parser.add_argument(
        "--snr", type=float, default=12.0,
        help="per-packet capture SNR in dB (default: 12)",
    )
    parser.add_argument(
        "--rate-mbps", type=float, default=20.0,
        help="backhaul link rate in Mbit/s (default: 20)",
    )
    parser.add_argument(
        "--technologies", default="xbee,zwave",
        help="comma-separated modem round-robin (default: xbee,zwave; "
        "adding lora merges packets into few large segments)",
    )
    parser.add_argument(
        "--seed", type=int, default=0xC0FFEE,
        help="scene + plan RNG seed",
    )
    parser.set_defaults(func=_run_drill)


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch one subcommand."""
    parser = argparse.ArgumentParser(
        prog="galiot",
        description=(
            "GalioT (HotNets'18) reproduction: regenerate the paper's "
            "tables and figures, or drive the streaming gateway."
        ),
    )
    parser.add_argument(
        "--sanitize",
        choices=["off", "warn", "raise"],
        default=None,
        help=(
            "runtime signal-contract mode for this invocation "
            "(overrides the GALIOT_SANITIZE environment variable)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_EXPERIMENTS):
        exp = sub.add_parser(name, help=f"run the {name} experiment")
        exp.add_argument(
            "--trials",
            type=int,
            default=3,
            help="scenes/episodes per band or bucket (larger = smoother)",
        )
        exp.set_defaults(func=_run_experiment)
    stream = sub.add_parser(
        "stream",
        help="run the chunked streaming gateway with end-to-end telemetry",
    )
    stream.add_argument(
        "--chunk", type=_positive_int, default=262_144,
        help="chunk size in samples (default: 262144)",
    )
    stream.add_argument(
        "--duration", type=float, default=1.0,
        help="scene duration in seconds (default: 1.0)",
    )
    stream.add_argument(
        "--packets", type=_positive_int, default=6,
        help="packets placed in the scene (default: 6)",
    )
    stream.add_argument(
        "--snr", type=float, default=10.0,
        help="per-packet capture SNR in dB (default: 10)",
    )
    stream.add_argument(
        "--detector", choices=["universal", "bank", "energy"],
        default="universal", help="detector to stream (default: universal)",
    )
    stream.add_argument(
        "--seed", type=int, default=0xC0FFEE, help="scene RNG seed"
    )
    stream.set_defaults(func=_run_stream)
    cloud = sub.add_parser(
        "cloud",
        help="stream a scene into the parallel cloud decode farm",
    )
    cloud.add_argument(
        "--workers", type=int, default=2,
        help="decode farm size; 0 = serial CloudService (default: 2)",
    )
    cloud.add_argument(
        "--chunk", type=_positive_int, default=262_144,
        help="streaming chunk size in samples (default: 262144)",
    )
    cloud.add_argument(
        "--duration", type=float, default=1.0,
        help="scene duration in seconds (default: 1.0)",
    )
    cloud.add_argument(
        "--packets", type=_positive_int, default=6,
        help="packets placed in the scene, pairwise-collided (default: 6)",
    )
    cloud.add_argument(
        "--snr", type=float, default=12.0,
        help="per-packet capture SNR in dB (default: 12)",
    )
    cloud.add_argument(
        "--seed", type=int, default=0xC0FFEE, help="scene RNG seed"
    )
    cloud.set_defaults(func=_run_cloud)
    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault scenario through the resilient pipeline",
    )
    from .faults import SCENARIOS

    chaos.add_argument(
        "--scenario", choices=SCENARIOS, default="mixed",
        help="named fault scenario to inject (default: mixed)",
    )
    chaos.add_argument(
        "--workers", type=_positive_int, default=2,
        help="decode farm size (default: 2)",
    )
    _add_drill_args(chaos)
    attack = sub.add_parser(
        "attack",
        help="run a seeded adversary scenario against the hardened pipeline",
    )
    from .net.adversary import ATTACK_SCENARIOS

    attack.add_argument(
        "--scenario", choices=ATTACK_SCENARIOS, default="mixed",
        help="named attack scenario to render (default: mixed; 'none' "
        "measures the hardening layer's clean-air overhead)",
    )
    attack.add_argument(
        "--unhardened", action="store_true",
        help="disable the hardened receive path (what the guards are worth)",
    )
    _add_drill_args(attack)
    # Every argument after ``lint`` goes to galiot-lint unchanged, so
    # its own parser (and ``galiot lint --help``) is the one reference.
    lint = sub.add_parser(
        "lint",
        add_help=False,
        help="run the DSP-aware static-analysis pass (galiot-lint); "
        "see `galiot lint --help`",
    )
    lint.set_defaults(func=_run_lint)
    args, rest = parser.parse_known_args(argv)
    if args.func is _run_lint:
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.sanitize is not None:
        set_sanitize_mode(args.sanitize)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
