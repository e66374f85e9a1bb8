#!/usr/bin/env python
"""Adversarial robustness: per-scenario survival and acceptance hygiene.

Runs every named :data:`~repro.net.adversary.ATTACK_SCENARIOS` scenario
through :func:`~repro.drill.run_attack_drill` — one clean
baseline plus one attacked, hardened pass each — and records, per
scenario:

* **survival** — fraction of baseline frames still accepted (gate:
  >= 95 %, same bar the ``galiot attack`` CLI enforces);
* **false-decode rate** — accepted frames matching no honest
  transmission (gate: <= 1 %);
* **replay accepts** — replayed frames accepted beyond the legitimate
  original (gate: 0);
* **detection latency** — first jammer on-air to first jamming event.

The ``none`` scenario doubles as the overhead probe: the same scene is
also run with the hardening layer disabled, and the wall-clock delta is
the price of the jamming detector + decode guard + resilient backhaul
on clean air (recorded, machine-dependent; correctness gate is that the
accepted frame sets are identical).

Like ``bench_resilience.py`` this is a standalone script emitting a
machine-readable ``BENCH_attack.json`` so successive PRs accumulate a
trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_attack.py          # full
    PYTHONPATH=src python benchmarks/bench_attack.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.net.adversary import ATTACK_SCENARIOS  # noqa: E402
from repro.drill import run_attack_drill  # noqa: E402

SEED = 0xC0FFEE
SURVIVAL_FLOOR = 0.95
FALSE_DECODE_CEILING = 0.01


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short scene, jam/replay scenarios only: CI plumbing check",
    )
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=Path("BENCH_attack.json"))
    args = parser.parse_args(argv)
    n_packets = args.packets or (16 if args.smoke else 48)
    duration_s = args.duration or (0.8 if args.smoke else 2.0)
    scenarios = (
        ("none", "pulse_jam", "replay") if args.smoke else ATTACK_SCENARIOS
    )

    print(
        f"fixture: {n_packets} packets / {duration_s:.2f} s capture, "
        f"seed {args.seed:#x}, cpu_count={os.cpu_count()}"
    )

    rows = []
    failed = []
    t_none_hardened = None
    for scenario in scenarios:
        t0 = time.perf_counter()
        report = run_attack_drill(
            scenario,
            seed=args.seed,
            duration_s=duration_s,
            packets=n_packets,
        )
        elapsed = time.perf_counter() - t0
        if scenario == "none":
            t_none_hardened = elapsed
        ok = report.passed(
            survival_floor=SURVIVAL_FLOOR,
            false_decode_ceiling=FALSE_DECODE_CEILING,
        )
        if not ok:
            failed.append(scenario)
        latency = report.detection_latency_s
        rows.append(
            {
                "scenario": scenario,
                "seconds": elapsed,
                "baseline_frames": report.baseline_frames,
                "accepted_frames": report.accepted_frames,
                "survival": report.survival,
                "false_decode_rate": report.false_decode_rate,
                "false_decodes": report.false_decodes,
                "replay_accepts": report.replay_accepts,
                "replays_rejected": report.guard.replays_rejected,
                "jamming_events": report.jamming_events,
                "detection_latency_s": latency,
                "degraded_segments": report.degraded_segments,
                "dropped_segments": report.dropped_segments,
                "passed": ok,
            }
        )
        latency_str = (
            "-" if latency is None
            else "undetected" if latency == float("inf")
            else f"{latency * 1e3:6.1f} ms"
        )
        print(
            f"{scenario:10s}: {elapsed:6.2f} s  "
            f"survival {report.survival * 100:5.1f} %  "
            f"false {report.false_decode_rate * 100:.2f} %  "
            f"replay_accepts {report.replay_accepts}  "
            f"latency {latency_str}  "
            f"{'ok' if ok else 'FAIL'}"
        )

    # Overhead probe: same clean scene, hardening layer off. Reusing
    # the root seed is deliberate — the A/B needs the bit-identical
    # capture, not an independent draw.
    t0 = time.perf_counter()
    unhardened = run_attack_drill(  # noqa: GL104
        "none",
        seed=args.seed,
        duration_s=duration_s,
        packets=n_packets,
        hardened=False,
    )
    t_none_plain = time.perf_counter() - t0
    hardened_none = next(r for r in rows if r["scenario"] == "none")
    overhead = (
        (t_none_hardened - t_none_plain) / t_none_plain
        if t_none_plain
        else 0.0
    )
    identical = (
        hardened_none["accepted_frames"] == unhardened.accepted_frames
        and hardened_none["survival"] == unhardened.survival
    )
    if not identical:
        failed.append("none-overhead")
    print(
        f"clean-air overhead: {overhead * 100:+.2f} % "
        f"(hardened {t_none_hardened:.2f} s vs plain {t_none_plain:.2f} s), "
        f"identical={identical}"
    )

    payload = {
        "bench": "attack",
        "schema": 1,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "n_packets": n_packets,
        "duration_s": duration_s,
        "gates": {
            "survival_floor": SURVIVAL_FLOOR,
            "false_decode_ceiling": FALSE_DECODE_CEILING,
            "replay_ceiling": 0,
        },
        "scenarios": rows,
        "overhead": {
            "hardened_seconds": t_none_hardened,
            "plain_seconds": t_none_plain,
            "overhead_fraction": overhead,
            "identical_to_plain": identical,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if failed:
        print(f"GATE FAILURES: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
