"""Per-layer metrics and the self-time table of the traced run."""

from __future__ import annotations

from repro.telemetry import Telemetry

from harness import RunLog, median
from tracer import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("gateway.rtlsdr.busy_s", "s", "lower"),
    ("gateway.detection.busy_s", "s", "lower"),
    ("gateway.detection.events_per_segment", "count", "lower"),
    ("gateway.streaming.self_s", "s", "lower"),
    ("gateway.edge.busy_s", "s", "lower"),
    ("gateway.edge.resolved_ratio", "ratio", "higher"),
    ("gateway.compression.busy_s", "s", "lower"),
    ("gateway.compression.ratio", "x", "higher"),
    ("gateway.backhaul.shipped_bits", "bit", "lower"),
    ("cloud.pipeline.busy_s", "s", "lower"),
    ("cloud.classify.busy_s", "s", "lower"),
    ("cloud.classify.calls", "count", "lower"),
    ("cloud.classify.candidates", "count", "lower"),
    ("cloud.kill_filters.busy_s", "s", "lower"),
    ("cloud.kill_filters.invocations", "count", "lower"),
    ("cloud.kill_filters.success_ratio", "ratio", "higher"),
    ("cloud.sic.try_decode.busy_s", "s", "lower"),
    ("cloud.sic.try_decode.calls", "count", "lower"),
    ("cloud.sic.try_decode.ok_ratio", "ratio", "higher"),
    ("cloud.sic.reconstruct.busy_s", "s", "lower"),
    ("cloud.sic.reconstruct.cancellations", "count", "lower"),
    ("phy.lora.demodulate.busy_s", "s", "lower"),
    ("phy.xbee.demodulate.busy_s", "s", "lower"),
    ("phy.zwave.demodulate.busy_s", "s", "lower"),
    ("dsp.fastcorr.busy_s", "s", "lower"),
    ("dsp.fastcorr.calls", "count", "lower"),
    ("dsp.resample.busy_s", "s", "lower"),
    ("dsp.resample.plan_builds", "count", "lower"),
    ("cloud.segment_latency_p50_ms", "ms", "lower"),
    ("cloud.parallel.submit_s", "s", "lower"),
    ("cloud.parallel.wait_s", "s", "lower"),
    ("cloud.parallel.worker_busy_share", "ratio", "higher"),
    ("cloud.parallel.shm_fallbacks", "count", "lower"),
    ("cloud.parallel.requeued", "count", "lower"),
    ("setup.gateway_s", "s", "lower"),
    ("setup.cloud_s", "s", "lower"),
    ("gateway.wall_share", "ratio", "lower"),
    ("cloud.wall_share", "ratio", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def worker_table(farm_telemetry: Telemetry) -> dict[str, dict[str, float]]:
    """Rolled-up ``trace.<layer>.{busy,self}`` timers of the farm workers."""
    table: dict[str, dict[str, float]] = {}
    for key, timer in farm_telemetry.timers.items():
        if not key.startswith("trace."):
            continue
        name, kind = key[len("trace.") :].rsplit(".", 1)
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if kind == "self":
            row["calls"] += timer.count
            row["self_s"] += timer.total_s
        else:
            row["busy_s"] += timer.total_s
    return table


def per_layer(
    tracer: Tracer,
    traced: RunLog,
    untraced: RunLog,
    farm_telemetry: Telemetry | None,
    setup_gateway_s: float,
    setup_cloud_s: float,
    workers: int,
) -> tuple[dict[str, float], dict]:
    """Every per-layer metric, plus the self-time table behind them."""
    parent = tracer.layer_table()
    worker = worker_table(farm_telemetry) if farm_telemetry is not None else {}
    counts = dict(tracer.counts)
    if farm_telemetry is not None:
        for key, value in farm_telemetry.counters.items():
            if key.startswith("trace."):
                name = key[len("trace.") :]
                counts[name] = counts.get(name, 0.0) + value

    def total(name: str, field: str) -> float:
        return sum(t.get(name, {}).get(field, 0.0) for t in (parent, worker))

    root = next(s for s in tracer.spans if s.name == "bench.run")
    wall = root.dur
    top = [s for s in tracer.spans if s.parent == root.id]
    stats = traced.stats
    kill_ok = sum(n for m, n in stats.by_method.items() if m.startswith("kill-"))
    decode_calls = total("cloud.sic.try_decode", "calls")
    metrics = {
        "gateway.rtlsdr.busy_s": total("gateway.rtlsdr", "busy_s"),
        "gateway.detection.busy_s": total("gateway.detection", "busy_s"),
        "gateway.detection.events_per_segment": _ratio(traced.events, traced.segments),
        "gateway.streaming.self_s": total("gateway.streaming", "self_s"),
        "gateway.edge.busy_s": total("gateway.edge", "busy_s"),
        "gateway.edge.resolved_ratio": _ratio(
            counts.get("gateway.edge.resolved", 0), counts.get("gateway.edge.segments", 0)
        ),
        "gateway.compression.busy_s": total("gateway.compression", "busy_s"),
        "gateway.compression.ratio": _ratio(
            counts.get("gateway.compression.raw_bits", 0),
            counts.get("gateway.compression.shipped_bits", 0),
        ),
        "gateway.backhaul.shipped_bits": float(traced.shipped_bits),
        "cloud.pipeline.busy_s": total("cloud.pipeline", "busy_s"),
        "cloud.classify.busy_s": total("cloud.classify", "busy_s"),
        "cloud.classify.calls": total("cloud.classify", "calls"),
        "cloud.classify.candidates": counts.get("cloud.classify.candidates", 0.0),
        "cloud.kill_filters.busy_s": total("cloud.kill_filters", "busy_s"),
        "cloud.kill_filters.invocations": float(stats.kill_invocations),
        "cloud.kill_filters.success_ratio": _ratio(kill_ok, stats.kill_invocations),
        "cloud.sic.try_decode.busy_s": total("cloud.sic.try_decode", "busy_s"),
        "cloud.sic.try_decode.calls": decode_calls,
        "cloud.sic.try_decode.ok_ratio": _ratio(
            counts.get("cloud.sic.try_decode.ok", 0), decode_calls
        ),
        "cloud.sic.reconstruct.busy_s": total("cloud.sic.reconstruct", "busy_s"),
        "cloud.sic.reconstruct.cancellations": float(stats.sic_cancellations),
        "phy.lora.demodulate.busy_s": total("phy.lora.demodulate", "busy_s"),
        "phy.xbee.demodulate.busy_s": total("phy.xbee.demodulate", "busy_s"),
        "phy.zwave.demodulate.busy_s": total("phy.zwave.demodulate", "busy_s"),
        "dsp.fastcorr.busy_s": total("dsp.fastcorr", "busy_s"),
        "dsp.fastcorr.calls": total("dsp.fastcorr", "calls"),
        "dsp.resample.busy_s": total("dsp.resample", "busy_s"),
        "dsp.resample.plan_builds": counts.get("dsp.resample.plan_builds", 0.0),
        # From the untraced pass: handover to results back, per segment.
        "cloud.segment_latency_p50_ms": 1e3 * median(untraced.latencies_s),
        "cloud.parallel.submit_s": total("cloud.parallel.submit", "busy_s"),
        "cloud.parallel.wait_s": total("cloud.parallel.wait", "busy_s"),
        "cloud.parallel.worker_busy_share": _ratio(
            worker.get("cloud.pipeline", {}).get("busy_s", 0.0), workers * wall
        ),
        "cloud.parallel.shm_fallbacks": float(
            farm_telemetry.counters.get("cloud.parallel.shm_fallbacks", 0)
            if farm_telemetry is not None
            else 0
        ),
        "cloud.parallel.requeued": float(stats.requeued),
        "setup.gateway_s": setup_gateway_s,
        "setup.cloud_s": setup_cloud_s,
        "gateway.wall_share": _ratio(
            sum(s.dur for s in top if s.name.startswith("gateway.")), wall
        ),
        "cloud.wall_share": _ratio(sum(s.dur for s in top if s.name.startswith("cloud.")), wall),
        "unattributed_s": root.self_s,
        "trace.overhead": wall / untraced.wall_s - 1.0,
    }
    table = {
        "traced_wall_s": wall,
        "untraced_wall_s": untraced.wall_s,
        "unattributed_s": root.self_s,
        "parent_layers": {k: v for k, v in parent.items() if k != "bench.run"},
        "worker_layers": worker,
    }
    return metrics, table


def format_table(table: dict) -> str:
    """Self-time table: parent rows sum (with unattributed) to the wall."""
    wall = table["traced_wall_s"]
    lines = [f"{'layer':32s} {'calls':>7s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    rows = sorted(table["parent_layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        lines.append(
            f"{name:32s} {int(row['calls']):7d} {row['busy_s']:9.4f} "
            f"{row['self_s']:9.4f} {100 * row['self_s'] / wall:6.2f}"
        )
    lines.append(
        f"{'unattributed_s':32s} {'':7s} {'':9s} {table['unattributed_s']:9.4f} "
        f"{100 * table['unattributed_s'] / wall:6.2f}"
    )
    total = sum(r["self_s"] for r in table["parent_layers"].values()) + table["unattributed_s"]
    lines.append(f"{'sum (= traced wall)':32s} {'':7s} {'':9s} {total:9.4f} {wall:9.4f}")
    if table["worker_layers"]:
        lines.append("farm workers (telemetry rollup, summed over workers):")
        for name, row in sorted(table["worker_layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"  {name:30s} {int(row['calls']):7d} {row['busy_s']:9.4f} {row['self_s']:9.4f}"
            )
    return "\n".join(lines)
