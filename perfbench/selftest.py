"""Tiny-size self-test of the pipeline benchmark (about a minute).

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``). Each workload runs with one
slot of its pattern and one pass, then the test checks that:

* every end-to-end metric named in ``BENCHMARK.json`` is emitted with
  its unit, and the benchmark's own table agrees on its direction;
* a traced run emits every per-layer metric the same way;
* the correctness gates trip on corrupted results.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (sets BLAS threads before NumPy loads)

bench.load_program()

import harness  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, render  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny(workload: str, trace: bool = False) -> dict:
    return bench.run(workload, seed=7, seconds=0.01, trace=trace, slots=1)


def _check_emitted(result: dict, declared: list[dict], table: list[tuple]) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    directions = {name: (unit, better) for name, unit, better in table}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert directions[metric["name"]] == (metric["unit"], metric["better"]), metric
        assert isinstance(emitted["value"], float)


def test_workloads_are_declared() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_end_to_end_metrics_emitted() -> None:
    for workload in WORKLOADS:
        result = _tiny(workload)
        _check_emitted(result, SPEC["end_to_end"], bench.E2E_METRICS)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_per_layer_metrics_emitted() -> None:
    result = _tiny("collision_dense_farm2", trace=True)
    _check_emitted(result, SPEC["per_layer"], LAYER_METRICS)
    metrics = result["metrics"]
    assert metrics["cloud.parallel.worker_busy_share"]["value"] > 0
    assert metrics["cloud.pipeline.busy_s"]["value"] > 0


def test_gates_trip_on_corrupted_results() -> None:
    inputs = render(WORKLOADS["collision_dense"], seed=7, passes=2, slots=1)
    truths = harness.truth_sets(inputs)
    pipe, _, _ = harness.build(inputs)
    try:
        log = harness.drive(pipe, inputs)
    finally:
        pipe.close()
    assert harness.gate_frames(log, truths) == []
    assert harness.delivered(log, truths) == sum(len(t) for t in truths)

    # A CRC-16 technology's false decode fails the run.
    false_decode = copy.deepcopy(log)
    k = next(i for i, f in enumerate(false_decode.cloud_frames[1]) if f[0] != "zwave")
    tech, payload, method, start = false_decode.cloud_frames[1][k]
    flipped = f"{int(payload[:2], 16) ^ 0xFF:02x}" + payload[2:]
    false_decode.cloud_frames[1][k] = (tech, flipped, method, start)
    problems = harness.gate_frames(false_decode, truths)
    assert any(f"false decode {tech}" in p for p in problems), problems
    # A frame of another pass is not in this pass's truth either.
    stray = copy.deepcopy(log)
    stray.cloud_frames[1].append(log.cloud_frames[0][k])
    assert harness.gate_frames(stray, truths) != []

    # Z-Wave's 8-bit checksum gets a small per-pass allowance, no more.
    allowed = harness.WEAK_CHECK_FALSE_PER_PASS["zwave"]
    for extra, trips in ((allowed, False), (allowed + 1, True)):
        weak = copy.deepcopy(log)
        for pass_edge in weak.edge_frames:
            pass_edge.extend(("zwave", f"{n:02x}" * 12) for n in range(extra))
        problems = harness.gate_frames(weak, truths)
        assert any("false decode zwave" in p for p in problems) == trips, problems

    frames = [[list(f) for f in p] for p in log.cloud_frames]
    assert harness.gate_same_frames(frames, copy.deepcopy(frames), "twin") == []
    assert harness.gate_same_frames(frames, frames[:1], "twin") == []  # shared passes only
    dropped = [frames[0][:-1], frames[1]]
    assert harness.gate_same_frames(frames, dropped, "twin") != []


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
    bench.stop_resource_tracker()
