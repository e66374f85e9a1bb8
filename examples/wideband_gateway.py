#!/usr/bin/env python3
"""Wideband gateway: channelize a 4 MHz band, dispatch under SLAs.

Sec. 6 of the paper asks how a GalioT gateway should scale past one
RTL-SDR's bandwidth. This example exercises two of the design-space
answers implemented in this repo:

1. an FFT **channelizer** splits a 4 MHz capture into four 1 MHz
   sub-channels in software (the "replicated front-ends" option);
2. an SLA-aware **dispatcher** places each detected segment on an edge
   box or the cloud so latency-critical technologies (Z-Wave commands)
   meet their deadlines while bulk traffic (LoRa telemetry) takes the
   cheap path.

Run:  python examples/wideband_gateway.py
"""

import numpy as np

from repro.cloud import CloudService, ComputeNode, Dispatcher, SlaPolicy
from repro.dsp import frequency_shift, to_rate
from repro.gateway import (
    ChannelPlan,
    Channelizer,
    GalioTGateway,
)
from repro.phy import create_modem

WIDE_FS = 4e6
CH_BW = 1e6


def build_wide_scene(plan, rng):
    """Three packets on three different 1 MHz channels of the band."""
    placements = [
        ("zwave", 0, 0.02, b"unlock front door"),
        ("xbee", 1, 0.05, b"meter reading 0042"),
        ("lora", 3, 0.01, b"soil moisture 17%"),
    ]
    duration = 0.45
    wide = np.zeros(int(WIDE_FS * duration), complex)
    truth = []
    for tech, channel, t0, payload in placements:
        modem = create_modem(tech)
        wave = to_rate(modem.modulate(payload), modem.sample_rate, WIDE_FS)
        wave = frequency_shift(wave, plan.centers_hz[channel], WIDE_FS)
        start = int(t0 * WIDE_FS)
        wide[start : start + len(wave)] += wave[: len(wide) - start]
        truth.append((tech, channel, payload))
    wide += 0.02 * (rng.normal(size=len(wide)) + 1j * rng.normal(size=len(wide)))
    return wide, truth


def main() -> None:
    rng = np.random.default_rng(9)
    plan = ChannelPlan.uniform(WIDE_FS, CH_BW, 4)
    wide, truth = build_wide_scene(plan, rng)
    print(f"wideband capture: {len(wide)/WIDE_FS*1e3:.0f} ms at "
          f"{WIDE_FS/1e6:.0f} MHz, {plan.n_channels} channels\n")

    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    channels = Channelizer(plan).split(wide)

    # Per-channel GalioT gateway front ends (shared software!).
    gateway = GalioTGateway(modems, CH_BW, detector="universal", use_edge=False)
    cloud = CloudService(modems, CH_BW)
    dispatcher = Dispatcher(
        nodes=[
            ComputeNode("edge-pi", speed=2.0, rtt_s=0.002, cost=0.0),
            ComputeNode("cloud", speed=80.0, rtt_s=0.060, cost=1.0),
        ],
        policy=SlaPolicy(
            deadlines_s={"zwave": 0.15, "xbee": 0.5, "lora": 3.0}
        ),
    )

    decoded = []
    for channel, baseband in channels.items():
        report = gateway.process(baseband, rng)
        for segment in report.shipped:
            hint = None
            results = cloud.process_segment(segment)
            if results:
                hint = results[0].technology
            assignment = dispatcher.dispatch(
                segment, at_time=segment.start / CH_BW, technology_hint=hint
            )
            for r in results:
                decoded.append((r.technology, channel, r.payload, assignment))

    print("decoded across the band:")
    for tech, channel, payload, assignment in decoded:
        sla = "met" if assignment.meets_sla else "MISSED"
        print(f"  ch{channel} [{tech:6s}] {payload!r:28} "
              f"-> {assignment.node} (SLA {sla}, "
              f"{1e3 * (assignment.completes_at - assignment.submitted_at):.0f} ms)")

    got = {(t, p) for t, _, p, _ in decoded}
    want = {(t, p) for t, _, p in truth}
    print(f"\nrecovered {len(got & want)}/{len(want)} packets; "
          f"SLA miss rate {100 * dispatcher.sla_miss_rate:.0f}%")


if __name__ == "__main__":
    main()
