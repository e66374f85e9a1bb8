"""Span tracer for the traced run, recorded from the benchmark's side.

Nothing under ``src/`` changes: :func:`install_layers` swaps each
layer's public entry point for a timing wrapper, in the defining class
or in every ``repro.*`` module that imported the function by name, and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(id, name, start, end, parent, segment)``. ``segment`` is
the capture start index of the segment being worked on, inherited from
the enclosing span, so every span of one segment shares it. A layer's
self time is its span time minus the part its child spans cover.

Decode-farm workers are forked after installation and run the wrappers
too. A worker has no span list to hand back, so there a wrapper records
``trace.<layer>.busy`` / ``trace.<layer>.self`` timers and counters into
the worker's own :class:`~repro.telemetry.Telemetry` sink, which the
farm snapshots after every segment and the parent folds in through
``absorb_result``: the existing telemetry rollup.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanRecord:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    segment: int | None
    child_s: float = 0.0
    outermost: bool = True

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """In-memory span recorder plus layer counters."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[SpanRecord] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._worker_pid: int | None = None

    # -- recording --------------------------------------------------------

    def _worker_sink(self):
        """The farm worker's telemetry sink, or None in the parent."""
        pid = os.getpid()
        if pid == self._pid:
            return None
        if self._worker_pid != pid:
            # First call in a freshly forked worker: drop the parent's
            # in-flight stack inherited through fork.
            self._worker_pid = pid
            self._stack = []
            self._depth = defaultdict(int)
        worker = getattr(sys.modules.get("repro.cloud.parallel"), "_worker", None)
        return getattr(worker, "telemetry", None)

    def count(self, name: str, value: float = 1) -> None:
        sink = self._worker_sink()
        if sink is not None:
            sink.count(f"trace.{name}", value)
        else:
            self.counts[name] += value

    def open(self, name: str, segment: int | None = None) -> SpanRecord:
        self._worker_sink()  # resets inherited state in a new worker
        parent = self._stack[-1] if self._stack else None
        if segment is None and parent is not None:
            segment = parent.segment
        span = SpanRecord(
            id=len(self.spans) + len(self._stack),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            segment=segment,
        )
        self._stack.append(span)
        self._depth[name] += 1
        return span

    def close(self, span: SpanRecord) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "span closed out of order"
        self._depth[span.name] -= 1
        if self._stack:
            self._stack[-1].child_s += span.dur
        sink = self._worker_sink()
        if sink is not None:
            sink.observe(f"trace.{span.name}.self", span.self_s)
            if self._depth[span.name] == 0:
                sink.observe(f"trace.{span.name}.busy", span.dur)
        else:
            span.outermost = self._depth[span.name] == 0
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, segment: int | None = None) -> Iterator[SpanRecord]:
        record = self.open(name, segment)
        try:
            yield record
        finally:
            self.close(record)

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        segment_of: Callable[..., int | None] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``name`` may be a function of the call's arguments (per-modem
        demodulate spans); ``segment_of`` extracts a segment id from the
        arguments; ``on_result(tracer, result, *args)`` records counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            span = self.open(label, segment_of(*args) if segment_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, result, *args)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def patch_attr(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` in every ``repro`` module
        that holds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (outermost inclusive) and self s."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            if span.outermost:
                row["busy_s"] += span.dur
        return table

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, segment."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start_s": s.start - t0,
                            "end_s": s.end - t0,
                            "parent": s.parent,
                            "segment": s.segment,
                        }
                    )
                    + "\n"
                )


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer table names."""
    from repro.cloud.classify import SegmentClassifier
    from repro.cloud.kill_filters import KillCodes, KillCss, KillFrequency
    from repro.cloud.pipeline import CloudService
    from repro.cloud.sic import reconstruct_and_subtract, try_decode
    from repro.dsp.fastcorr import correlate_accumulate, correlate_many
    from repro.dsp.resample import resample_plan_builds, to_rate
    from repro.gateway.backhaul import BackhaulLink
    from repro.gateway.compression import SegmentCodec
    from repro.gateway.edge import EdgeDecoder
    from repro.gateway.gateway import GalioTGateway
    from repro.gateway.rtlsdr import RtlSdrModel
    from repro.gateway.streaming import StreamingGateway
    from repro.gateway.universal import UniversalPreambleDetector
    from repro.phy import create_modem

    def seg_arg(_self, segment, *_):
        return segment.start

    def method(owner, attr, name, **kw):
        tracer.patch_attr(owner, attr, tracer.wrap(name, owner.__dict__[attr], **kw))

    def function(fn, name, **kw):
        tracer.patch_function(fn, tracer.wrap(name, fn, **kw))

    def edge_done(t, outcome, *_):
        t.count("gateway.edge.segments")
        t.count("gateway.edge.resolved", 0 if outcome.ship_to_cloud else 1)

    def codec_done(t, result, *_):
        t.count("gateway.compression.raw_bits", result[1].raw_bits)
        t.count("gateway.compression.shipped_bits", result[1].shipped_bits)

    def classify_done(t, candidates, *_):
        t.count("cloud.classify.candidates", len(candidates))

    def decode_done(t, frame, *_):
        t.count("cloud.sic.try_decode.ok", frame is not None)

    method(StreamingGateway, "process_chunk", "gateway.streaming")
    method(StreamingGateway, "finalize", "gateway.streaming")
    method(GalioTGateway, "ship_segment", "gateway.streaming", segment_of=seg_arg)
    method(RtlSdrModel, "capture", "gateway.rtlsdr")
    method(UniversalPreambleDetector, "stream_candidates", "gateway.detection")
    method(EdgeDecoder, "try_decode", "gateway.edge", segment_of=seg_arg, on_result=edge_done)
    method(SegmentCodec, "compress", "gateway.compression", segment_of=seg_arg,
           on_result=codec_done)
    method(BackhaulLink, "ship", "gateway.backhaul")
    method(CloudService, "process_segment", "cloud.pipeline", segment_of=seg_arg)
    method(SegmentClassifier, "classify", "cloud.classify", on_result=classify_done)
    for kill in (KillFrequency, KillCss, KillCodes):
        method(kill, "apply", "cloud.kill_filters")
    function(try_decode, "cloud.sic.try_decode", on_result=decode_done)
    function(reconstruct_and_subtract, "cloud.sic.reconstruct")
    function(correlate_many, "dsp.fastcorr")
    function(correlate_accumulate, "dsp.fastcorr")
    def demod_name(modem, *_):
        return f"phy.{modem.name}.demodulate"

    for tech in ("lora", "xbee", "zwave"):
        method(type(create_modem(tech)), "demodulate", demod_name)

    traced_to_rate = tracer.wrap("dsp.resample", to_rate)

    def to_rate_counting_plans(*args, **kwargs):
        before = resample_plan_builds()
        out = traced_to_rate(*args, **kwargs)
        built = resample_plan_builds() - before
        if built:
            tracer.count("dsp.resample.plan_builds", built)
        return out

    tracer.patch_function(to_rate, to_rate_counting_plans)
