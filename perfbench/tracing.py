"""Span recording around evenf's layer boundaries, installed from outside.

Tracing rebinds public functions in the namespaces of the evenf modules
that call them (``evenf.cli.read_events_csv``, ``evenf.eenf.temporal_sample``
...) to wrappers that record one span per call, and restores the
originals afterwards.  Nothing under ``src/`` knows about it.

A span is named after the layer whose work it measures.  Where one layer
runs a helper of another as part of its own stage (venf's use of the eenf
spectral tracker) the span is named after the calling layer, so that
``eenf.stft_peak_track`` and ``venf.stft_peak_track`` stay apart.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


def _hops(out) -> int:
    # stft_peak_track returns a trace, or (trace, prominence).
    return len(out[0] if isinstance(out, tuple) else out)


def _kept(args, out) -> int:
    """Events inside the picked cohorts; a cohort serving several moments
    counts once."""
    _, first = np.unique(out.start, return_index=True)
    return int(np.sum(out.stop[first] - out.start[first]))


# (evenf module whose namespace is rebound, attribute, span name,
#  {count name: f(args, out)}).
TARGETS = [
    ("evaluate", "run_scenario", "evaluate.run_scenario", {}),
    ("evaluate", "synthesize_enf", "simulate.synthesize_enf", {}),
    ("evaluate", "simulate_events", "simulate.simulate_events",
     {"events_out": lambda a, out: len(out)}),
    ("evaluate", "simulate_frames", "simulate.simulate_frames",
     {"frames_out": lambda a, out: len(out)}),
    ("evaluate", "extract_eenf_detailed", "eenf.extract_eenf_detailed", {}),
    ("evaluate", "extract_venf", "venf.extract_venf", {}),
    ("cli", "synthesize_enf", "simulate.synthesize_enf", {}),
    ("cli", "simulate_events", "simulate.simulate_events",
     {"events_out": lambda a, out: len(out)}),
    ("cli", "simulate_frames", "simulate.simulate_frames",
     {"frames_out": lambda a, out: len(out)}),
    ("cli", "write_events_csv", "ingest.write_events_csv",
     {"events": lambda a, out: len(a[0]),
      "bytes": lambda a, out: os.path.getsize(a[1])}),
    ("cli", "write_frames", "ingest.write_frames", {}),
    ("cli", "write_trace_csv", "ingest.write_trace_csv", {}),
    ("cli", "read_events_csv", "ingest.read_events_csv",
     {"events": lambda a, out: len(out)}),
    ("cli", "read_frames", "ingest.read_frames", {}),
    ("cli", "read_reference_csv", "ingest.read_reference_csv", {}),
    ("cli", "reference_enf", "ingest.reference_enf", {}),
    ("cli", "extract_eenf_detailed", "eenf.extract_eenf_detailed", {}),
    ("cli", "extract_venf", "venf.extract_venf", {}),
    ("eenf", "temporal_sample", "eenf.temporal_sample",
     {"events_in": lambda a, out: len(a[0]),
      "slices_out": lambda a, out: len(out),
      "kept": _kept}),
    ("eenf", "spatial_vote", "eenf.spatial_vote", {}),
    ("eenf", "bandpass", "eenf.bandpass", {}),
    ("eenf", "stft_peak_track", "eenf.stft_peak_track",
     {"hops_out": lambda a, out: _hops(out)}),
    ("venf", "frame_series", "venf.frame_series", {}),
    ("venf", "zero_phase_bandpass", "venf.zero_phase_bandpass", {}),
    ("venf", "stft_peak_track", "venf.stft_peak_track", {}),
]

CLI_COMMANDS = ("simulate", "extract-eenf", "extract-venf", "reference")

# Every span name the benchmark can record: the rebound functions plus the
# ``cli.<subcommand>`` spans the cli workload opens around each call.
SPAN_NAMES = sorted({t[2] for t in TARGETS}
                    | {f"cli.{c}" for c in CLI_COMMANDS})


@dataclass
class Span:
    id: int
    iteration: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps every span in memory; ``spans`` is read when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self.iteration, name,
                 self._stack[-1].id if self._stack else None,
                 time.perf_counter() - self._origin)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            for key, count in counters.items():
                s.counts[key] = count(args, out)
            return out
        return traced

    def install(self, stack: contextlib.ExitStack, evenf) -> None:
        """Rebind every target for the life of ``stack``."""
        for module_name, attr, name, counters in TARGETS:
            module = getattr(evenf, module_name)
            stack.enter_context(rebound(
                module, attr, self._wrap(name, getattr(module, attr),
                                         counters)))


@contextlib.contextmanager
def rebound(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered, edge = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, edge), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.end - span.start - covered


def iteration_layers(spans: list[Span], scale: float) -> dict[str, float]:
    """Per-layer figures of one iteration's spans, times multiplied by
    ``scale``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s.name == name]
        busy = scale * sum(s.end - s.start for s in mine)
        out[f"{name}.s"] = busy
        out[f"{name}.self_s"] = scale * sum(
            self_time(s, children.get(s.id, [])) for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.errors"] = sum(s.error for s in mine)
        totals: dict[str, float] = {}
        for s in mine:
            for key, v in s.counts.items():
                totals[key] = totals.get(key, 0) + v
        for key, v in totals.items():
            out[f"{name}.{key}"] = v
        if "events_out" in totals or "events" in totals:
            n = totals.get("events_out", totals.get("events"))
            out[f"{name}.events_per_s"] = n / busy if busy > 0 else 0.0
        if "kept" in totals:
            out[f"{name}.kept_frac"] = totals["kept"] / totals["events_in"]
    return out


def layer_metrics(spans: list[Span], names: list[str],
                  scales: dict[int, float]) -> dict[str, float]:
    """Median over traced iterations of each per-layer figure; errors are
    summed.  Times are multiplied by the iteration's entry in ``scales``.
    A figure of a layer the workload never calls reads 0."""
    by_iter: dict[int, list[Span]] = {}
    for s in spans:
        by_iter.setdefault(s.iteration, []).append(s)
    per_iter = [iteration_layers(v, scales[i]) for i, v in by_iter.items()]
    out = {}
    for name in names:
        vals = [d.get(name, 0) for d in per_iter] or [0]
        out[name] = (sum(vals) if name.endswith(".errors")
                     else statistics.median(vals))
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [{"id": s.id, "iteration": s.iteration, "name": s.name,
             "parent": s.parent, "start": s.start, "end": s.end,
             "error": s.error, **s.counts} for s in spans]
