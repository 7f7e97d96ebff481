"""One workload in its own process, so its peak RSS is its own.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON object on
its last stdout line.  Runs one discarded warm-up iteration, then
iterations one at a time (a closed loop with one caller) until
``--seconds`` have passed.  With ``--trace 1`` it alternates untraced and
traced iterations, so the per-layer figures and the tracing overhead come
from the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def figures(timed, records, attempted, failed) -> dict[str, float]:
    """Every untraced figure of the run: times are medians over the
    untraced iterations ``timed``; accuracy is the mean over all
    ``records``, the warm-up included (it is discarded for timing only).
    BENCHMARK.json picks the end-to-end metrics among them; the rest are
    printed in the report."""
    out = {
        "iterations": len(timed),
        "wall_s": _median(r.wall_s for r in timed),
        "measured_wall_s": _median(r.measured_wall_s for r in timed),
        "events": _median(r.events for r in timed),
        "events_per_s": _median(r.events / r.wall_s for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fail_ratio": failed / attempted,
        "ok_ratio": 1.0 - failed / attempted,
        "low_conf_frac": _mean(r.low_conf_frac for r in records
                               if r.low_conf_frac is not None),
    }
    out["confident_frac"] = 1.0 - out["low_conf_frac"]
    for phase in timed[0].phases if timed else ():
        out[phase] = _median(r.phases[phase] for r in timed)
    for method in ("eenf", "venf"):
        s = [r.scores[method] for r in records if method in r.scores]
        out[f"{method}_cc"] = _mean(x["cc"] for x in s)
        out[f"{method}_mae_hz"] = _mean(x["mae"] for x in s)
        out[f"{method}_cc_rel"] = _mean(x["cc"] / x["ideal_cc"] for x in s)
        out[f"{method}_mae_rel"] = _mean(x["mae"] / x["ideal_mae"] for x in s)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--duration", type=float,
                    help="input length in seconds instead of the stated size")
    ap.add_argument("--warmup", type=int, choices=(0, 1), default=1)
    args = ap.parse_args()

    import evenf
    import evenf.cli  # the package does not import its CLI module
    src = (args.root / "src").resolve()
    if src not in Path(evenf.__file__).resolve().parents:
        print(f"perfbench: evenf imported from {evenf.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]
                   if m["name"] != "trace.overhead_s"]
    unknown = [n for n in layer_names
               if n.rsplit(".", 1)[0] not in tracing.SPAN_NAMES]
    if unknown:
        print(f"perfbench: no span for {unknown}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    speed = workloads.Speedometer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=args.root) as tmp:
        workload = workloads.make(args.workload, evenf, args.seed, Path(tmp),
                                  args.root, args.duration, speed)
        warm, plain, traced = [], [], []
        # The warm-up runs on seed seed*1000 and untraced iteration k on
        # seed*1000+k.  When tracing, pair k runs one untraced and one
        # traced iteration on that seed, so that they differ by tracing
        # alone; the order alternates from pair to pair, because the
        # second run of a seed tends to be the slower one.  At least two
        # pairs are run.
        base = args.seed * 1000
        if args.warmup:
            gc.collect()
            warm.append(workload.iterate(base))
        t_end = time.perf_counter() + args.seconds
        while (not plain or time.perf_counter() < t_end
               or (tracer is not None
                   and (len(traced) < 2 or len(traced) != len(plain)))):
            if tracer is None:
                use_tracer, k = False, len(plain) + 1
            else:
                pair, second = divmod(len(plain) + len(traced), 2)
                use_tracer, k = second != pair % 2, pair + 1
                tracer.iteration = base + k
            gc.collect()
            rec = workload.iterate(base + k, tracer if use_tracer else None)
            (traced if use_tracer else plain).append(rec)

    records = warm + plain + traced
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    timed = [r for r in plain if r.wall_s is not None]
    out = {
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__},
        "attempted": attempted, "failed": failed,
        "end_to_end": figures(timed, records, attempted, failed),
    }
    out["end_to_end"]["reference_loop_s"] = speed.median_loop_s()
    if tracer is not None:
        out["per_layer"] = tracing.layer_metrics(
            tracer.spans, layer_names, {r.seed: r.scale for r in traced})
        out["per_layer"]["trace.overhead_s"] = _median(
            t.wall_s - p.wall_s for p, t in zip(plain, traced)
            if p.wall_s is not None and t.wall_s is not None)
        out["spans"] = tracing.span_records(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
