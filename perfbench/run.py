#!/usr/bin/env python3
"""Benchmark of evenf: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload scenario-static --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload
    python3 perfbench/run.py --self-check              # tiny inputs

Each workload runs in its own worker process (worker.py) with ``src`` on
PYTHONPATH and thread pools capped at the core count.  Set-up time is the
median import time of ``evenf`` in fresh interpreters.  Times are scaled
for machine speed; see workloads.Speedometer.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Lines before it record the run
environment, a readable report and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REQUIRED = ("BENCHMARK.json", "src/evenf/__init__.py", "configs/default.cfg")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Prints the import time of evenf, then the same scaled for machine speed
# (see workloads.Speedometer) by a factor taken right after the import.
PROBE = ("import sys, time; t = time.perf_counter(); import evenf; "
         "dt = time.perf_counter() - t; "
         f"sys.path.insert(0, {str(HERE)!r}); "
         "from workloads import Speedometer; print(dt, dt * Speedometer()())")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# Self-check input length.  run_scenario needs two 16 s analysis windows;
# below about 40 s the video baseline on the dynamic scene misses the CC
# floor for some seeds.
TINY_DURATION_S = 40.0
# Printed in the report next to the metrics: the unscaled set-up and wall
# times and the reference loop's time, the evaluate-style accuracy, the
# video MAE ratio (left out of the metrics for its seed-to-seed spread)
# and the reference subcommand's time on cli-roundtrip.
REPORT_ONLY = ("measured_setup_s", "measured_wall_s", "reference_loop_s",
               "eenf_cc", "eenf_mae_hz", "venf_cc", "venf_mae_hz",
               "venf_mae_rel", "low_conf_frac", "fail_ratio", "events",
               "reference_s")


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in THREAD_VARS:
        try:
            capped = 0 < int(env.get(var, "")) <= nproc
        except ValueError:
            capped = False
        if not capped:
            env[var] = str(nproc)
    return env


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _last_line(cmd, env, deadline) -> str:
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline
                                                 - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[:2])} exited {done.returncode}")
    return lines[-1]


def measure(workload, seed, seconds, trace, *, probes=SETUP_PROBES,
            duration=None, warmup=True, deadline) -> dict:
    """Set-up probes, then the workload's worker; returns the worker's
    report with ``setup_s`` added and the run environment filled in."""
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    setup = [[float(x) for x in
              _last_line([sys.executable, "-c", PROBE], env, deadline).split()]
             for _ in range(probes)]
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--warmup", str(int(warmup))]
    if duration is not None:
        cmd += ["--duration", str(duration)]
    report = json.loads(_last_line(cmd, env, deadline))
    report["end_to_end"]["measured_setup_s"] = statistics.median(
        raw for raw, _ in setup)
    report["end_to_end"]["setup_s"] = statistics.median(
        scaled for _, scaled in setup)
    report["env"].update({
        "workload": workload, "seed": seed, "git_sha": git_sha(),
        "nproc": nproc, "setup_probes": probes,
        **{v: env[v] for v in THREAD_VARS}})
    return report


def contract(spec_metrics, values, report) -> dict:
    """The result object, with every metric of ``spec_metrics``."""
    metrics, missing = {}, []
    for m in spec_metrics:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    return {"correct": report["failed"] == 0 and not missing,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def print_report(report, result) -> None:
    env, fig = report["env"], report["end_to_end"]
    print(json.dumps({"env": env}))
    print(f"{env['workload']} (seed {env['seed']}): {fig['iterations']} "
          f"timed iterations, {result['failed']} of {result['attempted']} "
          f"operations failed")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print("  also: " + ", ".join(
        f"{k} {fig[k]:.6g}" for k in REPORT_ONLY if k in fig))


def self_check(spec, seed) -> int:
    """Every workload on tiny inputs, untraced and traced in one worker."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        report = measure(workload, seed, 0, True, probes=1,
                         duration=TINY_DURATION_S, warmup=False,
                         deadline=time.monotonic() + RUN_LIMIT_S)
        for kind in ("end_to_end", "per_layer"):
            result = contract(spec[kind], report[kind], report)
            good = (result["correct"]
                    and len(result["metrics"]) == len(spec[kind]))
            ok &= good
            print(f"self-check {workload} {kind}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({len(result['metrics'])} metrics, {result['failed']} "
                  f"of {result['attempted']} operations failed, "
                  f"{len(report['spans'])} spans)")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload and the traced path on tiny "
                         "inputs")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")
    if args.workload is None and not args.self_check:
        ap.error("--workload or --self-check is required")
    try:
        return (self_check(spec, args.seed) if args.self_check
                else run(spec, names, args))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def run(spec, names, args) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    results = []
    for workload in names if args.workload == "all" else [args.workload]:
        report = measure(workload, args.seed, args.seconds, args.trace,
                         deadline=time.monotonic() + RUN_LIMIT_S)
        result = contract(spec[kind], report[kind], report)
        print_report(report, result)
        if args.trace:
            print(json.dumps({"spans": report["spans"]}))
        results.append(result)
        if args.workload == "all":
            print(json.dumps({"workload": workload, **result}))
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0 if all(len(r["metrics"]) == len(spec[kind])
                    for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
