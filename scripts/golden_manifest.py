#!/usr/bin/env python3
"""Regenerate tests/golden_manifest.json: the sha256 of every output of a
compact command set, which tests/test_golden.py re-runs and compares.

    PYTHONPATH=src python scripts/golden_manifest.py

The command set: the criterion-10 commands of tests/test_acceptance.py,
a contaminated 40 s simulate with frames and its event extraction, a
reference at 8 kHz, a 7x5 sensor with 0.3 s timestamp jitter (most of
every source clipped onto the trace ends), the truth of a 0.07 s
simulate, the events of the 20 s simulate shifted by 1.7e9 s (an epoch
clock), a plot with '%' and non-ASCII labels, and the raw arrays of a
static and a dynamic scene, of each one's event extraction (the stitched
trace, every order's trace and its prominences) and video trace, and the
crossing times and polarities of the scenes' truth at two phases and
thresholds, which show a one-ulp change that no printed decimal does.

The command set runs in a child process with every numpy dispatch target
above the baseline disabled and the OpenBLAS kernel pinned, so the
digests rest on the numpy version and its baseline, recorded beside
them, and not on the CPU: numpy's AVX-512 and AVX2 loops of np.log
differ in the last bits of some crossing times, and the BLAS kernel
moves the prominences.  A change that alters output bytes on purpose
regenerates the manifest and says which files moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_manifest.json"

COMMANDS = """\
simulate --duration 20 --seed 5 --config {cfg} --out-events {d}/events.csv --out-truth {d}/truth.csv --out-frames {d}/frames
extract-eenf --events {d}/events.csv --config {cfg} --out {d}/eenf.csv --per-harmonic-out {d}/per
extract-venf --frames {d}/frames --config {cfg} --out {d}/venf.csv
reference --signal {d}/mains.csv --out {d}/ref.csv
evaluate --scenario static --seeds 1 --duration 32 --config {cfg} --out {d}/report
plot --trace eenf={d}/eenf.csv --trace venf={d}/venf.csv --out {d}/chart.svg --title determinism
simulate --duration 40 --config {d}/c.cfg --out-events {d}/c-events.csv --out-truth {d}/c-truth.csv --out-frames {d}/c-frames
extract-eenf --events {d}/c-events.csv --out {d}/c-eenf.csv
reference --signal {d}/mains-8k.csv --out {d}/ref-8k.csv
simulate --duration 7 --config {d}/clip.cfg --out-events {d}/clip-events.csv --out-truth {d}/clip-truth.csv
simulate --duration 0.07 --out-events {d}/short-events.csv --out-truth {d}/short-truth.csv
plot --trace v%d_50%={d}/venf.csv --trace é={d}/eenf.csv --out {d}/labels.svg
"""
CONFIGS = {
    "c.cfg": "[contamination]\nmotion_pair_rate = 300\nnoise_rate = 5\n"
             "burst_fraction = 0.3\n",
    "clip.cfg": "[sensor]\nwidth = 7\nheight = 5\ntimestamp_jitter = 0.3\n"
                "[contamination]\nmotion_pair_rate = 2000\nnoise_rate = 40\n"
                "burst_fraction = 1.0\n",
}


# the OpenBLAS kernel of numpy's x86-64 baseline, which runs wherever it does
CORETYPE = "Nehalem"

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:             # numpy < 2
    from numpy.core import _multiarray_umath as umath


def environment() -> dict:
    """What the digests rest on besides the source: the numpy version and
    its baseline SIMD targets; in the pinned child, for the record, the
    targets it dispatches to (none) and the OpenBLAS kernel."""
    return {"numpy": np.__version__, "numpy_baseline": umath.__cpu_baseline__,
            "numpy_simd": [t for t in umath.__cpu_dispatch__
                           if umath.__cpu_features__.get(t)],
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def run_pinned(d: Path) -> dict:
    """The environment and the digests of run(d), made in a child process
    with every numpy dispatch target disabled (whatever this process
    disabled) and the OpenBLAS kernel pinned to CORETYPE."""
    env = dict(os.environ, OPENBLAS_CORETYPE=CORETYPE,
               NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, str(d)], env=env,
                           capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the pinned run failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _sha256(*blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def run(d: Path) -> dict[str, str]:
    """Run the command set into the directory ``d``; the digest of each
    output, by its path under ``d``."""
    from evenf.cli import main
    from evenf.core import EventStream
    from evenf.eenf import StftConfig, extract_eenf_detailed
    from evenf.evaluate import ScenarioConfig, simulate_scene
    from evenf.ingest import read_events_csv, write_events_csv
    from evenf.simulate import (IlluminationModel, SensorConfig,
                                illumination_crossings)
    from evenf.venf import extract_venf

    for name, text in CONFIGS.items():
        (d / name).write_text(text)
    for rate in (800, 8000):        # 20 s of mains at each sample rate
        t = np.arange(20 * rate) / rate
        np.savetxt(d / ("mains.csv" if rate == 800 else "mains-8k.csv"),
                   np.sin(2.0 * np.pi * 50.01 * t), fmt="%.9f",
                   header=f"# sample_rate={rate}\nv", comments="")
    for line in COMMANDS.format(d=d, cfg=ROOT / "configs" / "default.cfg"
                                ).splitlines():
        if main(["--log-level", "WARNING", *line.split()]) != 0:
            raise RuntimeError(f"failed: evenf {line}")
    s = read_events_csv(d / "events.csv")
    write_events_csv(EventStream(s.sensor_width, s.sensor_height, s.t + 1.7e9,
                                 s.x, s.y, s.p), d / "epoch-events.csv")

    digests = {}
    for p in sorted(d.rglob("*")):
        if p.is_file():
            digests[p.relative_to(d).as_posix()] = _sha256(p.read_bytes())
    cfg, stft = ScenarioConfig(), StftConfig(window_s=4.0)  # 7 hops in 10 s
    for scenario in ("static", "dynamic"):      # the clean and the mixed stream
        truth, stream, frames = simulate_scene(cfg, scenario, 10.0, 3)
        key = f"{scenario}-seed3:"
        digests[key + "truth"] = _sha256(truth.values.tobytes())
        digests[key + "events"] = _sha256(
            *(a.tobytes() for a in (stream.t, stream.x, stream.y, stream.p)))
        digests[key + "frames"] = _sha256(frames.frames.tobytes())
        res = extract_eenf_detailed(stream, cfg.grid, cfg.sampling, stft,
                                    cfg.harmonics)
        digests[key + "eenf"] = _sha256(res.trace.values.tobytes())
        for m, trace in res.harmonics.items():
            digests[key + f"eenf-m{m}"] = _sha256(trace.values.tobytes())
            digests[key + f"prominence-m{m}"] = _sha256(
                res.prominence_db[m].tobytes())
        digests[key + "venf"] = _sha256(extract_venf(
            frames, cfg.grid, stft, cfg.venf).values.tobytes())
    # the ladder walk itself, off and on the knife edge of phase 0
    for phase, threshold in ((0.3, 0.1), (0.0, 0.013)):
        times, pols = illumination_crossings(
            SensorConfig(threshold_c=threshold),
            IlluminationModel(phase=phase), truth)
        digests[f"crossings-seed3:phase{phase:g}-c{threshold:g}"] = _sha256(
            times.tobytes(), pols.tobytes())
    return digests


def main(argv: list[str]) -> int:
    if argv:    # the pinned child: run into argv[0], print the record
        print(json.dumps({"environment": environment(),
                          "files": run(Path(argv[0]))}))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        made = run_pinned(Path(tmp))
    MANIFEST.write_text(json.dumps(made, indent=1) + "\n")
    print(f"wrote {len(made['files'])} digests to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
