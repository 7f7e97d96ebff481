#!/usr/bin/env python3
"""Regenerate tests/golden_manifest.json: the sha256 of every output of a
compact command set, which tests/test_golden.py re-runs and compares.

    PYTHONPATH=src python scripts/golden_manifest.py

The command set: the criterion-10 commands of tests/test_acceptance.py,
a contaminated 40 s simulate with frames, a 7x5 sensor with 0.3 s
timestamp jitter (most of every source clipped onto the trace ends), the
truth of a 0.07 s simulate, the events of the 20 s simulate shifted by
1.7e9 s (an epoch clock), a plot with '%' and non-ASCII labels, and the
raw arrays of a static and a dynamic scene, which show a one-ulp change
that no printed decimal does.  A frame directory is one digest of its
sorted (name, sha256) lines.  The digests hold for the numpy and scipy
versions and the numpy SIMD targets recorded beside them; a change that
alters output bytes on purpose regenerates the manifest and says which
files moved and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_manifest.json"
FRAME_DIRS = ("frames", "c-frames")

COMMANDS = """\
simulate --duration 20 --seed 5 --config {cfg} --out-events {d}/events.csv --out-truth {d}/truth.csv --out-frames {d}/frames
extract-eenf --events {d}/events.csv --config {cfg} --out {d}/eenf.csv --per-harmonic-out {d}/per
extract-venf --frames {d}/frames --config {cfg} --out {d}/venf.csv
reference --signal {d}/mains.csv --out {d}/ref.csv
evaluate --scenario static --seeds 1 --duration 32 --config {cfg} --out {d}/report
plot --trace eenf={d}/eenf.csv --trace venf={d}/venf.csv --out {d}/chart.svg --title determinism
simulate --duration 40 --config {d}/c.cfg --out-events {d}/c-events.csv --out-truth {d}/c-truth.csv --out-frames {d}/c-frames
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


def environment() -> dict:
    """What the digests rest on besides the source: the numpy and scipy
    versions, and the SIMD targets numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:         # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_simd": [t for t in umath.__cpu_dispatch__
                           if umath.__cpu_features__.get(t)]}


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
    from evenf.evaluate import ScenarioConfig, simulate_scene
    from evenf.ingest import read_events_csv, write_events_csv

    for name, text in CONFIGS.items():
        (d / name).write_text(text)
    t = np.arange(16000) / 800.0
    np.savetxt(d / "mains.csv", np.sin(2.0 * np.pi * 50.01 * t), fmt="%.9f",
               header="# sample_rate=800\nv", comments="")
    for line in COMMANDS.format(d=d, cfg=ROOT / "configs" / "default.cfg"
                                ).splitlines():
        if main(["--log-level", "WARNING", *line.split()]) != 0:
            raise RuntimeError(f"failed: evenf {line}")
    s = read_events_csv(d / "events.csv")
    write_events_csv(EventStream(s.sensor_width, s.sensor_height, s.t + 1.7e9,
                                 s.x, s.y, s.p), d / "epoch-events.csv")

    digests = {}
    for p in sorted(d.rglob("*")):
        if p.is_file() and p.parent.name not in FRAME_DIRS:
            digests[p.relative_to(d).as_posix()] = _sha256(p.read_bytes())
    for name in FRAME_DIRS:
        digests[name + "/"] = _sha256(*(
            f"{p.name} {_sha256(p.read_bytes())}\n".encode()
            for p in sorted((d / name).iterdir())))
    for scenario in ("static", "dynamic"):      # the clean and the mixed stream
        truth, stream, frames = simulate_scene(ScenarioConfig(), scenario,
                                               10.0, 3)
        digests[f"{scenario}-seed3:truth"] = _sha256(truth.values.tobytes())
        digests[f"{scenario}-seed3:events"] = _sha256(
            *(a.tobytes() for a in (stream.t, stream.x, stream.y, stream.p)))
        digests[f"{scenario}-seed3:frames"] = _sha256(frames.frames.tobytes())
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run(Path(tmp))
    MANIFEST.write_text(json.dumps(
        {"environment": environment(), "files": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
