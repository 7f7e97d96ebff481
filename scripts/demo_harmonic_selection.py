#!/usr/bin/env python3
"""Visualize per-harmonic traces and the segment-stitched estimate.

Simulates one clean stream, extracts the flicker line at every usable
harmonic order, and overlays them with the ground truth and the stitched
output so the per-segment selection is visible:

    python scripts/demo_harmonic_selection.py --out harmonics.svg
"""

import argparse
import logging

from evenf.eenf import extract_eenf_detailed
from evenf.evaluate import ScenarioConfig, simulate_scene
from evenf.svgplot import render_line_chart


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--duration", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="harmonics.svg")
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    cfg = ScenarioConfig()
    truth, stream, _ = simulate_scene(cfg, "static", args.duration,
                                      args.seed, frames=False)
    res = extract_eenf_detailed(stream, cfg.grid, cfg.sampling, cfg.stft,
                                cfg.harmonics)

    series = [("truth", truth.times, truth.values)]
    for m, tr in res.harmonics.items():
        series.append((f"order {m}", tr.times, tr.values))
    series.append(("selected", res.trace.times, res.trace.values))
    render_line_chart(series, args.out, title="harmonic selection")

    print(f"segment winners: {res.winners}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
