"""Scenario harness: simulate, extract with both methods, score.

The scenario parameters double as the calibration knobs of the synthetic
benchmark; the shipped defaults (restated with commentary in
``configs/default.cfg``) are chosen so that a slow, strongly correlated
ENF wander keeps 16 s analysis windows faithful to the ground truth.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import EnfTrace, GridConfig, mae, pearson_cc
from .eenf import (HarmonicConfig, SamplingConfig, StftConfig,
                   extract_eenf_detailed)
from .simulate import (ContaminationConfig, EnfProcessConfig, FrameConfig,
                       IlluminationModel, OccluderConfig, SensorConfig,
                       illumination_crossings, simulate_events,
                       simulate_frames, synthesize_enf)
from .venf import VenfConfig, extract_venf

__all__ = ["ScenarioConfig", "EvalRow", "EvalReport", "simulate_scene",
           "run_scenario", "emit_report", "SCENARIOS"]

log = logging.getLogger(__name__)

SCENARIOS = ("static", "dynamic", "extreme")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything run_scenario needs beyond the scenario name and seeds.

    The truth and every tracker read the one grid and the one stft here.
    """

    grid: GridConfig = field(default_factory=GridConfig)
    enf: EnfProcessConfig = field(default_factory=EnfProcessConfig)
    enf_step: float = 0.01
    illumination: IlluminationModel = field(default_factory=IlluminationModel)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    stft: StftConfig = field(default_factory=StftConfig)
    harmonics: HarmonicConfig = field(default_factory=HarmonicConfig)
    frames: FrameConfig = field(default_factory=FrameConfig)
    venf: VenfConfig = field(default_factory=VenfConfig)
    # scenario-specific contamination / scene knobs
    motion_rate_factor: float = 1.0     # motion pairs per illumination event
    occluder: OccluderConfig = field(default_factory=OccluderConfig)
    texture_low: float = 0.25
    texture_high: float = 0.85
    extreme_texture_scale: float = 6.0


@dataclass(frozen=True)
class EvalRow:
    scenario: str
    method: str
    seed: int
    cc: float
    mae_hz: float


@dataclass(frozen=True)
class EvalReport:
    duration: float
    rows: list[EvalRow]
    flags: list[str]

    def mean(self, scenario: str, method: str, metric: str) -> float:
        vals = [getattr(r, metric) for r in self.rows
                if r.scenario == scenario and r.method == method]
        if not vals:
            raise ValueError(f"no rows for {scenario}/{method}")
        return float(np.mean(vals))


def _base_texture(cfg: ScenarioConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 711])
    return rng.uniform(cfg.texture_low, cfg.texture_high,
                       (cfg.frames.height, cfg.frames.width))


def _window_mean(truth: EnfTrace, times: np.ndarray,
                 window_s: float) -> np.ndarray:
    """Truth averaged over [t - window_s/2, t + window_s/2] for each t.

    A spectral tracker reports one value per analysis window, so the
    like-for-like reference is the truth at the same temporal
    resolution, not a point sample from inside the window.
    """
    grid = truth.times
    csum = np.concatenate(([0.0], np.cumsum(truth.values)))
    lo = np.searchsorted(grid, np.asarray(times) - window_s / 2.0, "left")
    hi = np.searchsorted(grid, np.asarray(times) + window_s / 2.0, "right")
    if np.any(hi - lo < 1):
        raise ValueError("estimate window outside truth support")
    return (csum[hi] - csum[lo]) / (hi - lo)


def _score(estimate: EnfTrace, truth: EnfTrace,
           window_s: float) -> tuple[float, float]:
    ref = _window_mean(truth, estimate.times, window_s)
    return pearson_cc(estimate.values, ref), mae(estimate.values, ref)


def simulate_scene(cfg: ScenarioConfig, scenario: str, duration: float,
                   seed: int, contamination=ContaminationConfig(),
                   frames: bool = True):
    """One seed's truth, event stream and frames (None unless ``frames``).

    static: ``contamination``, static texture.  dynamic: motion pairs at
    motion_rate_factor times the illumination event rate, and an occluder
    in the frames.  extreme: overexposed texture; the frames clip, the
    events never see it.  The frames render in a second thread while this
    one walks the crossings once and simulates the events; both end here.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    truth = synthesize_enf(cfg.enf, cfg.grid, duration, cfg.enf_step,
                           seed=seed)
    texture = _base_texture(cfg, seed)
    if scenario == "extreme":
        texture = texture * cfg.extreme_texture_scale
    occ = cfg.occluder if scenario == "dynamic" else None
    with ThreadPoolExecutor(1) as pool:
        render = pool.submit(simulate_frames, cfg.illumination, truth,
                             cfg.frames, texture, occluder=occ,
                             seed=seed) if frames else None
        crossings = illumination_crossings(cfg.sensor, cfg.illumination, truth)
        if scenario == "dynamic":
            # the clean stream's size: every pixel fires the schedule
            n = len(crossings[0]) * cfg.sensor.width * cfg.sensor.height
            contamination = replace(contamination, motion_pair_rate=(
                n / duration * cfg.motion_rate_factor))
        events = simulate_events(cfg.sensor, crossings, truth,
                                 contamination, seed=seed)
        return truth, events, render.result() if render else None


def run_scenario(scenario: str, seeds, duration: float = 120.0,
                 cfg: ScenarioConfig = ScenarioConfig()) -> EvalReport:
    """Score both methods against the truth of each seed's simulate_scene."""
    if duration < 2.0 * cfg.stft.window_s:
        raise ValueError("duration must cover at least two analysis windows")
    rows, flags = [], []
    for seed in seeds:
        t_begin = time.monotonic()
        truth, events, frames = simulate_scene(cfg, scenario, duration, seed)
        e_res = extract_eenf_detailed(events, cfg.grid, cfg.sampling,
                                      cfg.stft, cfg.harmonics)
        e_cc, e_mae = _score(e_res.trace, truth, cfg.stft.window_s)
        rows.append(EvalRow(scenario, "eenf", seed, e_cc, e_mae))

        v_trace = extract_venf(frames, cfg.grid, cfg.stft, cfg.venf)
        v_cc, v_mae = _score(v_trace, truth, cfg.stft.window_s)
        rows.append(EvalRow(scenario, "venf", seed, v_cc, v_mae))

        if e_mae > v_mae:
            flags.append(f"{scenario} seed {seed}: event MAE {e_mae:.2e} "
                         f"exceeds video MAE {v_mae:.2e}")
        log.info("%s seed %d: eenf cc=%.4f mae=%.2e | venf cc=%.4f mae=%.2e "
                 "(%.1f s)", scenario, seed, e_cc, e_mae, v_cc, v_mae,
                 time.monotonic() - t_begin)
    return EvalReport(duration, rows, flags)


def merge_reports(reports: list[EvalReport]) -> EvalReport:
    return EvalReport(max([0.0] + [r.duration for r in reports]),
                      [row for r in reports for row in r.rows],
                      [f for r in reports for f in r.flags])


def emit_report(report: EvalReport, out_dir) -> tuple[Path, Path]:
    """Write detail CSV and a markdown summary; returns both paths."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    detail = d / "detail.csv"
    with open(detail, "w") as fh:
        fh.write("scenario,method,seed,cc,mae\n")
        for r in report.rows:
            fh.write(f"{r.scenario},{r.method},{r.seed},"
                     f"{r.cc:.6f},{r.mae_hz:.6e}\n")

    scenarios = [s for s in SCENARIOS
                 if any(r.scenario == s for r in report.rows)]
    summary = d / "summary.md"
    with open(summary, "w") as fh:
        fh.write("# Synthetic benchmark summary\n\n")
        fh.write(f"Per-seed duration: {report.duration:g} s. Mean over seeds; "
                 "CC is Pearson correlation against ground truth, "
                 "MAE in Hz.\n\n")
        fh.write("| method | " + " | ".join(
            f"{s} CC | {s} MAE" for s in scenarios) + " |\n")
        fh.write("|---" * (1 + 2 * len(scenarios)) + "|\n")
        for method, label in (("eenf", "event-based"), ("venf", "video")):
            cells = [c for s in scenarios
                     for c in (f"{report.mean(s, method, 'cc'):.4f}",
                               f"{report.mean(s, method, 'mae_hz'):.2e}")]
            fh.write(f"| {label} | " + " | ".join(cells) + " |\n")
        if report.flags:
            fh.write("\n## Flags\n\n")
            for f in report.flags:
                fh.write(f"- {f}\n")
    return detail, summary
