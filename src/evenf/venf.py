"""Frame-video ENF baseline.

Global-shutter footage only sees the flicker folded down by the frame
rate, so the tracked alias must be mapped back up to the flicker line;
rolling-shutter footage samples once per row, which raises the effective
rate to fps*rows and exposes the flicker directly.  Row series are
treated as uniformly sampled even when the sensor idles between frames,
a deliberate simplification that slightly smears the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnfTrace, GridConfig, require_finite
# perfbench's tracer rebinds zero_phase_bandpass here (ROADMAP item 2)
from .eenf import StftConfig, stft_peak_track, zero_phase_bandpass
from .simulate import FrameSequence

__all__ = ["VenfConfig", "frame_series", "extract_venf"]


@dataclass(frozen=True)
class VenfConfig:
    """Frame-pipeline knobs: spatial reduction, detrend, and tracking."""

    mode: str = "row_mean"
    detrend: str = "consecutive_pair"

    def __post_init__(self):
        require_finite(self)
        if self.mode not in ("global_mean", "row_mean"):
            raise ValueError("mode must be 'global_mean' or 'row_mean'")
        if self.detrend not in ("none", "consecutive_pair"):
            raise ValueError("detrend must be 'none' or 'consecutive_pair'")


def _pair_detrended(series: np.ndarray) -> np.ndarray:
    """Subtract from each frame (axis 0) the mean of its consecutive pair.

    Pairs are non-overlapping: (0,1), (2,3), ...; an odd trailing frame
    shares the mean of the final two frames.  Within a pair the scene
    estimate is a single constant, so differences between the two frames
    of a pair are preserved exactly while static content cancels.
    """
    first = np.minimum(np.arange(len(series)) // 2 * 2, len(series) - 2)
    return series - 0.5 * (series[first] + series[first + 1])


def frame_series(frames: FrameSequence, cfg: VenfConfig) -> tuple[np.ndarray, float]:
    """Reduce frames to a 1-d brightness series and its sample rate.

    global_mean: one sample per frame (fs = fps).  row_mean: one sample
    per row in readout order (fs = fps*rows), which requires a
    rolling-shutter sequence.  Pair detrending, linear, runs on the means.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    rows = cfg.mode == "row_mean"
    if rows and (frames.shutter != "rolling" or frames.row_readout <= 0):
        raise ValueError("row_mean requires a rolling-shutter sequence")
    series = frames.frames.mean(axis=2 if rows else (1, 2))
    if cfg.detrend == "consecutive_pair":
        series = _pair_detrended(series)
    return series.reshape(-1), frames.fps * (frames.height if rows else 1)


def extract_venf(frames: FrameSequence, grid: GridConfig, stft: StftConfig,
                 cfg: VenfConfig) -> EnfTrace:
    """Frame sequence in, baseband ENF trace out.

    ``grid`` sets the flicker line; ``stft`` the tracker's search band,
    +/- 2*stft.search_halfwidth_hz around the flicker or its alias, which
    keeps the baseband trace within +/- stft.search_halfwidth_hz of
    nominal.  Only that band's DFT bins are computed, so it is the band
    filter (a band-pass of it moved no benchmark sample by more than
    4.3e-6 Hz).  Raises ValueError("degenerate alias") when the frame
    rate folds the flicker onto DC (global_mean, or row_mean with
    consecutive-pair detrending, which then cancels it) or, for
    global_mean, onto the fold edge, where deviations cancel.
    """
    series, fs = frame_series(frames, cfg)
    flicker = grid.flicker_hz
    halfwidth = 2.0 * stft.search_halfwidth_hz
    k = round(flicker / frames.fps)
    alias = abs(flicker - k * frames.fps)
    if cfg.mode == "row_mean":
        if alias < 1.0 and cfg.detrend == "consecutive_pair":
            raise ValueError("degenerate alias: flicker folds onto DC, where "
                             "consecutive-pair detrending cancels it")
        line = flicker
    else:
        if alias < 1.0 or alias > fs / 2.0 - 1.0:
            raise ValueError("degenerate alias: flicker folds onto DC or fs/2")
        # a positive intensity's DC line outweighs the alias; without its
        # mean, the window's DC lobe cannot win a band that starts near 0 Hz
        line, series = alias, series - series.mean()
    raw, _ = stft_peak_track(series, fs, stft, line, halfwidth_hz=halfwidth)
    # Unfold: the flicker lies at least 1 Hz to one side of its nearest
    # multiple of fs (0 on the row line, where fs > 2 * flicker), and the
    # tracker reports its distance from there, which is positive.
    base = round(flicker / fs) * fs
    return EnfTrace(raw.t0, raw.step,
                    (base + np.copysign(raw.values, flicker - base)) / 2.0)
