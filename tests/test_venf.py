"""Frame-video baseline: reduction, detrending, aliasing, tracking."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenf import venf as venf_module
from evenf.core import EnfTrace, GridConfig, pearson_cc
from evenf.eenf import StftConfig, stft_peak_track
from evenf.venf import VenfConfig, _pair_detrended, extract_venf, frame_series
from evenf.simulate import (EnfProcessConfig, FrameConfig, FrameSequence,
                            IlluminationModel, simulate_frames,
                            synthesize_enf)

GRID = GridConfig(50.0)
STFT = StftConfig()


def _constant_enf(duration):
    return synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID, duration,
                          0.01)


def _frames(duration, shutter="rolling", fps=30.0, size=8, exposure=0.0,
            seed=0, deviation=0.0):
    enf = synthesize_enf(EnfProcessConfig(deviation_std=deviation,
                                          mean_reversion=0.005),
                         GRID, duration, 0.01, seed=seed)
    rr = 1.0 / (fps * size * 2.0) if shutter == "rolling" else 0.0
    cfg = FrameConfig(width=size, height=size, fps=fps, shutter=shutter,
                      row_readout=rr, exposure=exposure)
    rng = np.random.default_rng([seed, 711])
    tex = rng.uniform(0.25, 0.85, (size, size))
    return enf, simulate_frames(IlluminationModel(phase=0.3), enf, cfg, tex,
                                seed=seed)


# ----------------------------------------------------------- pair detrending

def test_pair_detrend_hand_example():
    frames = np.array([[[1.0]], [[3.0]], [[5.0]], [[9.0]]])
    out = _pair_detrended(frames)
    assert np.allclose(out[:, 0, 0], [-1.0, 1.0, -2.0, 2.0])


def test_pair_detrend_odd_tail_uses_final_pair():
    frames = np.array([[[1.0]], [[3.0]], [[7.0]]])
    out = _pair_detrended(frames)
    assert np.allclose(out[:, 0, 0], [-1.0, 1.0, 7.0 - 5.0])


def _pair_detrended_by_temporary(frames):
    """_pair_detrended's formula with the differences in a temporary."""
    out = np.empty_like(frames)
    n = len(frames)
    n_even = n - (n % 2)
    pairs = frames[:n_even].reshape(n_even // 2, 2, *frames.shape[1:])
    means = pairs.mean(axis=1, keepdims=True)
    out[:n_even] = (pairs - means).reshape(n_even, *frames.shape[1:])
    if n % 2:
        out[-1] = frames[-1] - 0.5 * (frames[-2] + frames[-1])
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), height=st.integers(1, 6), width=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31), fortran=st.booleans())
def test_pair_detrend_is_the_temporary_formula_bitwise(n, height, width, seed,
                                                      fortran):
    frames = np.random.default_rng(seed).uniform(0.0, 1.0, (n, height, width))
    if fortran:         # out keeps this layout; its pair split is a view
        frames = np.asfortranarray(frames)
    got = _pair_detrended(frames)
    want = _pair_detrended_by_temporary(frames)
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def test_pair_detrend_cancels_static_content():
    rng = np.random.default_rng(1)
    scene = rng.uniform(0.2, 0.8, (4, 4))
    frames = np.stack([scene, scene, scene, scene])
    assert np.allclose(_pair_detrended(frames), 0.0)


def test_pair_detrend_preserves_within_pair_difference():
    rng = np.random.default_rng(2)
    frames = rng.uniform(0.0, 1.0, (6, 3, 3))
    out = _pair_detrended(frames)
    for j in range(3):
        a, b = frames[2 * j], frames[2 * j + 1]
        assert np.allclose(out[2 * j] - out[2 * j + 1], a - b)


# -------------------------------------------------------------- frame_series

def test_series_global_mean_is_per_frame_illumination():
    enf = _constant_enf(1.0)
    model = IlluminationModel(phase=0.3)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0, exposure=0.0, bit_depth=None)
    seq = simulate_frames(model, enf, cfg, np.ones((4, 4)))
    series, fs = frame_series(seq, VenfConfig(mode="global_mean",
                                              detrend="none"))
    assert fs == 30.0
    from evenf.simulate import illumination_at
    expect = illumination_at(model, enf, np.arange(len(seq)) / 30.0) / 3.0
    assert np.allclose(series, expect, atol=1e-12)


def _detrend_then_reduce(seq, cfg):
    """frame_series's series by its first formula: the pair-detrended frame
    stack, then its means."""
    data = seq.frames
    if cfg.detrend == "consecutive_pair":
        data = _pair_detrended(data)
    if cfg.mode == "global_mean":
        return data.mean(axis=(1, 2))
    return data.mean(axis=2).reshape(-1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 9), height=st.integers(1, 40),
       width=st.integers(1, 300), seed=st.integers(0, 2 ** 31),
       mode=st.sampled_from(["global_mean", "row_mean"]),
       detrend=st.sampled_from(["none", "consecutive_pair"]))
def test_series_reduced_before_detrending_is_the_first_formula(
        n, height, width, seed, mode, detrend):
    # pair detrending is linear: applied to the means instead of the
    # pixels it gives the same series within 4 ulp of the largest pixel
    # (the series' own ulp is no scale: detrending cancels)
    frames = np.random.default_rng(seed).uniform(0.0, 1.0, (n, height, width))
    seq = FrameSequence(width, height, 30.0, "rolling", 1.0 / (60.0 * height),
                        frames)
    cfg = VenfConfig(mode=mode, detrend=detrend)
    got, _ = frame_series(seq, cfg)
    want = _detrend_then_reduce(seq, cfg)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4 * np.spacing(frames.max()))


def test_series_row_mean_length_and_rate():
    _, seq = _frames(1.0)
    series, fs = frame_series(seq, VenfConfig())
    assert len(series) == len(seq) * seq.height
    assert fs == pytest.approx(30.0 * seq.height)


def test_series_row_mean_requires_rolling_shutter():
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0)
    seq = simulate_frames(IlluminationModel(), enf, cfg, np.ones((4, 4)))
    with pytest.raises(ValueError, match="rolling"):
        frame_series(seq, VenfConfig(mode="row_mean"))


def test_series_needs_two_frames():
    seq = FrameSequence(2, 2, 30.0, "global", 0.0, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="two frames"):
        frame_series(seq, VenfConfig(mode="global_mean"))


def test_venf_config_validation():
    with pytest.raises(ValueError):
        VenfConfig(mode="diagonal_mean")
    with pytest.raises(ValueError):
        VenfConfig(detrend="polynomial")


# ------------------------------------------------------------------ aliasing

def test_global_shutter_alias_is_ten_hertz():
    _, seq = _frames(60.0, shutter="global", fps=30.0)
    means = seq.frames.mean(axis=(1, 2))
    m = means - means.mean()
    spec = np.abs(np.fft.rfft(m * np.hanning(len(m)), n=8 * len(m)))
    freqs = np.fft.rfftfreq(8 * len(m), 1.0 / 30.0)
    assert freqs[np.argmax(spec)] == pytest.approx(10.0, abs=0.05)


def test_global_shutter_unaliases_to_nominal():
    _, seq = _frames(60.0, shutter="global", fps=30.0)
    trace = extract_venf(seq, GRID, STFT, VenfConfig(mode="global_mean"))
    assert np.max(np.abs(trace.values - 50.0)) < 0.01


def test_global_shutter_unaliases_from_above():
    # at 35 fps the 100 Hz flicker lies 5 Hz below 3*fps: the alias folds
    # back down from there, not up to 110 Hz
    _, seq = _frames(60.0, shutter="global", fps=35.0)
    trace = extract_venf(seq, GRID, STFT, VenfConfig(mode="global_mean"))
    assert np.max(np.abs(trace.values - 50.0)) < 0.01


@pytest.mark.parametrize("detrend", ["consecutive_pair", "none"])
def test_global_shutter_tracks_an_alias_of_one_hertz(detrend):
    # at 33 fps the flicker folds to 1.00 Hz, the lowest alias accepted:
    # the +/- 1 Hz search band reaches down to 0 Hz and is still tracked;
    # undetrended, the frames' DC line sits just below that band
    enf, seq = _frames(60.0, shutter="global", fps=33.0, seed=2,
                       deviation=0.003)
    trace = extract_venf(seq, GRID, STFT, VenfConfig(mode="global_mean",
                                                     detrend=detrend))
    csum = np.concatenate(([0.0], np.cumsum(enf.values)))
    lo = np.searchsorted(enf.times, trace.times - 8.0, "left")
    hi = np.searchsorted(enf.times, trace.times + 8.0, "right")
    ref = (csum[hi] - csum[lo]) / (hi - lo)
    assert np.max(np.abs(trace.values - ref)) < 0.01


def test_degenerate_alias_rejected():
    for fps in (50.0, 40.0):        # folds onto DC and onto fs/2
        _, seq = _frames(40.0, shutter="global", fps=fps)
        with pytest.raises(ValueError, match="degenerate alias"):
            extract_venf(seq, GRID, STFT, VenfConfig(mode="global_mean"))


def test_pair_detrend_rejects_flicker_on_a_multiple_of_fps():
    # at 25 fps both frames of a pair see one flicker phase, so the pair
    # detrend cancels the 100 Hz line; without it the line is tracked
    _, seq = _frames(40.0, fps=25.0, size=16)
    with pytest.raises(ValueError, match="degenerate alias"):
        extract_venf(seq, GRID, STFT, VenfConfig())
    trace = extract_venf(seq, GRID, STFT, VenfConfig(detrend="none"))
    assert np.max(np.abs(trace.values - 50.0)) < 0.01


# ------------------------------------------------------------- end to end

def test_rolling_shutter_recovers_constant_enf():
    _, seq = _frames(40.0)
    trace = extract_venf(seq, GRID, STFT, VenfConfig())
    assert np.max(np.abs(trace.values - 50.0)) < 0.005


def test_rolling_shutter_tracks_wandering_enf():
    enf, seq = _frames(60.0, size=16, exposure=0.0095, seed=4,
                       deviation=0.003)
    trace = extract_venf(seq, GRID, STFT, VenfConfig())
    csum = np.concatenate(([0.0], np.cumsum(enf.values)))
    lo = np.searchsorted(enf.times, trace.times - 8.0, "left")
    hi = np.searchsorted(enf.times, trace.times + 8.0, "right")
    ref = (csum[hi] - csum[lo]) / (hi - lo)
    assert pearson_cc(trace.values, ref) > 0.85


def test_detrend_mode_does_not_break_recovery():
    _, seq = _frames(40.0)
    for detrend in ("none", "consecutive_pair"):
        trace = extract_venf(seq, GRID, STFT, VenfConfig(detrend=detrend))
        assert np.max(np.abs(trace.values - 50.0)) < 0.01


def test_search_band_is_the_stft_halfwidth():
    # a 50.4 Hz grid lies outside a +/- 0.2 Hz search band
    enf = EnfTrace(0.0, 0.01, np.full(4001, 50.4))
    cfg = FrameConfig(width=16, height=16, row_readout=1.0 / 960.0,
                      exposure=0.0)
    seq = simulate_frames(IlluminationModel(phase=0.3), enf, cfg,
                          np.full((16, 16), 0.5))
    for mode in ("row_mean", "global_mean"):
        venf = VenfConfig(mode=mode)
        wide = extract_venf(seq, GRID, STFT, venf)
        assert np.max(np.abs(wide.values - 50.4)) < 0.01
        narrow = extract_venf(seq, GRID, StftConfig(search_halfwidth_hz=0.2),
                              venf)
        assert np.max(np.abs(narrow.values - 50.0)) <= 0.2 + 1e-9


@pytest.mark.parametrize("mode", ["row_mean", "global_mean"])
def test_band_pass_is_the_tracker_search_band(monkeypatch, mode):
    _, seq = _frames(20.0)
    searched = []

    def spy_track(*args, halfwidth_hz, **kw):
        searched.append(halfwidth_hz)
        return stft_peak_track(*args, halfwidth_hz=halfwidth_hz, **kw)

    monkeypatch.setattr(venf_module, "stft_peak_track", spy_track)
    extract_venf(seq, GRID, StftConfig(search_halfwidth_hz=0.3),
                 VenfConfig(mode=mode, detrend="none"))
    assert searched == pytest.approx([0.6])


def test_row_rate_too_low_for_direct_line():
    # 4 rows at 30 fps = 120 samples/s: the 100 Hz line is unreachable
    _, seq = _frames(40.0, size=4)
    with pytest.raises(ValueError, match="^" + re.escape(
            "band 99 to 101 Hz outside (0, Nyquist 60 Hz): [stft] "
            "search_halfwidth_hz sets its width") + "$"):
        extract_venf(seq, GRID, STFT, VenfConfig())
