"""Event-to-ENF pipeline stages and their composition."""

import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenf import eenf as eenf_module
from evenf.core import EnfTrace, EventStream, GridConfig, mae
from evenf.eenf import (HarmonicConfig, SamplingConfig, StftConfig,
                        _band_magnitudes, _cis, _select_segments,
                        extract_eenf_detailed,
                        normalize_to_baseband, smoothness, spatial_vote,
                        stft_peak_track, temporal_sample)
from evenf.evaluate import ScenarioConfig, simulate_scene
from evenf.ingest import ReferenceSignal, reference_enf
from evenf.simulate import (EnfProcessConfig, IlluminationModel,
                            SensorConfig, illumination_crossings,
                            simulate_events, synthesize_enf)
from evenf.venf import VenfConfig, extract_venf

GRID = GridConfig(50.0)


def _stream_at(times, pols, width=4, height=4):
    n = len(times)
    return EventStream(width, height, times, [0] * n, [0] * n, pols)


def _cohort(slices, n):
    """(timestamps, polarities) of slice n."""
    sl = slice(slices.start[n], slices.stop[n])
    return slices.stream.t[sl], slices.stream.p[sl]


# -------------------------------------------------------- temporal sampling

def test_sampling_worked_example():
    stream = _stream_at([0.0000, 0.0004, 0.0011, 0.0012, 0.0025],
                        [1, 1, 1, -1, 1])
    slices = temporal_sample(stream, SamplingConfig(delta_t=0.001))
    assert len(slices) == 3
    assert np.allclose(slices.moments, [0.000, 0.001, 0.002])
    t0, p0 = _cohort(slices, 0)
    assert list(t0) == [0.0000] and list(p0) == [1]
    t1, p1 = _cohort(slices, 1)          # 0.0004 and 0.0012 are discarded
    assert list(t1) == [0.0011] and list(p1) == [1]
    t2, p2 = _cohort(slices, 2)
    assert list(t2) == [0.0025] and list(p2) == [1]


def test_sampling_single_event_yields_single_slice():
    stream = _stream_at([0.42], [1])
    slices = temporal_sample(stream, SamplingConfig(delta_t=0.001))
    assert len(slices) == 1
    assert slices.moments[0] == 0.42


def test_sampling_events_exactly_on_grid():
    times = 0.001 * np.arange(5)
    stream = _stream_at(times, [1, -1, 1, -1, 1])
    slices = temporal_sample(stream, SamplingConfig(delta_t=0.001))
    assert len(slices) == 5
    for n in range(5):
        tn, pn = _cohort(slices, n)
        assert list(tn) == [times[n]]


@pytest.mark.parametrize("t1", [0.0, 1e3, 1.7e9])
def test_sampling_keeps_a_last_moment_on_the_last_event(t1):
    # at 1.7e9 s, (t_N - t1) / delta_t rounds to just under 4, while the
    # moment t1 + 4*delta_t still equals t_N
    times = t1 + 0.001 * np.arange(5)
    slices = temporal_sample(_stream_at(times, [1, -1, 1, -1, 1]),
                             SamplingConfig(delta_t=0.001))
    assert list(slices.start) == [0, 1, 2, 3, 4]
    assert list(slices.stop) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("dt", [1e-6, 2e-7, 1e-9])
def test_sampling_steps_finer_than_the_clock_match_the_loop(dt):
    # 1.7e9 s timestamps are 2.4e-7 s apart as floats: at these steps
    # many moments round onto the same value
    t = 1.7e9 + np.array([0.0, 2.4e-7, 2.4e-7, 4.8e-7, 4.8e-7, 7.2e-7])
    slices = temporal_sample(_stream_at(t, [1, -1, -1, 1, 1, -1]),
                             SamplingConfig(delta_t=dt))
    oracle = _sampling_oracle(t, dt)
    assert list(slices.moments) == [m for m, _, _ in oracle]
    assert list(zip(slices.start, slices.stop)) == [(i, j)
                                                    for _, i, j in oracle]


def test_sampling_one_cohort_serves_consecutive_moments():
    # nothing until 0.0035: moments at 1, 2, 3 ms all adopt that cohort
    stream = _stream_at([0.0, 0.0035, 0.0035], [1, -1, -1])
    slices = temporal_sample(stream, SamplingConfig(delta_t=0.001))
    assert len(slices) == 4
    for n in (1, 2, 3):
        tn, pn = _cohort(slices, n)
        assert list(tn) == [0.0035, 0.0035]
        assert list(pn) == [-1, -1]


def test_sampling_empty_stream_rejected():
    with pytest.raises(ValueError, match="empty stream"):
        temporal_sample(_stream_at([], []), SamplingConfig())


def _sampling_oracle(t, dt):
    """Direct loop over sampling moments, for cross-checking."""
    t1, t_last = t[0], t[-1]
    n_max = 0
    while t1 + (n_max + 1) * dt <= t_last:
        n_max += 1
    picks = []
    for n in range(n_max + 1):
        moment = t1 + n * dt
        i = int(np.searchsorted(t, moment, side="left"))
        chosen = t[i]
        j = i
        while j < len(t) and t[j] == chosen:
            j += 1
        picks.append((moment, i, j))
    return picks


# temporal_sample's group size and tie steps: as shipped, and small enough
# that short streams cross group edges and leave tied runs open
_THRESHOLDS = {"shipped": (eenf_module._GROUP, eenf_module._TIE_STEPS),
               "group 1, 1 step": (1, 1), "group 2, 3 steps": (2, 3),
               "group 3, 2 steps": (3, 2)}
_thresholds = pytest.mark.parametrize("group, steps", _THRESHOLDS.values(),
                                      ids=_THRESHOLDS.keys())


def _sample_with(group, steps, stream, dt):
    with mock.patch.multiple(eenf_module, _GROUP=group, _TIE_STEPS=steps):
        return temporal_sample(stream, SamplingConfig(delta_t=dt))


@_thresholds
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampling_matches_direct_loop(group, steps, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    n = data.draw(st.integers(min_value=1, max_value=200))
    # absolute camera clocks: the moment count is most exposed far from 0
    offset = data.draw(st.sampled_from([0.0, 1e3, 1.7e9]))
    # round to 4 decimals so repeated timestamps (cohorts) happen often
    t = offset + np.sort(np.round(rng.uniform(0.0, 0.2, n), 4))
    p = 2 * rng.integers(0, 2, n) - 1
    stream = _stream_at(t, p)
    dt = data.draw(st.sampled_from([0.001, 0.0025, 0.01]))
    slices = _sample_with(group, steps, stream, dt)
    oracle = _sampling_oracle(t, dt)
    assert len(slices) == len(oracle)
    for k, (moment, i, j) in enumerate(oracle):
        assert slices.moments[k] == moment
        assert (slices.start[k], slices.stop[k]) == (i, j)


@_thresholds
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sampling_stop_is_the_searched_cohort_end(group, steps, data):
    # the clip piles events onto both ends of the support, a motion pair
    # puts two on one time, and most other events stand alone; some tied
    # events sit exactly on moments t1 + k*dt, on a clock at 0 or 1.7e9 s
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    n = data.draw(st.integers(1, 300))
    decimals = data.draw(st.sampled_from([3, 4, 9]))
    t = np.clip(np.round(rng.uniform(-0.05, 0.25, n), decimals), 0.0, 0.2)
    pairs = np.repeat(rng.uniform(0.0, 0.2, data.draw(st.integers(0, 20))), 2)
    dt = data.draw(st.sampled_from([1e-4, 0.001, 0.0025, 0.01]))
    on_moments = dt * np.repeat(rng.integers(0, int(0.2 / dt), 10),
                                rng.integers(1, 4, 10))
    t = np.sort(np.concatenate((t, pairs, on_moments, [0.0])))
    t = data.draw(st.sampled_from([0.0, 1.7e9])) + t
    stream = _stream_at(t, 2 * rng.integers(0, 2, len(t)) - 1)
    slices = _sample_with(group, steps, stream, dt)
    start = np.searchsorted(t, slices.moments, side="left")
    want = np.searchsorted(t, t[start], side="right")
    assert slices.start.dtype == start.dtype == slices.stop.dtype == want.dtype
    assert np.array_equal(slices.start, start)
    assert np.array_equal(slices.stop, want)


@pytest.mark.parametrize("t1", [0.0, 1.7e9])
@_thresholds
def test_sampling_bounds_across_group_edges_and_open_runs(group, steps, t1):
    # 6-event piles at both ends, pairs on moments 3 and 9, and a triple
    # on moment 7 that serves moments 5-7
    k = np.array([0] * 6 + [3, 3, 4.1] + [7] * 3 + [9, 9] + [12] * 6)
    t = t1 + 0.001 * k
    slices = _sample_with(group, steps, _stream_at(t, [1] * len(t)), 0.001)
    assert len(slices) == 13 and slices.moments[3] == t[6]
    start = np.searchsorted(t, slices.moments, side="left")
    assert np.array_equal(slices.start, start)
    assert np.array_equal(slices.stop,
                          np.searchsorted(t, t[start], side="right"))
    # both end piles are still open after the last step
    assert slices.stop[0] - slices.start[0] > steps + 1
    assert slices.stop[-1] - slices.start[-1] > steps + 1


def test_sampling_matches_searchsorted_on_a_dynamic_scene():
    # motion pairs tie two events on one time; the clip piles many
    _, events, _ = simulate_scene(ScenarioConfig(), "dynamic", 40.0, 1,
                                  frames=False)
    slices = temporal_sample(events, SamplingConfig())
    t = events.t
    start = np.searchsorted(t, slices.moments, side="left")
    stop = np.searchsorted(t, t[start], side="right")
    assert np.array_equal(slices.start, start)
    assert np.array_equal(slices.stop, stop)
    sizes = np.bincount(stop - start)
    assert sizes[2] > 1000 and sizes[eenf_module._TIE_STEPS + 2:].sum() > 0


# ------------------------------------------------------------ spatial vote

def test_vote_worked_examples():
    # three cohorts: {+,+,-} -> +1, {+,-} -> 0, {-,-,-,+} -> -1
    times = [0.0] * 3 + [0.001] * 2 + [0.002] * 4
    pols = [1, 1, -1, 1, -1, -1, -1, -1, 1]
    slices = temporal_sample(_stream_at(times, pols),
                             SamplingConfig(delta_t=0.001))
    votes = spatial_vote(slices)
    assert list(votes.values) == [1, 0, -1]
    assert votes.t0 == 0.0 and votes.step == 0.001


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), k=st.integers(1, 5))
def test_vote_unchanged_by_balanced_pairs(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    t = np.sort(np.round(rng.uniform(0.0, 0.05, n), 4))
    p = 2 * rng.integers(0, 2, n) - 1
    base = _stream_at(t, p)
    before = spatial_vote(temporal_sample(base, SamplingConfig(0.001)))
    # inject k balanced pairs at one existing cohort timestamp
    pick = t[int(rng.integers(0, n))]
    t_new = np.concatenate((t, np.full(2 * k, pick)))
    p_new = np.concatenate((p, np.tile([1, -1], k)))
    order = np.argsort(t_new, kind="stable")
    stuffed = _stream_at(t_new[order], p_new[order])
    after = spatial_vote(temporal_sample(stuffed, SamplingConfig(0.001)))
    assert before == after


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vote_is_sign_of_cohort_polarity_sum(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    n = data.draw(st.integers(min_value=1, max_value=400))
    # a few distinct timestamps, so most cohorts hold many tied events
    t = np.sort(np.round(rng.uniform(0.0, 0.02, n), 3))
    p = 2 * rng.integers(0, 2, n) - 1
    dt = data.draw(st.sampled_from([0.001, 0.0025, 0.01]))
    votes = spatial_vote(temporal_sample(_stream_at(t, p),
                                         SamplingConfig(delta_t=dt)))
    oracle = _sampling_oracle(t, dt)
    assert list(votes.values) == [np.sign(p[i:j].sum())
                                  for _, i, j in oracle]


def _cumsum_vote(slices):
    """The votes as one running polarity sum over the whole stream gives
    them: sign(c[stop] - c[start])."""
    c = np.concatenate(([0], np.cumsum(slices.stream.p, dtype=np.int64)))
    return list(np.sign(c[slices.stop] - c[slices.start]))


_VOTE_EDGES = {
    "one event": ([0.42], [-1]),
    "last cohort ends the stream": ([0.0, 0.001, 0.002, 0.002],
                                    [1, 1, -1, -1]),
    "one cohort serves three moments": ([0.0, 0.0035, 0.0035, 0.004],
                                        [1, -1, -1, 1]),
    "one timestamp, odd": ([0.7] * 5, [1, -1, 1, -1, 1]),
    "one timestamp, balanced": ([0.7] * 4, [1, -1, 1, -1]),
}


@pytest.mark.parametrize("times, pols", _VOTE_EDGES.values(),
                         ids=_VOTE_EDGES.keys())
def test_vote_matches_the_cumsum_formula_at_the_edges(times, pols):
    slices = temporal_sample(_stream_at(times, pols),
                             SamplingConfig(delta_t=0.001))
    assert list(spatial_vote(slices).values) == _cumsum_vote(slices)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vote_matches_the_cumsum_formula(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    n = data.draw(st.integers(min_value=1, max_value=500))
    decimals = data.draw(st.integers(2, 5))
    t = np.sort(np.round(rng.uniform(0.0, 0.05, n), decimals))
    p = 2 * rng.integers(0, 2, n) - 1
    dt = data.draw(st.sampled_from([0.0003, 0.001, 0.0025, 0.01]))
    slices = temporal_sample(_stream_at(t, p), SamplingConfig(delta_t=dt))
    assert list(spatial_vote(slices).values) == _cumsum_vote(slices)


# --------------------------------------------------------------- peak track

def _tone(freq, fs=1000.0, duration=40.0, amp=1.0, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return amp * np.cos(2 * np.pi * freq * t + phase)


def test_bandpass_square_wave_isolates_fundamental():
    # the band DFT is the band filter: the square wave's odd harmonics
    # fall outside it
    fs = 1000.0
    t = np.arange(int(40 * fs)) / fs
    square = np.sign(np.sin(2 * np.pi * 100.0 * t) + 1e-12)
    trace, _ = stft_peak_track(square, fs, StftConfig(), 100.0, halfwidth_hz=0.5)
    assert np.max(np.abs(trace.values - 100.0)) < 0.01


def test_track_resolves_millihertz_offsets():
    trace, _ = stft_peak_track(_tone(100.02, phase=0.4), 1000.0, StftConfig(),
                            100.0, halfwidth_hz=0.5)
    assert np.max(np.abs(trace.values - 100.02)) < 0.005


def test_track_clamps_out_of_band_tone():
    trace, _ = stft_peak_track(_tone(100.6), 1000.0, StftConfig(), 100.0,
                            halfwidth_hz=0.5)
    assert np.all(trace.values == 100.5)


def test_track_follows_the_stronger_tone():
    x = _tone(100.1) + _tone(100.3, amp=0.1, phase=1.0)
    trace, _ = stft_peak_track(x, 1000.0, StftConfig(), 100.0, halfwidth_hz=0.5)
    assert np.max(np.abs(trace.values - 100.1)) < 0.01


def test_track_window_timing():
    stft = StftConfig(window_s=16.0, hop_s=1.0)
    trace, _ = stft_peak_track(_tone(100.0, duration=20.0), 1000.0, stft, 100.0)
    assert len(trace) == 5                      # (20-16)/1 + 1
    assert trace.t0 == pytest.approx(8.0)       # first window center
    assert trace.step == pytest.approx(1.0)


def test_track_rejects_short_signal():
    with pytest.raises(ValueError, match="^" + re.escape(
            "signal of 10000 samples shorter than the analysis window of "
            "16000: [stft] window_s sets its length") + "$"):
        stft_peak_track(_tone(100.0, duration=10.0), 1000.0, StftConfig(),
                        100.0)


@pytest.mark.parametrize("center_hz,halfwidth_hz,band", [
    (0.5, 0.6, "-0.1 to 1.1"),      # below 0 Hz
    (499.5, 0.5, "499 to 500"),     # reaching Nyquist
], ids=["0.5-0.6", "499.5-0.5"])
def test_track_refuses_a_band_outside_zero_to_nyquist(center_hz, halfwidth_hz,
                                                      band):
    # the refusal names the band, the limit and the setting that sizes it
    with pytest.raises(ValueError, match="^" + re.escape(
            f"band {band} Hz outside (0, Nyquist 500 Hz): [stft] "
            "search_halfwidth_hz sets its width") + "$"):
        stft_peak_track(_tone(100.0, duration=20.0), 1000.0, StftConfig(),
                        center_hz, halfwidth_hz=halfwidth_hz)


def test_track_takes_a_band_from_zero_hz():
    # a band that touches 0 Hz starts at bin 1, above the DC guard bin
    trace, _ = stft_peak_track(_tone(1.2, duration=20.0), 1000.0,
                               StftConfig(), 1.0, halfwidth_hz=1.0)
    assert np.max(np.abs(trace.values - 1.2)) < 0.01


def _hann_rfft_band(x, win_n, hop_n, lo, hi, periodic=True):
    """Reference for _band_magnitudes: one full rfft per hop of the frame
    tapered with scipy's Hann and zero-padded to 4x, bins lo-1 ... hi+1."""
    from scipy.signal import get_window
    n_hops = (len(x) - win_n) // hop_n + 1
    idx = np.arange(win_n)[None, :] + hop_n * np.arange(n_hops)[:, None]
    window = get_window("hann", win_n, fftbins=periodic)
    spec = np.fft.rfft(x[idx] * window, n=4 * win_n, axis=1)
    return np.abs(spec[:, lo - 1:hi + 2])


# plus the shipped windows: video (30 fps), events (1 kHz), 8 kHz reference
_WINDOW_SIZES = list(range(2, 4097)) + [480, 16_000, 128_000]


def test_track_window_is_scipys_periodic_hann():
    for n in _WINDOW_SIZES:
        # one window of ones; bins 1-3 of the 4n-point spectrum
        x = np.ones(n)
        np.testing.assert_allclose(_band_magnitudes(x, n, n, 1, 3),
                                   _hann_rfft_band(x, n, n, 1, 3),
                                   rtol=1e-9, atol=0, err_msg=str(n))


def test_hann_rfft_oracle_rejects_a_symmetric_window():
    for n in _WINDOW_SIZES[::97] + _WINDOW_SIZES[-3:]:
        x = np.ones(n)
        assert not np.allclose(_band_magnitudes(x, n, n, 1, 3),
                               _hann_rfft_band(x, n, n, 1, 3, periodic=False),
                               rtol=1e-9, atol=0), n


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_magnitudes_match_the_hann_rfft(data):
    # the helper works in samples and bins; fs only sets their counts
    fs = data.draw(st.sampled_from([30.0, 777.0, 960.0, 1000.0, 8000.0]))
    win_n = max(2, round(data.draw(st.floats(0.1, 2.0)) * fs))
    hop_n = data.draw(st.integers(1, win_n).filter(lambda h: win_n % h))
    n_hops = data.draw(st.integers(1, 12))
    extra = data.draw(st.integers(0, hop_n - 1))
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 31))) \
        .standard_normal(win_n + (n_hops - 1) * hop_n + extra)
    top = 2 * win_n - 1                         # last bin below Nyquist
    lo = data.draw(st.one_of(st.just(1), st.integers(1, top - 1)))
    hi = data.draw(st.integers(lo + 1, min(top, lo + 60)))
    mag = _band_magnitudes(x, win_n, hop_n, lo, hi)
    assert mag.shape == (n_hops, hi - lo + 3)
    np.testing.assert_allclose(mag, _hann_rfft_band(x, win_n, hop_n, lo, hi),
                               rtol=1e-9, atol=0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cis_table_is_the_direct_exponential(data):
    nfft = data.draw(st.integers(1, 600_000))
    m = np.array(data.draw(st.lists(st.integers(0, nfft - 1), max_size=60))
                 + [0, nfft - 1, nfft // 2, nfft // 4], dtype=np.int64)
    table, direct = _cis(nfft, nfft, {}), _cis(nfft, nfft - 1, {})
    assert np.array_equal(_bits(table(m)), _bits(direct(m)))
    assert np.array_equal(_bits(table(m[:, None])), _bits(direct(m[:, None])))


def _direct_band_magnitudes(*args):
    """_band_magnitudes with every phasor a direct exponential."""
    real = eenf_module._cis
    with mock.patch.object(eenf_module, "_cis",
                           lambda nfft, n_direct, tables: real(nfft, 0, {})):
        return _band_magnitudes(*args)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_magnitudes_are_the_direct_phasors_bitwise(data):
    fs = data.draw(st.sampled_from([30.0, 960.0, 1000.0, 8000.0]))
    win_n = max(2, round(data.draw(st.floats(0.1, 2.0)) * fs))
    hop_n = data.draw(st.integers(1, win_n))
    n_hops = data.draw(st.integers(1, 6))
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 31))) \
        .standard_normal(win_n + (n_hops - 1) * hop_n)
    lo = data.draw(st.integers(1, 2 * win_n - 2))
    hi = data.draw(st.integers(lo + 1, min(2 * win_n - 1, lo + 60)))
    args = (x, win_n, hop_n, lo, hi)
    assert np.array_equal(_bits(_band_magnitudes(*args)),
                          _bits(_direct_band_magnitudes(*args)))


# the shipped trackers: events at 1 kHz (m = 1 and 3), video rows at
# 960 Hz take the table; the 8 kHz reference keeps the direct phasors
@pytest.mark.parametrize("fs, center_hz, halfwidth_hz, table", [
    (1000.0, 100.0, 1.0, True), (1000.0, 300.0, 3.0, True),
    (960.0, 100.0, 1.0, True), (8000.0, 50.0, 0.5, False)])
def test_shipped_trackers_on_both_sides_of_the_table_guard(
        fs, center_hz, halfwidth_hz, table):
    win_n, hop_n = round(16.0 * fs), round(fs)
    nfft = 4 * win_n
    lo = int(np.ceil((center_hz - halfwidth_hz) * nfft / fs))
    hi = int(np.floor((center_hz + halfwidth_hz) * nfft / fs))
    assert (nfft <= min(hop_n, 1024) * (hi - lo + 11)) == table
    x = np.random.default_rng(7).standard_normal(win_n + 2 * hop_n)
    args = (x, win_n, hop_n, lo, hi)
    assert np.array_equal(_bits(_band_magnitudes(*args)),
                          _bits(_direct_band_magnitudes(*args)))


def test_phasor_table_is_built_once_per_extraction(monkeypatch):
    # the table for nfft = 64 000 serves m = 1, 2 and 3, and is not kept
    # after the call
    _, stream = _sim(duration=20.0)
    built, real = [], np.exp

    def exp(z):
        built.append(np.size(z))
        return real(z)
    monkeypatch.setattr(eenf_module.np, "exp", exp)
    extract_eenf_detailed(stream, GRID)
    extract_eenf_detailed(stream, GRID)
    assert built.count(64_000) == 2


def test_warm_and_cold_caches_give_the_same_bits():
    # each run twice: the second call finds warm whatever the first left
    # behind; the 800 Hz reference takes a phasor table, as events and rows
    # do, but no band-pass
    _, stream, frames = simulate_scene(ScenarioConfig(), "static", 20.0, 3)
    sig = ReferenceSignal(800.0, np.sin(2 * np.pi * 50.01
                                        * np.arange(16_000) / 800.0))
    runs = [
        lambda: [extract_eenf_detailed(stream, GRID).trace.values,
                 *extract_eenf_detailed(stream, GRID).prominence_db.values()],
        lambda: [extract_venf(frames, GRID, StftConfig(), VenfConfig()).values],
        lambda: [reference_enf(sig).values]]
    for run in runs:
        cold = run()
        warm = run()
        assert [_bits(a).tolist() for a in cold] == \
            [_bits(a).tolist() for a in warm]


@pytest.fixture
def blas():
    """numpy's OpenBLAS (get, set) pair and the count each test must find
    again: 2 threads where OpenBLAS allows them.  The count before the
    test is put back after it."""
    pair = eenf_module._openblas()
    if pair is None:
        pytest.skip("numpy calls no OpenBLAS here")
    get, set_ = pair
    saved = get()
    set_(2)
    yield pair, get()
    set_(saved)


def test_band_dft_product_runs_on_one_blas_thread(blas):
    (get, _), before = blas
    assert eenf_module._one_blas_thread(get) == 1
    assert get() == before


def test_blas_thread_count_comes_back_when_the_product_raises(blas):
    (get, _), before = blas

    def product():
        assert get() == 1
        raise RuntimeError("in the product")

    with pytest.raises(RuntimeError, match="in the product"):
        eenf_module._one_blas_thread(product)
    assert get() == before


# the 1 kHz event tracker's m = 3 band (300 +/- 3 Hz) over 60 s
_EVENT_BAND = (np.random.default_rng(3).standard_normal(60_000), 16_000, 1000,
               19008, 19392)


def test_band_magnitudes_same_bits_where_no_openblas_is_found(blas,
                                                             monkeypatch):
    # the same product, left at a caller's count of one thread
    (_, set_), _ = blas
    want = _band_magnitudes(*_EVENT_BAND)
    monkeypatch.setattr(eenf_module, "_openblas", lambda: None)
    assert eenf_module._one_blas_thread(lambda: "ran") == "ran"
    set_(1)
    assert np.array_equal(_bits(_band_magnitudes(*_EVENT_BAND)), _bits(want))


def test_band_magnitudes_bits_do_not_depend_on_the_callers_blas_threads(blas):
    # OpenBLAS's two-thread dgemm sums in another order than its one-thread
    # one (the last bits differ here): the scope keeps them to one
    (_, set_), _ = blas
    bits = []
    for n in (2, 1):
        set_(n)
        bits.append(_bits(_band_magnitudes(*_EVENT_BAND)))
    assert np.array_equal(*bits)


def test_concurrent_band_dfts_leave_the_blas_thread_count(blas):
    # more threads than cores, switching often: a caller that saved
    # another's 1 and restored it last would leave the count at 1
    (get, _), before = blas
    want = _bits(_band_magnitudes(*_EVENT_BAND))
    got = []

    def run():
        for _ in range(10):
            got.append(_bits(_band_magnitudes(*_EVENT_BAND)))

    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert get() == before
    assert len(got) == 40 and all(np.array_equal(g, want) for g in got)


@pytest.mark.parametrize("window_s, hop_s, message", [
    (0.001, 0.001, "window of 1 samples, hop of 1"),
    (0.0004, 0.0004, "window of 0 samples, hop of 0"),
    (16.0, 0.0004, "window of 16000 samples, hop of 0"),
])
def test_track_rejects_degenerate_window_or_hop(window_s, hop_s, message):
    # scipy's Hann is [1.0] at one sample, the cosine formula [0.0]
    with pytest.raises(ValueError, match=message):
        stft_peak_track(np.ones(20_000), 1000.0, StftConfig(window_s, hop_s),
                        100.0)


def test_track_prominence_separates_tone_from_noise():
    stft = StftConfig()
    _, prom_tone = stft_peak_track(_tone(100.02), 1000.0, stft, 100.0)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(40_000)
    _, prom_noise = stft_peak_track(noise, 1000.0, stft, 100.0)
    assert np.median(prom_tone) > 25.0
    assert np.median(prom_noise) < 12.0


# ------------------------------------------------- normalize / select / S

def test_normalize_worked_examples():
    raw = EnfTrace(8.0, 1.0, [200.04])
    out = normalize_to_baseband(raw, 2)
    assert out.values[0] == pytest.approx(50.01)
    assert out.t0 == 8.0 and out.step == 1.0
    assert normalize_to_baseband(EnfTrace(0.0, 1.0, [100.0]),
                                 1).values[0] == pytest.approx(50.0)
    assert normalize_to_baseband(EnfTrace(0.0, 1.0, [300.12]),
                                 3).values[0] == pytest.approx(50.02)
    with pytest.raises(ValueError):
        normalize_to_baseband(raw, 0)


def test_smoothness_worked_examples():
    assert smoothness(np.array([50.0, 50.0, 50.0])) == 0.0
    assert smoothness(np.array([50.00, 50.01, 50.00])) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        smoothness(np.array([50.0]))


def test_smoothness_ranks_noise_above_ramp():
    rng = np.random.default_rng(11)
    ramp = np.linspace(0.0, 1.0, 200)
    wins = sum(smoothness(rng.uniform(0.0, 1.0, 200)) > smoothness(ramp)
               for _ in range(1000))
    assert wins == 1000


def _traces(per_order):
    return {m: EnfTrace(0.0, 1.0, v) for m, v in per_order.items()}


def test_select_single_harmonic_is_identity():
    values = 50.0 + 0.01 * np.sin(0.1 * np.arange(40))
    out, _, _ = _select_segments(_traces({1: values}),
                                 HarmonicConfig(max_order_m=1))
    assert np.array_equal(out, values)


def test_select_prefers_smooth_harmonic_everywhere():
    rng = np.random.default_rng(4)
    truth = 50.0 + 0.01 * np.sin(0.1 * np.arange(60))
    noisy = truth + 0.05 * rng.standard_normal(60)
    out, _, _ = _select_segments(_traces({1: noisy, 2: truth}),
                                 HarmonicConfig())
    assert np.array_equal(out, truth)


def test_select_ties_go_to_the_lower_order():
    same = np.full(40, 50.0)
    traces = _traces({1: same, 2: same, 3: same})
    _, winners, _ = _select_segments(traces, HarmonicConfig())
    assert winners == [1, 1, 1, 1]


def test_select_switches_source_at_corruption_boundary():
    rng = np.random.default_rng(9)
    n = 120
    truth = 50.0 + 0.02 * np.sin(2 * np.pi * np.arange(n) / 45.0)
    h1 = truth.copy()
    h1[n // 2:] += 0.08 * rng.standard_normal(n // 2)   # second half ruined
    # the alternatives carry small white error everywhere, so the clean
    # first half of h1 beats them and the ruined second half loses
    h2 = truth + 0.004 * rng.standard_normal(n)
    h3 = truth + 0.004 * rng.standard_normal(n)
    traces = _traces({1: h1, 2: h2, 3: h3})
    values, winners, bounds = _select_segments(traces, HarmonicConfig())
    assert winners[:6] == [1] * 6
    assert all(w != 1 for w in winners[6:])
    selected_mae = mae(values, truth)
    singles = [mae(h, truth) for h in (h1, h2, h3)]
    assert selected_mae <= min(singles)


def test_select_trailing_short_segment_inherits_winner():
    rng = np.random.default_rng(2)
    n = 41                                # last segment has one sample
    smooth = np.full(n, 50.0)
    rough = 50.0 + 0.1 * rng.standard_normal(n)
    _, winners, bounds = _select_segments(_traces({1: rough, 2: smooth}),
                                          HarmonicConfig())
    assert bounds[-1] == (40, 41)
    assert winners == [2, 2, 2, 2, 2]


def test_select_output_is_per_segment_optimal():
    rng = np.random.default_rng(14)
    n = 60
    per = {m: 50.0 + 0.01 * rng.standard_normal(n) for m in (1, 2, 3)}
    traces = _traces(per)
    cfg = HarmonicConfig()
    from evenf.eenf import _segment_bounds
    values, winners, bounds = _select_segments(traces, cfg)
    for (i, j), w in zip(bounds, winners):
        best = min(smoothness(per[m][i:j]) for m in (1, 2, 3))
        assert smoothness(per[w][i:j]) == best
        assert np.array_equal(values[i:j], per[w][i:j])


# ------------------------------------------------------------- end to end

def _sim(duration=40.0, seed=11):
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.003,
                                          mean_reversion=0.005),
                         GRID, duration, 0.01, seed=seed)
    sensor = SensorConfig()
    crossings = illumination_crossings(sensor, IlluminationModel(phase=0.3),
                                       enf)
    stream = simulate_events(sensor, crossings, enf, seed=seed)
    return enf, stream


def _window_average(truth, times, window_s):
    csum = np.concatenate(([0.0], np.cumsum(truth.values)))
    lo = np.searchsorted(truth.times, times - window_s / 2.0, "left")
    hi = np.searchsorted(truth.times, times + window_s / 2.0, "right")
    return (csum[hi] - csum[lo]) / (hi - lo)


def test_extract_recovers_wandering_enf():
    enf, stream = _sim()
    trace = extract_eenf_detailed(stream, GRID).trace
    ref = _window_average(enf, trace.times, StftConfig().window_s)
    assert mae(trace.values, ref) < 3e-3


def test_extract_per_harmonic_agreement_on_odd_orders():
    # orders 1 and 3 both carry the flicker line strongly; their
    # baseband traces must agree closely on a clean stream
    _, stream = _sim()
    res = extract_eenf_detailed(stream, GRID)
    h = res.harmonics
    rms = np.sqrt(np.mean((h[1].values - h[3].values) ** 2))
    assert rms < 0.01


def test_extract_polarity_negation_leaves_trace_unchanged():
    _, stream = _sim()
    flipped = EventStream(stream.sensor_width, stream.sensor_height,
                          stream.t, stream.x, stream.y,
                          -stream.p.astype(np.int8))
    a = extract_eenf_detailed(stream, GRID).trace
    b = extract_eenf_detailed(flipped, GRID).trace
    assert a == b


def test_extract_negation_flips_votes_samplewise():
    _, stream = _sim(duration=2.0)
    flipped = EventStream(stream.sensor_width, stream.sensor_height,
                          stream.t, stream.x, stream.y,
                          -stream.p.astype(np.int8))
    va = spatial_vote(temporal_sample(stream, SamplingConfig()))
    vb = spatial_vote(temporal_sample(flipped, SamplingConfig()))
    assert np.array_equal(vb.values, -va.values)


def test_extract_is_deterministic():
    _, stream = _sim()
    a = extract_eenf_detailed(stream, GRID).trace
    b = extract_eenf_detailed(stream, GRID).trace
    assert a == b


def test_extract_matches_the_rfft_tracker(monkeypatch):
    _, stream = _sim()
    res = extract_eenf_detailed(stream, GRID)
    monkeypatch.setattr(eenf_module, "_band_magnitudes",
                        lambda *args, tables: _hann_rfft_band(*args))
    ref = extract_eenf_detailed(stream, GRID)
    assert res.winners == ref.winners
    assert np.max(np.abs(res.trace.values - ref.trace.values)) < 1e-9
    for m in ref.prominence_db:
        np.testing.assert_allclose(res.prominence_db[m], ref.prominence_db[m],
                                   rtol=0, atol=1e-9)


def test_each_band_pass_is_the_tracker_search_band(monkeypatch):
    _, stream = _sim(duration=20.0)
    searched = []

    def spy_track(*args, halfwidth_hz, **kw):
        searched.append(halfwidth_hz)
        return stft_peak_track(*args, halfwidth_hz=halfwidth_hz, **kw)

    monkeypatch.setattr(eenf_module, "stft_peak_track", spy_track)
    extract_eenf_detailed(stream, GRID,
                          stft=StftConfig(search_halfwidth_hz=0.3))
    assert searched == pytest.approx([0.6, 1.2, 1.8])


def test_extract_noise_only_stream_flagged_low_confidence():
    rng = np.random.default_rng(7)
    n = 40_000
    t = np.sort(rng.uniform(0.0, 40.0, n))
    stream = EventStream(4, 4, t, rng.integers(0, 4, n),
                         rng.integers(0, 4, n),
                         (2 * rng.integers(0, 2, n) - 1).astype(np.int8))
    res = extract_eenf_detailed(stream, GRID)
    assert res.all_low_confidence
    assert np.all(res.low_confidence)


def test_extract_skips_harmonics_above_nyquist(caplog):
    # one warning for every order skipped, however many are asked for
    _, stream = _sim()
    res = extract_eenf_detailed(stream, GRID, SamplingConfig(delta_t=0.004),
                                harmonics=HarmonicConfig(3000))
    assert list(res.harmonics) == [1]           # fs = 250 keeps only m=1
    assert [r.getMessage() for r in caplog.records] == [
        "skipping harmonics m=2..3000 from 200 Hz: above Nyquist (fs=250 Hz)"]


def test_extract_fails_when_no_harmonic_fits():
    _, stream = _sim()
    with pytest.raises(ValueError, match="no usable harmonic"):
        extract_eenf_detailed(stream, GRID, SamplingConfig(delta_t=0.006))


def test_extract_rejects_short_stream():
    _, stream = _sim(duration=10.0)
    with pytest.raises(ValueError, match="window"):
        extract_eenf_detailed(stream, GRID)
    # the tracker decides: 16 000 votes, one 16 s window (spanning 15.999 s),
    # track one hop; one vote fewer is refused, naming the setting
    t = 0.001 * np.arange(16_000)       # the sampling moments' own floats
    pols = np.where(np.sin(2 * np.pi * 100.0 * t + 0.3) >= 0, 1, -1)
    res = extract_eenf_detailed(_stream_at(t, pols, 1, 1), GRID)
    assert len(res.trace) == 1
    with pytest.raises(ValueError, match="^" + re.escape(
            "signal of 15999 samples shorter than the analysis window of "
            "16000: [stft] window_s sets its length") + "$"):
        extract_eenf_detailed(_stream_at(t[:-1], pols[:-1], 1, 1), GRID)
