"""Closed-loop synthesis: ENF process, illumination, events, frames."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evenf import simulate as simulate_module
from evenf.core import EnfTrace, EventStream, GridConfig
from evenf.simulate import (ContaminationConfig, EnfProcessConfig,
                            FrameConfig, FrameSequence, IlluminationModel,
                            OccluderConfig, SensorConfig, _ladder_crossings,
                            _refractory_filter, _time_order, flicker_phase,
                            illumination_at, illumination_crossings,
                            log_expansion_coeffs, simulate_events,
                            simulate_frames, synthesize_enf)

GRID = GridConfig(50.0)


def _constant_enf(duration=1.0, step=0.01):
    return synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID,
                          duration, step)


# ------------------------------------------------------------ ENF synthesis

def test_zero_deviation_gives_constant_trace():
    tr = _constant_enf(5.0)
    assert np.all(tr.values == 50.0)
    assert tr.t_end >= 5.0


def test_deviation_respects_hard_clip():
    cfg = EnfProcessConfig(deviation_std=0.002, max_deviation=0.05)
    tr = synthesize_enf(cfg, GRID, 120.0, 0.01, seed=7)
    assert np.all(tr.values >= 49.95)
    assert np.all(tr.values <= 50.05)


def test_enf_synthesis_is_deterministic():
    cfg = EnfProcessConfig()
    a = synthesize_enf(cfg, GRID, 30.0, 0.01, seed=3)
    b = synthesize_enf(cfg, GRID, 30.0, 0.01, seed=3)
    assert a == b
    c = synthesize_enf(cfg, GRID, 30.0, 0.01, seed=4)
    assert not np.array_equal(a.values, c.values)


def test_enf_synthesis_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_enf(EnfProcessConfig(), GRID, -1.0, 0.01)
    for duration in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            synthesize_enf(EnfProcessConfig(), GRID, duration, 0.01)
    with pytest.raises(ValueError):
        synthesize_enf(EnfProcessConfig(), GRID, 10.0, 0.0)
    with pytest.raises(ValueError):
        EnfProcessConfig(deviation_std=-0.01)
    with pytest.raises(ValueError):
        EnfProcessConfig(max_deviation=0.0)


# ---------------------------------------------------------- flicker / light

def test_flicker_phase_constant_trace_closed_form():
    enf = _constant_enf()
    # 2 * 2*pi * f0 * t, trapezoid is exact for a constant integrand
    t = np.array([0.0, 1.0 / 400.0, 1.0 / 200.0, 0.25])
    assert np.allclose(flicker_phase(enf, t), 200.0 * math.pi * t,
                       rtol=0, atol=1e-9)


def test_flicker_phase_linear_trace_closed_form():
    # values 50 + t: integral 50 t + t^2/2 is exact under trapezoid rule
    step = 0.01
    n = 101
    times = step * np.arange(n)
    enf = EnfTrace(0.0, step, 50.0 + times)
    t = np.array([0.155, 0.5, 1.0])
    expect = 4.0 * math.pi * (50.0 * t + 0.5 * t * t)
    assert np.allclose(flicker_phase(enf, t), expect, rtol=0, atol=1e-8)


def test_flicker_phase_rejects_out_of_support_times():
    enf = _constant_enf(1.0)
    with pytest.raises(ValueError, match="outside the trace support"):
        flicker_phase(enf, 2.0)


def test_illumination_worked_values():
    enf = _constant_enf()
    model = IlluminationModel(amplitude=1.0, bias=2.0, phase=0.0)
    assert illumination_at(model, enf, 0.0) == pytest.approx(3.0)
    assert illumination_at(model, enf, 1.0 / 400.0) == pytest.approx(2.0, abs=1e-9)
    assert illumination_at(model, enf, 1.0 / 200.0) == pytest.approx(1.0, abs=1e-9)


def test_illumination_zero_crossing_spacing():
    # I - B crosses zero first at 2.5 ms, then every 5 ms (half the
    # 10 ms flicker period)
    enf = _constant_enf()
    model = IlluminationModel(amplitude=1.0, bias=2.0, phase=0.0)
    t = np.arange(0.0, 0.1, 1e-5)
    sign = np.sign(illumination_at(model, enf, t) - model.bias)
    t, sign = t[sign != 0], sign[sign != 0]   # drop exact-zero samples
    flips = t[np.flatnonzero(np.diff(sign) != 0)]
    assert flips[0] == pytest.approx(1.0 / 400.0, abs=2e-5)
    assert np.allclose(np.diff(flips), 1.0 / 200.0, atol=2e-5)


def test_illumination_model_requires_positive_margin():
    with pytest.raises(ValueError):
        IlluminationModel(amplitude=2.0, bias=1.0)
    with pytest.raises(ValueError):
        IlluminationModel(amplitude=0.0, bias=1.0)


# ------------------------------------------------------- series coefficients

def test_expansion_coefficients_closed_form():
    model = IlluminationModel(amplitude=1.0, bias=1.25)
    c = log_expansion_coeffs(model, 3)
    # A = 2pq and B = p(1+q^2) give p = 1, q = 0.5 here
    assert c[0] == pytest.approx(0.0, abs=1e-15)
    assert c[1] == pytest.approx(1.0)
    assert c[2] == pytest.approx(-0.25)
    assert c[3] == pytest.approx(1.0 / 12.0)


def test_expansion_reconstructs_log_intensity():
    model = IlluminationModel(amplitude=0.9, bias=1.7)
    c = log_expansion_coeffs(model, 30)
    w = np.linspace(-math.pi, math.pi, 4001)
    rec = c[0] + sum(c[m] * np.cos(m * w) for m in range(1, 31))
    direct = np.log(model.amplitude * np.cos(w) + model.bias)
    assert np.max(np.abs(rec - direct)) < 1e-9


def test_expansion_near_limit_decays_like_two_over_m():
    model = IlluminationModel(amplitude=1.0, bias=1.0 + 1e-9)
    c = log_expansion_coeffs(model, 6)
    m = np.arange(1, 7)
    assert np.allclose(np.abs(c[1:]) * m / 2.0, 1.0, atol=1e-3)


def test_expansion_rejects_divergent_model():
    fake = types.SimpleNamespace(amplitude=2.0, bias=1.0)
    with pytest.raises(ValueError, match="expansion diverges"):
        log_expansion_coeffs(fake, 5)
    with pytest.raises(ValueError):
        log_expansion_coeffs(IlluminationModel(), 0)


# ------------------------------------------------------------ event streams

def _ladder_oracle(t_grid, log_i, c):
    """Sample-by-sample threshold walk, independent of the library path."""
    times, pols = [], []
    level = log_i[0]
    for i in range(1, len(t_grid)):
        lo, hi = log_i[i - 1], log_i[i]
        while hi - level >= c:
            target = level + c
            frac = (target - lo) / (hi - lo)
            times.append(t_grid[i - 1] + frac * (t_grid[i] - t_grid[i - 1]))
            pols.append(1)
            level = target
        while level - hi >= c:
            target = level - c
            frac = (target - lo) / (hi - lo)
            times.append(t_grid[i - 1] + frac * (t_grid[i] - t_grid[i - 1]))
            pols.append(-1)
            level = target
    return np.array(times), np.array(pols, dtype=np.int8)


def _oracle_for(sensor, model, enf, step):
    n = int(math.floor((enf.t_end - enf.t0) / step)) + 1
    t_grid = enf.t0 + step * np.arange(n)
    log_i = np.log(illumination_at(model, enf, t_grid))
    return _ladder_oracle(t_grid, log_i, sensor.threshold_c)


def test_event_times_match_brute_force_walk_same_grid():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    sensor = SensorConfig(width=1, height=1, timestamp_jitter=0.0)
    stream = simulate_events(sensor, model, enf)
    ot, op = _oracle_for(sensor, model, enf, sensor.sim_step)
    assert len(stream) == len(ot)
    assert np.array_equal(stream.p, op)
    assert np.max(np.abs(stream.t - ot)) < 1e-9


def test_event_times_match_dense_reference_walk():
    # a 1 us reference grid bounds the coarse grid's interpolation error
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    sensor = SensorConfig(width=1, height=1, timestamp_jitter=0.0)
    stream = simulate_events(sensor, model, enf)
    ot, op = _oracle_for(sensor, model, enf, 1e-6)
    assert len(stream) == len(ot)
    assert np.array_equal(stream.p, op)
    assert np.max(np.abs(stream.t - ot)) < 1e-4


def test_event_count_regression_and_threshold_monotonicity():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    base = simulate_events(SensorConfig(width=1, height=1), model, enf)
    half = simulate_events(SensorConfig(width=1, height=1, threshold_c=0.05),
                           model, enf)
    assert len(half) >= 2 * len(base)
    # ~11 threshold rungs per half flicker cycle at C=0.1, 100 cycles
    assert 1900 <= len(base) <= 2100


def test_near_constant_illumination_yields_no_events():
    model = IlluminationModel(amplitude=1e-9, bias=2.0)
    stream = simulate_events(SensorConfig(width=2, height=2), model,
                             _constant_enf(1.0))
    assert len(stream) == 0


def test_events_replicate_across_pixels():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    stream = simulate_events(SensorConfig(width=2, height=2,
                                          timestamp_jitter=0.0), model, enf)
    single = simulate_events(SensorConfig(width=1, height=1,
                                          timestamp_jitter=0.0), model, enf)
    assert len(stream) == 4 * len(single)
    # every firing moment carries all four pixels with one polarity
    uniq, counts = np.unique(stream.t, return_counts=True)
    assert np.all(counts == 4)
    for tv in uniq[:5]:
        sel = stream.t == tv
        assert len(set(zip(stream.x[sel], stream.y[sel]))) == 4
        assert len(set(stream.p[sel])) == 1


def test_undersampled_simulation_rejected():
    with pytest.raises(ValueError, match="undersampled"):
        simulate_events(SensorConfig(sim_step=1e-3), IlluminationModel(),
                        _constant_enf(1.0))


def test_simulation_is_deterministic():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(2.0)
    cont = ContaminationConfig(motion_pair_rate=500.0, noise_rate=50.0,
                               burst_fraction=0.3)
    sensor = SensorConfig(timestamp_jitter=5e-4)
    a = simulate_events(sensor, model, enf, cont, seed=9)
    b = simulate_events(sensor, model, enf, cont, seed=9)
    assert a == b
    c = simulate_events(sensor, model, enf, cont, seed=10)
    assert a != c


def test_motion_pairs_are_balanced_and_colocated():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    sensor = SensorConfig(timestamp_jitter=0.0)
    clean = simulate_events(sensor, model, enf, seed=2)
    cont = simulate_events(sensor, model, enf,
                           ContaminationConfig(motion_pair_rate=1000.0),
                           seed=2)
    injected = len(cont) - len(clean)
    assert injected > 0 and injected % 2 == 0
    assert int(np.sum(cont.p)) == int(np.sum(clean.p))
    clean_times = set(clean.t.tolist())
    mask = np.array([tv not in clean_times for tv in cont.t])
    assert int(mask.sum()) == injected
    t_m, x_m, y_m, p_m = (cont.t[mask], cont.x[mask],
                          cont.y[mask], cont.p[mask])
    for tv in np.unique(t_m):
        sel = t_m == tv
        assert int(np.sum(p_m[sel])) == 0
        assert len(set(zip(x_m[sel], y_m[sel]))) == int(sel.sum()) // 2


def test_burst_fraction_validated():
    with pytest.raises(ValueError):
        ContaminationConfig(burst_fraction=1.5)
    with pytest.raises(ValueError):
        ContaminationConfig(motion_pair_rate=-1.0)


def test_timestamp_jitter_moves_times_but_not_census():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    cont = ContaminationConfig(motion_pair_rate=300.0)
    crisp = simulate_events(SensorConfig(timestamp_jitter=0.0), model, enf,
                            cont, seed=6)
    fuzzy = simulate_events(SensorConfig(timestamp_jitter=5e-4), model, enf,
                            cont, seed=6)
    assert len(fuzzy) == len(crisp)
    assert np.sum(fuzzy.p) == np.sum(crisp.p)
    assert np.all(np.diff(fuzzy.t) >= 0)
    assert fuzzy.t.min() >= enf.t0 and fuzzy.t.max() <= enf.t_end
    assert not np.array_equal(np.sort(fuzzy.t), np.sort(crisp.t))
    # a jittered pair still shares one reported timestamp
    uniq, counts = np.unique(fuzzy.t, return_counts=True)
    for tv in uniq[counts >= 2][:10]:
        assert int(np.sum(fuzzy.p[fuzzy.t == tv])) in (0, int(counts.max()))


def test_refractory_thins_events():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    base = simulate_events(SensorConfig(width=1, height=1,
                                        timestamp_jitter=0.0), model, enf)
    thinned = simulate_events(SensorConfig(width=1, height=1, refractory=2e-3,
                                           timestamp_jitter=0.0), model, enf)
    assert 0 < len(thinned) < len(base)
    assert np.all(np.diff(thinned.t) >= 2e-3 - 1e-12)


def _ladder_run_loop(t_grid, log_i, threshold):
    """The ladder walked one monotone run at a time with np.interp."""
    g = (log_i - log_i[0]) / threshold
    sgn = np.sign(np.diff(g))
    moving = np.flatnonzero(sgn)
    if moving.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int8)
    flips = np.flatnonzero(sgn[moving[1:]] != sgn[moving[:-1]])
    starts = np.concatenate(([0], flips + 1))
    ends = np.concatenate((flips, [moving.size - 1]))
    times, pols = [np.empty(0)], [np.empty(0, dtype=np.int8)]
    rung = 0
    for s_i, e_i in zip(starts, ends):
        lo, hi = moving[s_i], moving[e_i] + 1
        if sgn[lo] > 0:
            top = int(math.floor(g[hi]))
            if top >= rung + 1:
                ks = np.arange(rung + 1, top + 1, dtype=np.float64)
                times.append(np.interp(ks, g[lo:hi + 1], t_grid[lo:hi + 1]))
                pols.append(np.ones(len(ks), dtype=np.int8))
                rung = top
        else:
            bot = int(math.ceil(g[hi]))
            if bot <= rung - 1:
                ks = np.arange(rung - 1, bot - 1, -1, dtype=np.float64)
                times.append(np.interp(ks, g[lo:hi + 1][::-1],
                                       t_grid[lo:hi + 1][::-1]))
                pols.append(-np.ones(len(ks), dtype=np.int8))
                rung = bot
    return np.concatenate(times), np.concatenate(pols)


# steps in eighths, so that with thresholds of 1/4 and 1/2 the walk lands
# exactly on rungs, plus plateaus (zero steps) and arbitrary floats
_ladder_steps = st.lists(st.one_of(
    st.integers(-12, 12).map(lambda k: k / 8.0),
    st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(steps=_ladder_steps,
       threshold=st.sampled_from([0.25, 0.5, 0.1, 0.37, 0.013]),
       t0=st.sampled_from([0.0, 3.0]), step=st.floats(1e-4, 1.0))
# a run up that stops exactly on rung 4 (np.interp returns its last point)
@example(steps=[0.625, 0.375, -1.375], threshold=0.25, t0=0.0,
         step=0.7871195976579345)
def test_ladder_matches_run_loop(steps, threshold, t0, step):
    log_i = np.cumsum([0.0] + steps)
    t_grid = t0 + step * np.arange(len(log_i))
    got_t, got_p = _ladder_crossings(t_grid, log_i, threshold)
    want_t, want_p = _ladder_run_loop(t_grid, log_i, threshold)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_p, want_p)


def test_ladder_matches_run_loop_on_a_flicker():
    model = IlluminationModel(phase=0.0)
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.01), GRID, 2.0,
                         0.01, seed=4)
    t_grid = 2e-4 * np.arange(10001)
    log_i = np.log(illumination_at(model, enf, t_grid))
    for threshold in (0.1, 0.01, 0.37):
        got = _ladder_crossings(t_grid, log_i, threshold)
        want = _ladder_run_loop(t_grid, log_i, threshold)
        assert len(got[0]) > 100
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def _keep_if_gap_loop(times, gap):
    keep, last = [], -math.inf
    for i, tv in enumerate(times):
        if tv - last >= gap:
            keep.append(i)
            last = tv
    return np.array(keep, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(ticks=st.lists(st.integers(0, 6), max_size=60),
       gap=st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.3]))
# 0, 0, 0.25, 0.5, 0.5, 0.625, 1: keeps 0, 0.5 and 1
@example(ticks=[0, 0, 2, 2, 0, 1, 3], gap=0.5)
def test_refractory_filter_matches_keep_if_gap_loop(ticks, gap):
    # times on a 1/8 grid: equal times and gaps of exactly `gap` occur
    times = np.cumsum(np.array(ticks, dtype=np.float64) / 8.0)
    pols = np.where(np.arange(len(times)) % 3, 1, -1).astype(np.int8)
    keep = _keep_if_gap_loop(times, gap)
    got_t, got_p = _refractory_filter(times, pols, gap)
    assert np.array_equal(got_t, times[keep])
    assert np.array_equal(got_p, pols[keep])


def test_crossings_walk_once_per_trace_object(monkeypatch):
    walks = []

    def spy(*args):
        walks.append(1)
        return _ladder_crossings(*args)

    monkeypatch.setattr(simulate_module, "_ladder_crossings", spy)
    sensor, model = SensorConfig(), IlluminationModel(phase=0.3)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 1.0, 0.01, seed=4)
    ct, cp = illumination_crossings(sensor, model, enf)
    again = illumination_crossings(SensorConfig(), IlluminationModel(phase=0.3),
                                   enf)
    assert len(walks) == 1
    assert again[0] is ct and again[1] is cp
    assert not ct.flags.writeable and not cp.flags.writeable
    # equal values in a new trace object, or another config, walk again
    twin = EnfTrace(enf.t0, enf.step, enf.values.copy())
    assert np.array_equal(illumination_crossings(sensor, model, twin)[0], ct)
    assert len(walks) == 2
    illumination_crossings(SensorConfig(threshold_c=0.2), model, twin)
    assert len(walks) == 3
    # the memo holds the arrays weakly: once no caller does, it walks again
    illumination_crossings(sensor, model, twin)
    illumination_crossings(sensor, model, twin)
    assert len(walks) == 5


# lengths where the index takes one more bit, and values whose keys are
# most alike: signed zeros, subnormals, and neighbours a few ulps apart
_ORDER_LENGTHS = st.one_of(
    st.integers(0, 600),
    st.sampled_from([2 ** k + d for k in range(10) for d in (0, 1)]))
_ORDER_POOL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
               -2.2250738585072e-308, 1e-300, 0.5, -0.5, 1.0, -1.0, 60.0,
               119.99, -3.25, 1e300, -1e300]


@settings(max_examples=300, deadline=None)
@given(n=_ORDER_LENGTHS,
       pool=st.lists(st.sampled_from(_ORDER_POOL), min_size=1, max_size=5),
       ulps=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_time_order_is_the_stable_argsort(n, pool, ulps, seed):
    rng = np.random.default_rng(seed)
    t = np.array(pool)[rng.integers(0, len(pool), n)]
    # walk each value up to `ulps` neighbours away, either way
    steps = rng.integers(-ulps, ulps + 1, n)
    for k in range(ulps):
        t = np.where(steps > k, np.nextafter(t, np.inf), t)
        t = np.where(steps < -k, np.nextafter(t, -np.inf), t)
    assert np.array_equal(_time_order(t), np.argsort(t, kind="stable"))


def _concatenate_then_sort(sensor, model, enf, contamination, seed):
    """simulate_events as one stable sort of every source concatenated."""
    ct, cp = illumination_crossings(sensor, model, enf)
    t_start, t_end = enf.t0, enf.t_end
    duration = t_end - t_start
    w, h = sensor.width, sensor.height
    npx = w * h
    grid_x = np.tile(np.arange(w, dtype=np.int32), h)
    grid_y = np.repeat(np.arange(h, dtype=np.int32), w)
    t_ill = np.repeat(ct, npx)
    p_ill = np.repeat(cp, npx)
    x_ill = np.tile(grid_x, len(ct))
    y_ill = np.tile(grid_y, len(ct))

    rng = np.random.default_rng(seed)
    n_pairs = int(rng.poisson(contamination.motion_pair_rate * duration))
    n_burst = int(round(contamination.burst_fraction * n_pairs))
    t_pair = np.empty(n_pairs)
    t_pair[:n_pairs - n_burst] = rng.uniform(t_start, t_end, n_pairs - n_burst)
    if n_burst:
        n_windows = max(1, int(round(duration / 10.0)))
        centers = rng.uniform(t_start, t_end, n_windows)
        pick = rng.integers(0, n_windows, n_burst)
        jitter = rng.uniform(-0.05, 0.05, n_burst)
        t_pair[n_pairs - n_burst:] = np.clip(centers[pick] + jitter,
                                             t_start, t_end)
    x_pair = rng.integers(0, w, n_pairs).astype(np.int32)
    y_pair = rng.integers(0, h, n_pairs).astype(np.int32)
    t_mot = np.repeat(t_pair, 2)
    x_mot = np.repeat(x_pair, 2)
    y_mot = np.repeat(y_pair, 2)
    p_mot = np.tile(np.array([1, -1], dtype=np.int8), n_pairs)

    n_noise = int(rng.poisson(contamination.noise_rate * npx * duration))
    t_noi = rng.uniform(t_start, t_end, n_noise)
    x_noi = rng.integers(0, w, n_noise).astype(np.int32)
    y_noi = rng.integers(0, h, n_noise).astype(np.int32)
    p_noi = (2 * rng.integers(0, 2, n_noise) - 1).astype(np.int8)

    if sensor.timestamp_jitter > 0.0:
        t_ill = np.clip(t_ill + rng.normal(0.0, sensor.timestamp_jitter,
                                           len(t_ill)), t_start, t_end)
        per_pair = rng.normal(0.0, sensor.timestamp_jitter, n_pairs)
        t_mot = np.clip(t_mot + np.repeat(per_pair, 2), t_start, t_end)

    t_all = np.concatenate((t_ill, t_mot, t_noi))
    x_all = np.concatenate((x_ill, x_mot, x_noi))
    y_all = np.concatenate((y_ill, y_mot, y_noi))
    p_all = np.concatenate((p_ill, p_mot, p_noi))
    order = np.argsort(t_all, kind="stable")
    return EventStream(w, h, t_all[order], x_all[order],
                       y_all[order], p_all[order])


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([(1, 1), (4, 3)]),
       # 0.3 s of jitter clips a large share of each source to the ends
       jitter=st.sampled_from([0.0, 5e-4, 0.3]),
       refractory=st.sampled_from([0.0, 2e-3]),
       motion_rate=st.sampled_from([0.0, 400.0]),
       burst=st.sampled_from([0.0, 0.5, 1.0]),
       noise_rate=st.sampled_from([0.0, 40.0]),
       seed=st.integers(0, 2 ** 31))
def test_simulate_events_equals_concatenate_then_sort(
        size, jitter, refractory, motion_rate, burst, noise_rate, seed):
    sensor = SensorConfig(width=size[0], height=size[1],
                          timestamp_jitter=jitter, refractory=refractory)
    model = IlluminationModel(phase=0.3)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 0.5, 0.01, seed=seed)
    cont = ContaminationConfig(motion_pair_rate=motion_rate,
                               noise_rate=noise_rate, burst_fraction=burst)
    got = simulate_events(sensor, model, enf, cont, seed=seed)
    want = _concatenate_then_sort(sensor, model, enf, cont, seed)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.p, want.p)


# ------------------------------------------------------------------- frames

def test_global_shutter_uniform_scene_equals_illumination_sample():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0, exposure=0.0, bit_depth=None)
    seq = simulate_frames(model, enf, cfg, np.ones((4, 4)))
    assert len(seq) == 31
    for k in (0, 7, 30):
        expect = illumination_at(model, enf, k / 30.0) / 3.0
        assert np.allclose(seq.frames[k], expect, atol=1e-12)


def test_rolling_shutter_rows_sample_at_staggered_times():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    rr = 1.0 / 960.0
    cfg = FrameConfig(width=4, height=8, fps=30.0, shutter="rolling",
                      row_readout=rr, exposure=0.0, bit_depth=None)
    seq = simulate_frames(model, enf, cfg, np.ones((8, 4)))
    k = 3
    for r in (0, 3, 7):
        expect = illumination_at(model, enf, k / 30.0 + r * rr) / 3.0
        assert np.allclose(seq.frames[k, r], expect, atol=1e-12)


def test_exposure_over_full_flicker_period_flattens_frames():
    # integrating exactly one 10 ms flicker cycle leaves only the bias
    model = IlluminationModel(phase=1.1)
    enf = _constant_enf(2.0)
    cfg = FrameConfig(width=8, height=8, fps=30.0, shutter="global",
                      row_readout=0.0, exposure=0.01, bit_depth=None)
    seq = simulate_frames(model, enf, cfg, np.ones((8, 8)))
    assert np.max(np.abs(seq.frames - 2.0 / 3.0)) < 1e-12


def test_exposure_shrinks_flicker_swing():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(2.0)
    tex = np.full((4, 4), 0.8)
    crisp = simulate_frames(model, enf,
                            FrameConfig(4, 4, 30.0, "global", 0.0,
                                        exposure=0.0, bit_depth=None), tex)
    soft = simulate_frames(model, enf,
                           FrameConfig(4, 4, 30.0, "global", 0.0,
                                       exposure=0.0095, bit_depth=None), tex)
    assert np.ptp(soft.frames) < 0.2 * np.ptp(crisp.frames)


def test_bit_depth_quantizes_to_levels():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0, bit_depth=8)
    seq = simulate_frames(model, enf, cfg, np.full((4, 4), 0.7))
    scaled = seq.frames * 255.0
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_overexposed_texture_clips_to_white():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0, bit_depth=None)
    seq = simulate_frames(model, enf, cfg, np.full((4, 4), 6.0))
    assert np.mean(seq.frames == 1.0) > 0.5
    assert seq.frames.max() == 1.0


def test_occluder_darkens_expected_corner():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=8, height=8, fps=30.0, shutter="global",
                      row_readout=0.0, exposure=0.0, bit_depth=None)
    occ = OccluderConfig(width_frac=0.5, height_frac=0.5, intensity=0.2,
                         velocity_x=0.0, velocity_y=0.0, jitter_px=0.0)
    seq = simulate_frames(model, enf, cfg, np.ones((8, 8)), occluder=occ)
    base = illumination_at(model, enf, 0.0) / 3.0
    assert np.allclose(seq.frames[0, :4, :4], 0.2 * base, atol=1e-12)
    assert np.allclose(seq.frames[0, 4:, 4:], base, atol=1e-12)


def test_occluder_jitter_is_seeded():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    cfg = FrameConfig(width=8, height=8, fps=30.0, shutter="rolling",
                      row_readout=1.0 / 480.0)
    occ = OccluderConfig(jitter_px=3.0)
    tex = np.full((8, 8), 0.6)
    a = simulate_frames(model, enf, cfg, tex, occluder=occ, seed=5)
    b = simulate_frames(model, enf, cfg, tex, occluder=occ, seed=5)
    c = simulate_frames(model, enf, cfg, tex, occluder=occ, seed=6)
    assert a == b
    assert a != c


def test_frame_noise_is_seeded_and_clipped():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0, noise_std=0.05)
    tex = np.full((4, 4), 0.9)
    a = simulate_frames(model, enf, cfg, tex, seed=1)
    b = simulate_frames(model, enf, cfg, tex, seed=1)
    assert a == b
    assert a.frames.min() >= 0.0 and a.frames.max() <= 1.0


_SIM_CONFIGS = (EnfProcessConfig, IlluminationModel, SensorConfig,
                ContaminationConfig, OccluderConfig, FrameConfig)
_NUMERIC_FIELDS = [(cls, f.name) for cls in _SIM_CONFIGS
                   for f in dataclasses.fields(cls)
                   if type(f.default) in (int, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, field", _NUMERIC_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, f in _NUMERIC_FIELDS])
def test_simulator_configs_reject_nonfinite_numbers(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: value})


def test_frame_config_validation():
    with pytest.raises(ValueError, match="row_readout"):
        FrameConfig(shutter="rolling", row_readout=0.0)
    with pytest.raises(ValueError, match="frame interval"):
        FrameConfig(height=100, fps=30.0, shutter="rolling",
                    row_readout=1e-3)
    with pytest.raises(ValueError, match="exposure"):
        FrameConfig(fps=30.0, shutter="global", exposure=0.05)
    with pytest.raises(ValueError, match="bit_depth"):
        FrameConfig(shutter="global", bit_depth=0)
    with pytest.raises(ValueError, match="shutter"):
        FrameConfig(shutter="drum")


def test_frame_sequence_value_bounds_enforced():
    with pytest.raises(ValueError, match="0, 1"):
        FrameSequence(2, 2, 30.0, "global", 0.0,
                      np.full((1, 2, 2), 1.5))
    with pytest.raises(ValueError, match="shape"):
        FrameSequence(2, 2, 30.0, "global", 0.0, np.zeros((1, 3, 2)))


def test_frame_sequence_rejects_bad_shutter_and_fps():
    with pytest.raises(ValueError, match="shutter"):
        FrameSequence(2, 2, 30.0, "weird", 0.0, np.zeros((1, 2, 2)))
    for fps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="fps"):
            FrameSequence(2, 2, fps, "global", 0.0, np.zeros((1, 2, 2)))


def test_texture_validation():
    model = IlluminationModel()
    enf = _constant_enf(0.5)
    cfg = FrameConfig(width=4, height=4, fps=30.0, shutter="global",
                      row_readout=0.0)
    with pytest.raises(ValueError, match="shape"):
        simulate_frames(model, enf, cfg, np.ones((3, 4)))
    with pytest.raises(ValueError, match="non-negative"):
        simulate_frames(model, enf, cfg, -np.ones((4, 4)))
