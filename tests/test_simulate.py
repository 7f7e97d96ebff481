"""Closed-loop synthesis: ENF process, illumination, events, frames."""

import dataclasses
import math
import os
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evenf import simulate
from evenf.core import EnfTrace, EventStream, GridConfig
from evenf.simulate import (_BLOCKS, _FRAME_BLOCK, ContaminationConfig,
                            EnfProcessConfig, FrameConfig, FrameSequence, IlluminationModel,
                            OccluderConfig, SensorConfig, _ladder_crossings,
                            _time_order, flicker_phase, illumination_at,
                            illumination_crossings, log_expansion_coeffs,
                            simulate_events, simulate_frames, synthesize_enf)

GRID = GridConfig(50.0)


def _simulate(sensor, model, enf, *args, **kwargs):
    """simulate_events on the crossing schedule of sensor and model."""
    return simulate_events(sensor, illumination_crossings(sensor, model, enf),
                           enf, *args, **kwargs)


def _constant_enf(duration=1.0, step=0.01):
    return synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID,
                          duration, step)


# ------------------------------------------------------------ ENF synthesis

def test_zero_deviation_gives_constant_trace():
    tr = _constant_enf(5.0)
    assert np.all(tr.values == 50.0)
    assert tr.t_end >= 5.0


def test_trace_spans_whole_steps_up_to_the_duration():
    # k/100 s is k steps of 0.01 s, also where the float quotient lands
    # just above k (0.07 / 0.01 = 7.000000000000001)
    for k in range(1, 3000):
        assert len(_constant_enf(k / 100)) == k + 1, k


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


@pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], np.full((2, 2), math.nan)])
def test_flicker_phase_rejects_nan(t):
    with pytest.raises(ValueError, match="outside the trace support"):
        flicker_phase(_constant_enf(1.0), t)


def _searchsorted_phase(enf, t):
    """flicker_phase with its cell found by np.searchsorted on the grid."""
    t = np.asarray(t, dtype=np.float64)
    times, v = enf.times, enf.values
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * enf.step)))
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(v) - 2)
    dt = np.clip(t - times[i], 0.0, enf.step)
    slope = (v[i + 1] - v[i]) / enf.step
    return 4.0 * math.pi * (cum[i] + (v[i] * dt + 0.5 * slope * dt * dt))


@settings(max_examples=80, deadline=None)
@given(t0=st.sampled_from([0.0, -3.7, 12.5, 1e3]),
       step=st.sampled_from([0.01, 0.001, 1 / 3, 0.37, 2e-4]),
       n=st.integers(2, 400), seed=st.integers(0, 2 ** 31))
def test_flicker_phase_cell_is_the_searchsorted_cell(t0, step, n, seed):
    rng = np.random.default_rng(seed)
    enf = EnfTrace(t0, step, 50.0 + rng.normal(0.0, 0.05, n))
    grid = enf.times
    t = np.concatenate((
        [enf.t0, enf.t_end, enf.t0 - 1e-12, enf.t_end + 1e-12], grid,
        np.nextafter(grid[1:], -np.inf), np.nextafter(grid[:-1], np.inf),
        rng.uniform(enf.t0, enf.t_end, 200)))
    got = flicker_phase(enf, t)
    assert np.array_equal(got.view(np.uint64),
                          _searchsorted_phase(enf, t).view(np.uint64))
    for q in t[:8]:                 # scalar queries give scalar phases
        one = np.asarray(flicker_phase(enf, float(q)))
        assert one.shape == () and one.tobytes() == np.asarray(
            _searchsorted_phase(enf, float(q))).tobytes()


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
    stream = _simulate(sensor, model, enf)
    ot, op = _oracle_for(sensor, model, enf, sensor.sim_step)
    assert len(stream) == len(ot)
    assert np.array_equal(stream.p, op)
    assert np.max(np.abs(stream.t - ot)) < 1e-9


def test_event_times_match_dense_reference_walk():
    # a 1 us reference grid bounds the coarse grid's interpolation error
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    sensor = SensorConfig(width=1, height=1, timestamp_jitter=0.0)
    stream = _simulate(sensor, model, enf)
    ot, op = _oracle_for(sensor, model, enf, 1e-6)
    assert len(stream) == len(ot)
    assert np.array_equal(stream.p, op)
    assert np.max(np.abs(stream.t - ot)) < 1e-4


def test_event_count_regression_and_threshold_monotonicity():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    base = _simulate(SensorConfig(width=1, height=1), model, enf)
    half = _simulate(SensorConfig(width=1, height=1, threshold_c=0.05),
                     model, enf)
    assert len(half) >= 2 * len(base)
    # ~11 threshold rungs per half flicker cycle at C=0.1, 100 cycles
    assert 1900 <= len(base) <= 2100


def test_near_constant_illumination_yields_no_events():
    model = IlluminationModel(amplitude=1e-9, bias=2.0)
    stream = _simulate(SensorConfig(width=2, height=2), model,
                       _constant_enf(1.0))
    assert len(stream) == 0


def test_events_replicate_across_pixels():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(0.5)
    stream = _simulate(SensorConfig(width=2, height=2,
                                    timestamp_jitter=0.0), model, enf)
    single = _simulate(SensorConfig(width=1, height=1,
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
        illumination_crossings(SensorConfig(sim_step=1e-3),
                               IlluminationModel(), _constant_enf(1.0))


def test_simulation_is_deterministic():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(2.0)
    cont = ContaminationConfig(motion_pair_rate=500.0, noise_rate=50.0,
                               burst_fraction=0.3)
    sensor = SensorConfig(timestamp_jitter=5e-4)
    a = _simulate(sensor, model, enf, cont, seed=9)
    b = _simulate(sensor, model, enf, cont, seed=9)
    assert a == b
    c = _simulate(sensor, model, enf, cont, seed=10)
    assert a != c


def test_motion_pairs_are_balanced_and_colocated():
    model = IlluminationModel(phase=0.3)
    enf = _constant_enf(1.0)
    sensor = SensorConfig(timestamp_jitter=0.0)
    clean = _simulate(sensor, model, enf, seed=2)
    cont = _simulate(sensor, model, enf,
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
    crisp = _simulate(SensorConfig(timestamp_jitter=0.0), model, enf,
                      cont, seed=6)
    fuzzy = _simulate(SensorConfig(timestamp_jitter=5e-4), model, enf,
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


def _ladder_cell_walk(t_grid, log_i, threshold):
    """The ladder walked one grid cell at a time: the reference rung steps
    while the cell's far end is a rung or more away from it, and each
    event's time is interpolated between the cell's ends at the lower (a)
    and the upper (b) g."""
    g = (log_i - log_i[0]) / threshold
    times, pols, rung = [], [], 0.0

    def fire(a, b, pol):
        slope = (t_grid[b] - t_grid[a]) / (g[b] - g[a])
        times.append(t_grid[b] if rung == g[b]
                     else slope * (rung - g[a]) + t_grid[a])
        pols.append(pol)

    for n in range(len(g) - 1):
        while g[n + 1] >= rung + 1.0:
            rung += 1.0
            fire(n, n + 1, 1)
        while g[n + 1] <= rung - 1.0:
            rung -= 1.0
            fire(n + 1, n, -1)
    return np.array(times, dtype=np.float64), np.array(pols, dtype=np.int8)


# steps in eighths, so that with thresholds of 1/4 and 1/2 the walk lands
# exactly on rungs, plus plateaus (zero steps) and arbitrary floats
_ladder_steps = st.lists(st.one_of(
    st.integers(-12, 12).map(lambda k: k / 8.0),
    st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(steps=_ladder_steps,
       threshold=st.sampled_from([0.25, 0.5, 0.1, 0.37, 0.013]),
       t0=st.sampled_from([0.0, 3.0]), step=st.floats(1e-4, 1.0))
# a run up that stops exactly on rung 4, which fires at that sample
@example(steps=[0.625, 0.375, -1.375], threshold=0.25, t0=0.0,
         step=0.7871195976579345)
# exact-rung plateaus: up and on, up and back down, and down and on
@example(steps=[0.25, 0.0, 0.125], threshold=0.25, t0=0.0, step=1.0)
@example(steps=[0.25, 0.0, -0.125], threshold=0.25, t0=0.0, step=1.0)
@example(steps=[-0.25, 0.0, -0.125], threshold=0.25, t0=0.0, step=1.0)
def test_ladder_matches_cell_walk(steps, threshold, t0, step):
    log_i = np.cumsum([0.0] + steps)
    t_grid = t0 + step * np.arange(len(log_i))
    got_t, got_p = _ladder_crossings(t_grid, log_i, threshold)
    want_t, want_p = _ladder_cell_walk(t_grid, log_i, threshold)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_p, want_p)


def test_ladder_matches_cell_walk_on_a_flicker():
    model = IlluminationModel(phase=0.0)
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.01), GRID, 2.0,
                         0.01, seed=4)
    t_grid = 2e-4 * np.arange(10001)
    log_i = np.log(illumination_at(model, enf, t_grid))
    for threshold in (0.1, 0.01, 0.37):
        got = _ladder_crossings(t_grid, log_i, threshold)
        want = _ladder_cell_walk(t_grid, log_i, threshold)
        assert len(got[0]) > 100
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("log_i, times", [
    ([0.0, 0.25, 0.25, 0.5], [1.0, 3.0]),
    ([0.0, -0.25, -0.25, -0.5], [1.0, 3.0]),
    ([0.0, 0.5, 0.5, 0.5, 0.75, 0.25], [0.5, 1.0, 4.0, 4.5, 5.0]),
])
def test_ladder_fires_on_arrival_at_a_rung(log_i, times):
    # dyadic values: the sample walk's arithmetic is exact, so the times
    # are equal, and a plateau on a rung fires at its first sample both ways
    t_grid = np.arange(float(len(log_i)))
    got_t, got_p = _ladder_crossings(t_grid, np.array(log_i), 0.25)
    want_t, want_p = _ladder_oracle(t_grid, np.array(log_i), 0.25)
    assert np.array_equal(got_t, times)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_p, want_p)


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
       ulps=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
       repeat=st.sampled_from([1, 16]),
       arrange=st.sampled_from(["drawn", "sorted", "sorted, one swap"]),
       chunk=st.sampled_from([simulate._SORT_CHUNK, 1, 3, 37]))
def test_time_order_is_the_stable_argsort(n, pool, ulps, seed, repeat,
                                          arrange, chunk):
    # chunks far shorter than the stream put runs of ties across their edges
    rng = np.random.default_rng(seed)
    t = np.array(pool)[rng.integers(0, len(pool), n)]
    # walk each value up to `ulps` neighbours away, either way: exact ties
    # and ties only within the key's truncation, mixed in one run
    steps = rng.integers(-ulps, ulps + 1, n)
    for k in range(ulps):
        t = np.where(steps > k, np.nextafter(t, np.inf), t)
        t = np.where(steps < -k, np.nextafter(t, -np.inf), t)
    # each value 16 times over, as a 4x4 sensor's clean stream makes them
    t = np.repeat(t, repeat)
    if arrange != "drawn":
        t = np.sort(t)
    if arrange == "sorted, one swap" and len(t) > 1:
        i, j = rng.integers(0, len(t), 2)
        t[[i, j]] = t[[j, i]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_SORT_CHUNK", chunk)
        assert np.array_equal(_time_order(t), np.argsort(t, kind="stable"))


def test_time_order_leaves_exact_ties_in_index_order(monkeypatch):
    # 16-way exact ties out of order: the index bits of the keys order
    # each tie, so no run of them is re-sorted
    def refuse(*args):
        raise AssertionError("np.lexsort called")

    t = np.repeat(np.arange(1000) * 0.01, 16)[::-1]
    want = np.argsort(t, kind="stable")
    monkeypatch.setattr(np, "lexsort", refuse)
    assert np.array_equal(_time_order(t), want)


def test_time_order_re_sorts_only_runs_with_unequal_times(monkeypatch):
    # 7.25 and the float after it share a truncated key: their run of 64
    # holds unequal times and is re-sorted, the 16-way exact ties are not
    ties = np.repeat(np.arange(100) * 0.5, 16)
    near = np.full(64, np.nextafter(7.25, np.inf))
    near[::3] = 7.25
    t = np.concatenate((ties[::-1], near))
    seen = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: seen.append(
        len(keys[0])) or lexsort(keys))
    assert np.array_equal(_time_order(t), np.argsort(t, kind="stable"))
    assert seen == [64]


def _concatenate_then_sort(sensor, model, enf, contamination, seed,
                           crossings=None):
    """simulate_events as one stable sort of every source concatenated."""
    ct, cp = crossings or illumination_crossings(sensor, model, enf)
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
# packed pixels fill uint8 at 16x16 and 17x15 and take uint16 at 300x1;
# 16x16 fires 256 000 illumination events, past uint16 indices
@example(size=(16, 16), jitter=5e-4, motion_rate=400.0, burst=0.5,
         noise_rate=40.0, seed=1, chunk=simulate._SORT_CHUNK,
         parts=simulate._PARTS)
# clean streams sorted and gathered in chunks of 101 events
@example(size=(300, 1), jitter=5e-4, motion_rate=0.0, burst=0.0,
         noise_rate=0.0, seed=2, chunk=101, parts=simulate._PARTS)
@example(size=(4, 3), jitter=0.3, motion_rate=0.0, burst=0.0,
         noise_rate=0.0, seed=3, chunk=101, parts=simulate._PARTS)
# the clip piles of every source cut by the edges of 3 index chunks
@example(size=(4, 3), jitter=0.3, motion_rate=400.0, burst=1.0,
         noise_rate=40.0, seed=4, chunk=simulate._SORT_CHUNK, parts=3)
@given(size=st.sampled_from([(1, 1), (4, 3), (16, 16), (17, 15), (300, 1)]),
       # 0.3 s of jitter clips a large share of each source to the ends
       jitter=st.sampled_from([0.0, 5e-4, 0.3]),
       motion_rate=st.sampled_from([0.0, 400.0]),
       burst=st.sampled_from([0.0, 0.5, 1.0]),
       noise_rate=st.sampled_from([0.0, 40.0]),
       seed=st.integers(0, 2 ** 31),
       chunk=st.sampled_from([simulate._SORT_CHUNK, 101]),
       # 3 index chunks put their edges inside tie runs and clip piles
       parts=st.sampled_from([simulate._PARTS, 3]))
def test_simulate_events_equals_concatenate_then_sort(
        size, jitter, motion_rate, burst, noise_rate, seed, chunk, parts):
    sensor = SensorConfig(width=size[0], height=size[1],
                          timestamp_jitter=jitter)
    model = IlluminationModel(phase=0.3)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 0.5, 0.01, seed=seed)
    cont = ContaminationConfig(motion_pair_rate=motion_rate,
                               noise_rate=noise_rate, burst_fraction=burst)
    crossings = illumination_crossings(sensor, model, enf)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_SORT_CHUNK", chunk)
        patch.setattr(simulate, "_PARTS", parts)
        got = simulate_events(sensor, crossings, enf, cont, seed=seed)
    want = _concatenate_then_sort(sensor, model, enf, cont, seed)
    assert size != (16, 16) or len(crossings[0]) * 256 > 1 << 16
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.p, want.p)


@pytest.mark.parametrize("size", [(16, 16), (300, 1)])
@pytest.mark.parametrize("n_crossings", [0, 1])
def test_wide_sensor_with_one_tick_or_none(size, n_crossings):
    # the illumination index type holds w*h, the divisor of its tick, even
    # where the index itself stops below it
    enf = synthesize_enf(EnfProcessConfig(), GRID, 0.5, 0.01, seed=7)
    crossings = (np.full(n_crossings, 0.25), np.ones(n_crossings, np.int8))
    sensor = SensorConfig(width=size[0], height=size[1])
    cont = ContaminationConfig(motion_pair_rate=400.0, noise_rate=4.0,
                               burst_fraction=0.5)
    got = simulate_events(sensor, crossings, enf, cont, seed=7)
    want = _concatenate_then_sort(sensor, None, enf, cont, 7, crossings)
    for col in "txyp":
        assert np.array_equal(getattr(got, col), getattr(want, col))



class _OnWholeSeconds:
    """A generator whose uniform and normal draws are rounded to whole
    numbers, so that every time it places lies on an integer."""

    def __init__(self, seed):
        self._rng = _DEFAULT_RNG(seed)

    def uniform(self, *args):
        return np.round(self._rng.uniform(*args))

    def normal(self, *args):
        return np.round(self._rng.normal(*args))

    def __getattr__(self, name):
        return getattr(self._rng, name)


_DEFAULT_RNG = np.random.default_rng


@pytest.mark.parametrize("jitter", [0.0, 3.0])
def test_times_on_block_edges_keep_the_stable_order(monkeypatch, jitter):
    # a trace of _BLOCKS seconds from 0 puts the block edges on the
    # integers; the schedule and every rounded draw land there, with ties
    # between and within the sources at every edge
    monkeypatch.setattr(np.random, "default_rng", _OnWholeSeconds)
    enf = EnfTrace(0.0, 1.0, np.full(_BLOCKS + 1, 50.0))
    ct = np.concatenate((np.arange(_BLOCKS + 1.0), np.arange(0.0, 9.0, 3.0),
                         [0.5, 7.25]))
    ct.sort()
    crossings = ct, np.where(np.arange(len(ct)) % 3, 1, -1).astype(np.int8)
    sensor = SensorConfig(width=2, height=3, timestamp_jitter=jitter)
    cont = ContaminationConfig(motion_pair_rate=3.0, noise_rate=0.5,
                               burst_fraction=0.5)
    got = simulate_events(sensor, crossings, enf, cont, seed=11)
    want = _concatenate_then_sort(sensor, None, enf, cont, 11, crossings)
    on_edge = got.t == np.round(got.t)
    assert on_edge.mean() > 0.99 and len(np.unique(got.t[on_edge])) > 100
    for col in "txyp":
        assert np.array_equal(getattr(got, col), getattr(want, col))


def test_stream_bytes_do_not_depend_on_the_core_count(monkeypatch):
    # 0.1 s of jitter clips a share of the pairs, drawn in no time order,
    # to each end: ties whose order a block keeps across index chunks
    sensor = SensorConfig(width=3, height=2, timestamp_jitter=0.1)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 2.0, 0.01, seed=4)
    cont = ContaminationConfig(motion_pair_rate=2000.0, noise_rate=50.0,
                               burst_fraction=0.3)
    model = IlluminationModel()
    streams = [_simulate(sensor, model, enf, cont, seed=4)]
    for cores in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        streams.append(_simulate(sensor, model, enf, cont, seed=4))
    # nor on the index chunks: one a source, or more than the ~600 noise
    # events, most of them empty
    for parts in (1, 1000):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_PARTS", parts)
            streams.append(_simulate(sensor, model, enf, cont, seed=4))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cores in (1, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        streams.append(_simulate(sensor, model, enf, cont, seed=4))
    assert all(s == streams[0] for s in streams[1:])


@pytest.mark.parametrize("affinity, cpu_count, threads", [
    ({0}, 2, 1), ({0, 2, 5}, 8, 3), (set(range(300)), 300, _BLOCKS),
    (None, 4, 4), (None, None, 1)])
def test_pool_takes_the_cpus_the_process_may_use(monkeypatch, affinity,
                                                 cpu_count, threads):
    # the affinity mask, where os can read it, else the machine's count;
    # the pool records the size it is asked for and runs one thread
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(1)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 1.0, 0.01, seed=2)
    _simulate(SensorConfig(width=2, height=2), IlluminationModel(), enf,
              ContaminationConfig(motion_pair_rate=50.0), seed=2)
    assert sizes == [threads]


def test_stream_without_a_physical_memory_query(monkeypatch):
    # os.sysconf exists on Unix only; elsewhere the size check stands aside
    sensor = SensorConfig(width=2, height=2)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 1.0, 0.01, seed=2)
    cont = ContaminationConfig(motion_pair_rate=500.0, noise_rate=20.0)
    want = _simulate(sensor, IlluminationModel(), enf, cont, seed=2)
    monkeypatch.delattr(os, "sysconf")
    assert _simulate(sensor, IlluminationModel(), enf, cont, seed=2) == want


def test_ladder_that_moves_between_rungs_fires_nothing():
    t_grid = np.arange(4.0)
    times, pols = _ladder_crossings(t_grid, np.array([0.0, 0.05, 0.02, 0.07]),
                                    0.1)
    assert times.dtype == np.float64 and times.shape == (0,)
    assert pols.dtype == np.int8 and pols.shape == (0,)


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


# The whole-array render that simulate_frames replaced with a blocked,
# in-place one; the frames must stay bit-identical to it.

def _whole_array_occluder_factor(occ, width, height, t_row, rng,
                                 shared_rows):
    n, h = t_row.shape
    ow = max(1, int(round(occ.width_frac * width)))
    oh = max(1, int(round(occ.height_frac * height)))
    x_path = occ.velocity_x * t_row
    y_path = occ.velocity_y * t_row
    if occ.jitter_px > 0.0:
        shape = (n, 1) if shared_rows else (n, h)
        x_path = x_path + rng.normal(0.0, occ.jitter_px, shape)
        y_path = y_path + rng.normal(0.0, occ.jitter_px, shape)
    x0 = np.rint(x_path).astype(np.int64) % width
    y0 = np.rint(y_path).astype(np.int64) % height

    rows = np.arange(h)[None, :]
    covered = ((rows - y0) % height) < oh
    factor = np.ones((n, h, width))
    k_i, r_i = np.nonzero(covered)
    cols = (x0[k_i, r_i][:, None] + np.arange(ow)[None, :]) % width
    factor[k_i[:, None], r_i[:, None], cols] = occ.intensity
    return factor


def _whole_array_frames(model, enf, cfg, scene_texture, occluder=None,
                        seed=0):
    tex = np.asarray(scene_texture, dtype=np.float64)
    frame_span = (cfg.height - 1) * cfg.row_readout if cfg.shutter == "rolling" else 0.0
    n_frames = int(math.floor(
        (enf.t_end - enf.t0 - frame_span - cfg.exposure) * cfg.fps)) + 1

    frame_t = enf.t0 + np.arange(n_frames) / cfg.fps
    if cfg.shutter == "global":
        t_row = np.broadcast_to(frame_t[:, None], (n_frames, cfg.height))
    else:
        t_row = frame_t[:, None] + cfg.row_readout * np.arange(cfg.height)[None, :]

    if cfg.exposure > 0.0:
        offsets = (np.arange(16) + 0.5) / 16.0 * cfg.exposure
        sampled = illumination_at(model, enf,
                                  (t_row[..., None] + offsets).ravel())
        intensity = sampled.reshape(t_row.shape + (16,)).mean(axis=-1)
    else:
        intensity = illumination_at(model, enf,
                                    t_row.ravel()).reshape(t_row.shape)
    if cfg.shutter == "global":
        modulation = intensity[:, 0][:, None, None]
    else:
        modulation = intensity[:, :, None]

    scale = 1.0 / (model.amplitude + model.bias)
    raw = tex[None, :, :] * (modulation * scale)
    rng = np.random.default_rng([seed, 977])
    if occluder is not None:
        raw = raw * _whole_array_occluder_factor(
            occluder, cfg.width, cfg.height,
            t_row - enf.t0 + cfg.exposure / 2.0, rng,
            shared_rows=cfg.shutter == "global")
    frames = np.clip(raw, 0.0, 1.0)
    if cfg.bit_depth is not None:
        levels = float(2 ** cfg.bit_depth - 1)
        frames = np.round(frames * levels) / levels
    return frames


_RENDER_VARIANTS = {
    "default": {},
    "instant": {"exposure": 0.0},
    "continuous": {"bit_depth": None},
    "overexposed": {"texture_scale": 6.0},
}


@pytest.mark.parametrize("blocks", [0.4, 2.5], ids=["sub-block", "2.5-blocks"])
@pytest.mark.parametrize("variant", list(_RENDER_VARIANTS))
# an occluder without jitter takes the reference's branch that draws nothing
@pytest.mark.parametrize("occ", [None, OccluderConfig(),
                                 OccluderConfig(jitter_px=0.0)],
                         ids=["clear", "occluder", "unjittered-occluder"])
@pytest.mark.parametrize("shutter", ["rolling", "global"])
def test_frames_equal_whole_array_render(shutter, occ, variant, blocks):
    opts = dict(_RENDER_VARIANTS[variant])
    tex = np.random.default_rng(3).uniform(0.25, 0.85, (12, 10))
    tex = tex * opts.pop("texture_scale", 1.0)
    cfg = FrameConfig(width=10, height=12, shutter=shutter,
                      row_readout=1.0 / 480.0 if shutter == "rolling" else 0.0,
                      **opts)
    enf = synthesize_enf(EnfProcessConfig(), GRID,
                         blocks * _FRAME_BLOCK / cfg.fps + 0.05, 0.01, seed=4)
    model = IlluminationModel()
    got = simulate_frames(model, enf, cfg, tex, occluder=occ, seed=9)
    want = _whole_array_frames(model, enf, cfg, tex, occluder=occ, seed=9)
    assert (len(got) < _FRAME_BLOCK) == (blocks < 1)
    assert len(got) % _FRAME_BLOCK
    assert np.array_equal(got.frames, want)


@pytest.mark.parametrize("occluder, bound", [(None, 1.5),
                                             (OccluderConfig(), 2.0)])
def test_render_peak_memory_is_near_its_output(occluder, bound):
    enf = synthesize_enf(EnfProcessConfig(), GRID, 120.0, 0.01, seed=2)
    tex = np.random.default_rng(5).uniform(0.25, 0.85, (32, 32))
    tracemalloc.start()
    try:
        seq = simulate_frames(IlluminationModel(), enf, FrameConfig(), tex,
                              occluder=occluder, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * seq.frames.nbytes


@pytest.mark.parametrize("noise_share, burst", [(0.0, 0.0), (0.25, 0.5)])
def test_contaminated_stream_peak_memory_is_near_its_output(noise_share,
                                                            burst):
    # motion pairs at the illumination event rate, as in the dynamic scene,
    # and noise as a share of that rate: the sources are held in block
    # order at their narrowest widths while the output fills
    sensor = SensorConfig()
    enf = synthesize_enf(EnfProcessConfig(), GRID, 40.0, 0.01, seed=3)
    crossings = illumination_crossings(sensor, IlluminationModel(), enf)
    rate = len(crossings[0]) / 40.0     # each of the 16 pixels fires it
    cont = ContaminationConfig(motion_pair_rate=rate * 16,
                               noise_rate=rate * noise_share,
                               burst_fraction=burst)
    tracemalloc.start()
    try:
        stream = simulate_events(sensor, crossings, enf, cont, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * sum(getattr(stream, c).nbytes for c in "txyp")



@pytest.mark.parametrize("jitter", [5e-4, 0.0])
def test_clean_stream_peak_memory_is_near_its_output(jitter):
    # the 120 s static scene: x and y split from one narrow packed-pixel
    # column, and the unsorted times, the order and the sorted times are
    # never all held at once
    sensor = SensorConfig(timestamp_jitter=jitter)
    enf = synthesize_enf(EnfProcessConfig(), GRID, 120.0, 0.01, seed=3)
    crossings = illumination_crossings(sensor, IlluminationModel(), enf)
    tracemalloc.start()
    try:
        stream = simulate_events(sensor, crossings, enf, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * sum(getattr(stream, c).nbytes for c in "txyp")

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
