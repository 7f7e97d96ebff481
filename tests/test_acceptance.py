"""Release gate: ten end-to-end checks, one printed verdict line each.

Each test prints ``criterion NN <label>: PASS/FAIL (<measurements>)`` so a
plain pytest run doubles as the sign-off sheet for the package.
"""

import time

import numpy as np
import pytest

from evenf.cli import main
from evenf.core import (EnfTrace, EventStream, GridConfig, ReferenceSignal,
                        mae)
from evenf.eenf import (HarmonicConfig, SamplingConfig, StftConfig,
                        _select_segments, spatial_vote, stft_peak_track,
                        temporal_sample)
from evenf.evaluate import merge_reports, run_scenario
from evenf.simulate import (EnfProcessConfig, FrameConfig, IlluminationModel,
                            log_expansion_coeffs, simulate_frames,
                            synthesize_enf)
from evenf.venf import VenfConfig, extract_venf
from test_csv_reference import _loop_write_reference

GRID = GridConfig(50.0)
SEEDS = (1, 2, 3)
DURATION = 120.0
CFG = "configs/default.cfg"


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """All three scenarios, one run_scenario call per seed so each seed's
    wall-clock time (simulate + both extractions) is measured."""
    reports, seconds = {}, {}
    for scenario in ("static", "dynamic", "extreme"):
        parts, secs = [], []
        for seed in SEEDS:
            begin = time.monotonic()
            parts.append(run_scenario(scenario, [seed], DURATION))
            secs.append(time.monotonic() - begin)
        reports[scenario] = merge_reports(parts)
        seconds[scenario] = secs
    return reports, seconds


def test_criterion_01_static_event_fidelity(bench, capsys):
    reports, seconds = bench
    cc = reports["static"].mean("static", "eenf", "cc")
    err = reports["static"].mean("static", "eenf", "mae_hz")
    worst = max(seconds["static"])
    ok = cc >= 0.98 and err <= 2e-3 and worst <= 60.0
    _verdict(capsys, 1, "static event-stream fidelity", ok,
             f"mean cc={cc:.4f} (>=0.98), mean mae={err:.2e} Hz (<=2e-3), "
             f"slowest seed {worst:.1f} s (<=60)")


def test_criterion_02_dynamic_scene_robustness(bench, capsys):
    reports, _ = bench
    e_cc = reports["dynamic"].mean("dynamic", "eenf", "cc")
    v_dyn = reports["dynamic"].mean("dynamic", "venf", "cc")
    v_sta = reports["static"].mean("static", "venf", "cc")
    ok = e_cc >= 0.95 and v_dyn < v_sta
    _verdict(capsys, 2, "dynamic-scene robustness", ok,
             f"event cc={e_cc:.4f} (>=0.95), video cc {v_dyn:.4f} dynamic "
             f"< {v_sta:.4f} static")


def test_criterion_03_overexposure_immunity(bench, capsys):
    reports, _ = bench
    x_mae = reports["extreme"].mean("extreme", "eenf", "mae_hz")
    s_mae = reports["static"].mean("static", "eenf", "mae_hz")
    ok = x_mae <= 2e-3 and abs(x_mae - s_mae) <= 0.10 * s_mae
    _verdict(capsys, 3, "overexposure immunity", ok,
             f"extreme mae={x_mae:.2e} Hz (<=2e-3), static mae={s_mae:.2e}, "
             f"drift {abs(x_mae - s_mae) / s_mae:.1%} (<=10%)")


def _random_stream(rng, n, horizon=0.3):
    t = np.sort(np.round(rng.uniform(0.0, horizon, n), 4))
    p = 2 * rng.integers(0, 2, n) - 1
    zeros = np.zeros(n, dtype=np.int64)
    return EventStream(1, 1, t, zeros, zeros, p)


def test_criterion_04_vote_invariance(capsys):
    rng = np.random.default_rng(41)
    trials, ok = 0, True
    for _ in range(1000):
        stream = _random_stream(rng, int(rng.integers(3, 80)))
        cfg = SamplingConfig(delta_t=float(rng.choice([0.001, 0.0025, 0.01])))
        slices = temporal_sample(stream, cfg)
        before = spatial_vote(slices).values

        # k balanced pairs, dropped onto the timestamp of a random cohort
        k = int(rng.integers(1, 6))
        ts = float(stream.t[int(slices.start[int(rng.integers(0, len(slices)))])])
        t2 = np.concatenate((stream.t, np.full(2 * k, ts)))
        p2 = np.concatenate((stream.p, np.tile([1, -1], k))).astype(np.int8)
        z2 = np.zeros(len(t2), dtype=np.int64)
        order = np.argsort(t2, kind="stable")
        salted = EventStream(1, 1, t2[order], z2, z2, p2[order])
        after = spatial_vote(temporal_sample(salted, cfg)).values

        if not np.array_equal(before, after):
            ok = False
            break
        trials += 1
    _verdict(capsys, 4, "vote invariance to balanced pairs", ok,
             f"{trials}/1000 random slice sets unchanged")


def test_criterion_05_sampling_matches_direct_loop(capsys):
    rng = np.random.default_rng(52)
    trials, ok = 0, True
    for _ in range(500):
        stream = _random_stream(rng, int(rng.integers(1, 201)), horizon=0.25)
        dt = float(rng.choice([0.001, 0.0025, 0.005, 0.01]))
        slices = temporal_sample(stream, SamplingConfig(delta_t=dt))

        # literal restatement: walk the moments one by one
        t = stream.t
        moments, starts, stops = [], [], []
        n = 0
        while t[0] + n * dt <= t[-1]:
            moment = t[0] + n * dt
            i = int(np.searchsorted(t, moment, side="left"))
            j = i
            while j < len(t) and t[j] == t[i]:
                j += 1
            moments.append(moment)
            starts.append(i)
            stops.append(j)
            n += 1

        if not (np.array_equal(slices.moments, moments)
                and np.array_equal(slices.start, starts)
                and np.array_equal(slices.stop, stops)):
            ok = False
            break
        trials += 1
    _verdict(capsys, 5, "sampling matches direct loop", ok,
             f"{trials}/500 random streams identical")


def test_criterion_06_log_expansion_reconstruction(capsys):
    rng = np.random.default_rng(63)
    w = np.linspace(0.0, 2.0 * np.pi, 10000, endpoint=False)
    basis = np.cos(np.outer(w, np.arange(1, 31)))
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.2, 2.0))
        b = a * float(rng.uniform(1.3, 4.0))
        c = log_expansion_coeffs(IlluminationModel(amplitude=a, bias=b), 30)
        recon = c[0] + basis @ c[1:]
        err = float(np.max(np.abs(recon - np.log(b + a * np.cos(w)))))
        worst = max(worst, err)
    ok = worst < 1e-9
    _verdict(capsys, 6, "log-expansion reconstruction", ok,
             f"sup-norm {worst:.2e} over 100 draws (<1e-9)")


def test_criterion_07_tracker_resolution(capsys):
    fs = 1000.0
    t = np.arange(int(60.0 * fs)) / fs
    x = np.sin(2.0 * np.pi * 100.02 * t)
    trace, _ = stft_peak_track(x, fs, StftConfig(), 100.0)
    worst = float(np.max(np.abs(trace.values - 100.02)))
    ok = len(trace) == 45 and worst <= 0.005
    _verdict(capsys, 7, "tracker frequency resolution", ok,
             f"{len(trace)} hops, worst offset {worst * 1e3:.2f} mHz (<=5)")


def test_criterion_08_frame_alias_arithmetic(capsys):
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID, 60.0,
                         0.01)
    cfg = FrameConfig(width=16, height=16, fps=30.0, shutter="global",
                      exposure=0.0)
    seq = simulate_frames(IlluminationModel(phase=0.3), enf, cfg,
                          np.full((16, 16), 0.6), seed=5)
    means = seq.frames.mean(axis=(1, 2))
    m = means - means.mean()
    pad = 8 * len(m)
    spec = np.abs(np.fft.rfft(m * np.hanning(len(m)), n=pad))
    alias = float(np.fft.rfftfreq(pad, 1.0 / 30.0)[np.argmax(spec)])

    trace = extract_venf(seq, GRID, StftConfig(),
                         VenfConfig(mode="global_mean"))
    worst = float(np.max(np.abs(trace.values - 50.0)))
    ok = abs(alias - 10.0) <= 0.05 and worst <= 0.01
    _verdict(capsys, 8, "frame alias arithmetic", ok,
             f"alias at {alias:.3f} Hz (10.00+-0.05), recovered within "
             f"{worst * 1e3:.2f} mHz of 50 (<=10)")


def test_criterion_09_harmonic_segment_selection(capsys):
    rng = np.random.default_rng(9)
    n, t0, step = 120, 8.0, 1.0
    tt = t0 + step * np.arange(n)
    truth = 50.0 + 0.02 * np.sin(2.0 * np.pi * tt / 90.0)
    half = n // 2
    h1 = truth.copy()
    h1[half:] += 0.08 * rng.standard_normal(n - half)
    h2 = truth + 0.004 * rng.standard_normal(n)
    h3 = truth + 0.004 * rng.standard_normal(n)
    traces = {m: EnfTrace(t0, step, v) for m, v in ((1, h1), (2, h2), (3, h3))}
    values, winners, bounds = _select_segments(traces, HarmonicConfig())

    boundary = half // 10                   # first corrupted segment
    clean_half = all(w == 1 for w in winners[:boundary])
    dirty_half = all(w != 1 for w in winners[boundary:])
    best_single = min(mae(h, truth) for h in (h1, h2, h3))
    stitched = mae(values, truth)
    ok = clean_half and dirty_half and stitched <= best_single
    _verdict(capsys, 9, "harmonic segment selection", ok,
             f"winners {winners}, stitched mae={stitched:.2e} <= best single "
             f"{best_single:.2e}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    dirs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        ev, tr, fr = d / "events.csv", d / "truth.csv", d / "frames"
        assert main(["simulate", "--duration", "20", "--seed", "5",
                     "--config", CFG, "--out-events", str(ev),
                     "--out-truth", str(tr), "--out-frames", str(fr)]) == 0
        ee = d / "eenf.csv"
        assert main(["extract-eenf", "--events", str(ev), "--config", CFG,
                     "--out", str(ee),
                     "--per-harmonic-out", str(d / "per")]) == 0
        ve = d / "venf.csv"
        assert main(["extract-venf", "--frames", str(fr), "--config", CFG,
                     "--out", str(ve)]) == 0
        fs = 800.0
        tg = np.arange(int(20.0 * fs)) / fs
        _loop_write_reference(
            ReferenceSignal(fs, np.sin(2.0 * np.pi * 50.01 * tg)),
            d / "mains.csv")
        assert main(["reference", "--signal", str(d / "mains.csv"),
                     "--out", str(d / "ref.csv")]) == 0
        assert main(["evaluate", "--scenario", "static", "--seeds", "1",
                     "--duration", "32", "--config", CFG,
                     "--out", str(d / "report")]) == 0
        assert main(["plot", "--trace", f"eenf={ee}",
                     "--trace", f"venf={ve}", "--out", str(d / "chart.svg"),
                     "--title", "determinism"]) == 0
        dirs.append(d)

    a, b = dirs
    files = sorted(p for p in a.rglob("*") if p.is_file())
    diffs = [str(p.relative_to(a)) for p in files
             if not (b / p.relative_to(a)).exists()
             or p.read_bytes() != (b / p.relative_to(a)).read_bytes()]
    extra = [str(p.relative_to(b)) for p in b.rglob("*")
             if p.is_file() and not (a / p.relative_to(b)).exists()]
    ok = not diffs and not extra
    _verdict(capsys, 10, "deterministic command-line runs", ok,
             f"{len(files)} files byte-identical across repeat runs"
             if ok else f"mismatch: {diffs + extra}")
