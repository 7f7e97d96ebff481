"""Benchmark harness: window-matched scoring, scenario runs, reporting."""

import threading

import numpy as np
import pytest

from evenf import evaluate
from evenf import simulate as simulate_module
from evenf.core import EnfTrace, GridConfig
from evenf.evaluate import (EvalReport, EvalRow, _base_texture, _score,
                            _window_mean, emit_report, merge_reports,
                            run_scenario, simulate_scene, ScenarioConfig)
from evenf.simulate import (ContaminationConfig, FrameConfig,
                            illumination_crossings, simulate_events)


# ------------------------------------------------------------ window mean

def test_window_mean_hand_example():
    truth = EnfTrace(0.0, 0.1, np.arange(10.0))
    out = _window_mean(truth, np.array([0.45]), 0.4)
    assert out[0] == pytest.approx((3 + 4 + 5 + 6) / 4.0)


def test_window_mean_constant_truth():
    truth = EnfTrace(0.0, 0.01, np.full(1000, 50.02))
    out = _window_mean(truth, np.array([2.0, 5.0, 8.0]), 1.0)
    assert np.allclose(out, 50.02)


def test_window_mean_outside_support():
    truth = EnfTrace(0.0, 0.1, np.arange(10.0))
    with pytest.raises(ValueError, match="outside truth support"):
        _window_mean(truth, np.array([2.0]), 0.4)


def test_score_of_windowed_truth_is_perfect():
    truth = EnfTrace(0.0, 0.01, 50.0 + 0.01 * np.sin(np.arange(3000) * 0.01))
    times = np.arange(8.0, 22.0)
    est = EnfTrace(8.0, 1.0, _window_mean(truth, times, 16.0))
    cc, err = _score(est, truth, 16.0)
    assert cc == pytest.approx(1.0)
    assert err == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- texture

def test_base_texture_seeded_and_bounded():
    cfg = ScenarioConfig()
    a = _base_texture(cfg, 3)
    b = _base_texture(cfg, 3)
    c = _base_texture(cfg, 4)
    assert a.shape == (cfg.frames.height, cfg.frames.width)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= cfg.texture_low and a.max() <= cfg.texture_high


# ---------------------------------------------------------------- config

def test_scenario_config_grid_reaches_the_truth_and_both_trackers():
    # at 25 fps the 120 Hz flicker is no multiple of the frame rate; a
    # tracker left on 50 Hz would miss the truth by 10 Hz
    cfg = ScenarioConfig(grid=GridConfig(60.0),
                         frames=FrameConfig(fps=25.0, row_readout=1 / 800))
    report = run_scenario("static", [1], 40.0, cfg)
    assert report.mean("static", "eenf", "mae_hz") < 5e-3
    assert report.mean("static", "venf", "mae_hz") < 0.5


# ------------------------------------------------------------- scenarios

def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("underwater", [1], 40.0)


def test_run_scenario_rejects_short_duration():
    with pytest.raises(ValueError, match="two analysis windows"):
        run_scenario("static", [1], 20.0)


def test_run_scenario_static_smoke():
    report = run_scenario("static", [1], 32.0)
    assert report.duration == 32.0
    assert {(r.scenario, r.method) for r in report.rows} == {
        ("static", "eenf"), ("static", "venf")}
    for row in report.rows:
        assert row.seed == 1
        assert 0.0 < row.cc <= 1.0
        assert row.mae_hz < 5e-3


def test_run_scenario_deterministic():
    a = run_scenario("static", [2], 32.0)
    b = run_scenario("static", [2], 32.0)
    assert a.rows == b.rows
    assert a.flags == b.flags


def test_frame_render_error_reaches_the_caller(monkeypatch):
    # the frames render in a worker thread; its error is raised on the
    # caller's thread, after the events, and the worker is joined
    def failing(*args, **kwargs):
        raise ValueError("render failed")

    monkeypatch.setattr(evaluate, "simulate_frames", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^render failed$"):
        run_scenario("static", [1], 32.0)
    assert threading.active_count() == threads


def test_scene_without_frames_starts_no_thread(monkeypatch):
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    truth, events, frames = simulate_scene(ScenarioConfig(), "static", 2.0,
                                           1, frames=False)
    assert frames is None and len(events) and started == []
    # the same scene with frames renders them in one thread
    with_frames = simulate_scene(ScenarioConfig(), "static", 2.0, 1)
    assert len(started) == 1 and len(with_frames[2])
    assert np.array_equal(with_frames[1].t, events.t)


def test_dynamic_seed_simulates_once(monkeypatch):
    cfg, duration = ScenarioConfig(), 40.0
    calls = []

    def counting(sensor, crossings, enf, contamination, seed):
        calls.append((crossings, enf, contamination))
        return simulate_events(sensor, crossings, enf, contamination,
                               seed=seed)

    monkeypatch.setattr(evaluate, "simulate_events", counting)
    once = run_scenario("dynamic", [5], duration)
    assert len(calls) == 1
    crossings, enf, contamination = calls[0]
    ct, cp = illumination_crossings(cfg.sensor, cfg.illumination, enf)
    assert np.array_equal(crossings[0], ct)
    assert np.array_equal(crossings[1], cp)
    w, h = cfg.sensor.width, cfg.sensor.height
    assert contamination.motion_pair_rate == (
        len(ct) * w * h / duration * cfg.motion_rate_factor)

    def clean_then_dynamic(sensor, crossings, enf, contamination, seed):
        # the rate taken from the size of a clean stream simulated first
        clean = simulate_events(sensor, crossings, enf,
                                ContaminationConfig(), seed=seed)
        rate = len(clean) / duration * cfg.motion_rate_factor
        return simulate_events(sensor, crossings, enf,
                               ContaminationConfig(motion_pair_rate=rate),
                               seed=seed)

    monkeypatch.setattr(evaluate, "simulate_events", clean_then_dynamic)
    twice = run_scenario("dynamic", [5], duration)
    assert once.rows == twice.rows
    assert once.flags == twice.flags


def test_dynamic_seed_walks_the_ladder_once(monkeypatch):
    # the dynamic rate and the stream both come from one crossing walk
    walks, ladder = [], simulate_module._ladder_crossings

    def spy(*args):
        walks.append(1)
        return ladder(*args)

    monkeypatch.setattr(simulate_module, "_ladder_crossings", spy)
    run_scenario("dynamic", [5], 32.0)
    assert len(walks) == 1


# -------------------------------------------------------------- reporting

def _toy_report():
    rows = [
        EvalRow("static", "eenf", 1, 0.99, 1.0e-3),
        EvalRow("static", "eenf", 2, 0.97, 2.0e-3),
        EvalRow("static", "venf", 1, 0.90, 4.0e-3),
        EvalRow("static", "venf", 2, 0.80, 6.0e-3),
    ]
    return EvalReport(120.0, rows, [])


def test_report_mean():
    report = _toy_report()
    assert report.mean("static", "eenf", "cc") == pytest.approx(0.98)
    assert report.mean("static", "venf", "mae_hz") == pytest.approx(5.0e-3)


def test_report_mean_missing_rows():
    with pytest.raises(ValueError, match="no rows"):
        _toy_report().mean("dynamic", "eenf", "cc")


def test_merge_reports():
    a = _toy_report()
    b = EvalReport(60.0, [EvalRow("dynamic", "eenf", 1, 0.96, 1.5e-3)],
                   ["dynamic seed 1: note"])
    merged = merge_reports([a, b])
    assert merged.duration == 120.0
    assert len(merged.rows) == 5
    assert merged.flags == ["dynamic seed 1: note"]
    assert merged.mean("dynamic", "eenf", "cc") == pytest.approx(0.96)


def test_emit_report_files(tmp_path):
    report = EvalReport(
        90.0,
        _toy_report().rows + [EvalRow("extreme", "eenf", 1, 0.95, 1.2e-3),
                              EvalRow("extreme", "venf", 1, 0.70, 9.0e-3)],
        ["extreme seed 1: event MAE 1.20e-03 exceeds video MAE 9.00e-03"])
    detail, summary = emit_report(report, tmp_path / "out")
    assert detail.exists() and summary.exists()

    lines = detail.read_text().strip().splitlines()
    assert lines[0] == "scenario,method,seed,cc,mae"
    assert len(lines) == 1 + len(report.rows)
    assert lines[1] == "static,eenf,1,0.990000,1.000000e-03"

    text = summary.read_text()
    assert "| event-based |" in text and "| video |" in text
    assert "static CC" in text and "extreme MAE" in text
    assert "0.9800" in text            # mean static eenf cc
    assert "## Flags" in text
    assert "exceeds video MAE" in text


def test_emit_report_no_flag_section_when_clean(tmp_path):
    _, summary = emit_report(_toy_report(), tmp_path)
    assert "## Flags" not in summary.read_text()
