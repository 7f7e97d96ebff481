"""Command-line behavior, exercised in process through main(argv)."""

import argparse
import configparser
import dataclasses
import filecmp
import logging
import os
import re
import resource
import subprocess
import sys
import threading
import typing
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import evenf
from evenf import cli, evaluate, simulate
from evenf.cli import main
from evenf.core import EventStream
from evenf.evaluate import ScenarioConfig
from evenf.ingest import (ReferenceSignal, read_frames, read_trace_csv,
                          write_events_csv, write_frames, write_trace_csv)
from evenf.simulate import ContaminationConfig, FrameSequence
from test_csv_reference import _loop_write_reference

CFG = "configs/default.cfg"


# ------------------------------------------------------------- exit codes

def test_help_exits_zero():
    with pytest.raises(SystemExit) as ex:
        main(["--help"])
    assert ex.value.code == 0


def test_subcommand_help_exits_zero():
    with pytest.raises(SystemExit) as ex:
        main(["simulate", "--help"])
    assert ex.value.code == 0


def test_unknown_flag_returns_one(capsys):
    # named before missing required arguments, wherever it stands
    for argv in (["--frobnicate"],
                 ["simulate", "--duration", "1", "--frobnicate"],
                 ["--frobnicate", "simulate", "--duration", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR evenf: command-line error: unrecognized arguments: "
            "--frobnicate"]


def test_unknown_subcommand_flag_returns_one(tmp_path):
    assert main(["simulate", "--duration", "1", "--bogus",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv")]) == 1


def test_no_subcommand_returns_one(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR evenf: command-line error: the following arguments are "
        "required: command"]


def test_missing_required_argument_returns_one(capsys):
    assert main(["simulate", "--duration", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR evenf: command-line error: the following arguments are "
        "required: --out-events, --out-truth"]


def test_bad_grid_choice_returns_one():
    assert main(["extract-eenf", "--events", "x", "--out", "y",
                 "--grid", "55"]) == 1


def test_missing_input_file_returns_three(tmp_path):
    assert main(["extract-eenf", "--events", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out.csv")]) == 3


def test_missing_config_file_returns_three(tmp_path):
    assert main(["simulate", "--duration", "1",
                 "--config", str(tmp_path / "nope.cfg"),
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv")]) == 3


def test_data_error_returns_one(tmp_path):
    # stream too short for one analysis window is a data error, not I/O
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0.0, 2.0, 500))
    stream = EventStream(1, 1, t, np.zeros(500, dtype=np.int64),
                         np.zeros(500, dtype=np.int64),
                         np.where(np.arange(500) % 2, 1, -1))
    src = tmp_path / "short.csv"
    write_events_csv(stream, src)
    assert main(["extract-eenf", "--events", str(src),
                 "--out", str(tmp_path / "out.csv")]) == 1


def _cli_env():
    return dict(os.environ,
                PYTHONPATH=str(Path(evenf.__file__).resolve().parents[1]))


def _run_cli(argv, **kw):
    # run as a process so that stderr is exactly what a user sees
    return subprocess.run(
        [sys.executable, "-m", "evenf.cli", "--log-level", "ERROR", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=120, **kw)


def test_import_loads_no_scipy_signal():
    # scipy.signal is most of the import time; only the band-pass needs it
    proc = subprocess.run(
        [sys.executable, "-c", "import evenf, evenf.cli, sys; "
         "print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_manifest_without_fps_is_one_stderr_line(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "manifest.txt").write_text("shutter=global\n")
    proc = _run_cli(["extract-venf", "--frames", str(frames), "--out",
                     str(tmp_path / "v.csv")])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "manifest.txt: missing fps" in lines[0]


def _frame_dir(tmp_path):
    frames = tmp_path / "frames"
    write_frames(FrameSequence(4, 4, 30.0, "global", 0.0,
                               np.full((5, 4, 4), 0.5)), frames)
    return frames


def _truncated_frame(tmp_path):
    frames = _frame_dir(tmp_path)
    with open(frames / "frame_000003.pgm", "r+b") as fh:
        fh.truncate(20)
    return (["extract-venf", "--frames", str(frames)],
            f"{frames / 'frame_000003.pgm'}: truncated raster: 9 of 16 bytes")


def _frame_gap(tmp_path):
    frames = _frame_dir(tmp_path)
    (frames / "frame_000002.pgm").unlink()
    return (["extract-venf", "--frames", str(frames)],
            f"{frames / 'frame_000002.pgm'}: missing frame")


def _odd_frame_size(tmp_path):
    frames = _frame_dir(tmp_path)
    (frames / "frame_000001.pgm").write_bytes(b"P5\n3 4\n255\n" + bytes(12))
    return (["extract-venf", "--frames", str(frames)],
            f"{frames / 'frame_000001.pgm'}: 3x4 frame, expected 4x4")


def _header_only_events(tmp_path):
    events = tmp_path / "e.csv"
    events.write_text("t_s,x,y,p\n")
    return ["extract-eenf", "--events", str(events)], f"{events}: no events"


def _short_stream(tmp_path):
    events = tmp_path / "e.csv"
    t = np.linspace(0.0, 5.0, 1000)
    write_events_csv(EventStream(1, 1, t, np.zeros(1000, dtype=np.int64),
                                 np.zeros(1000, dtype=np.int64),
                                 np.where(np.arange(1000) % 2, 1, -1)),
                     events)
    return (["extract-eenf", "--events", str(events)],
            f"{events}: stream shorter than the analysis window")


def _two_frames_global_mean(tmp_path):
    frames = tmp_path / "frames"
    write_frames(FrameSequence(4, 4, 30.0, "global", 0.0,
                               np.full((2, 4, 4), 0.5)), frames)
    return (["extract-venf", "--frames", str(frames), "--mode", "global_mean"],
            f"{frames}: frame series shorter than the analysis window")


def _nan_trace(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("t_s,f_hz\n0.0,50.0\n1.0,nan\n")
    return ["plot", "--trace", str(trace)], f"{trace}: trace values must be finite"


def _reference_rate(tmp_path, rate):
    signal = tmp_path / "mains.csv"
    signal.write_text(f"# sample_rate={rate}\nv\n0.1\n0.2\n")
    return ["reference", "--signal", str(signal)], signal


def _nan_rate(tmp_path):
    argv, signal = _reference_rate(tmp_path, "nan")
    return argv, f"{signal}: sample_rate must be positive and finite"


def _inf_rate(tmp_path):
    argv, signal = _reference_rate(tmp_path, "inf")
    return argv, f"{signal}: sample_rate must be positive and finite"


def _malformed_rate(tmp_path):
    argv, signal = _reference_rate(tmp_path, "1e-9.5")
    return argv, f"{signal}: sample_rate: invalid float '1e-9.5'"


def _short_reference(tmp_path):
    argv, signal = _reference_rate(tmp_path, "800")
    return argv, f"{signal}: signal shorter than the analysis window"


def _flag(argv, flag, value, kind):
    return argv, (f"command-line error: argument {flag}: invalid {kind} "
                  f"value: {value!r}")


def _inf_duration(tmp_path):
    return _flag(["evaluate", "--duration", "inf"], "--duration", "inf",
                 "finite float")


def _nan_duration(tmp_path):
    return _flag(["evaluate", "--duration", "nan"], "--duration", "nan",
                 "finite float")


def _nan_delta_t(tmp_path):
    return _flag(["extract-eenf", "--events", "e.csv", "--delta-t", "nan"],
                 "--delta-t", "nan", "finite float")


def _seeds_not_ints(tmp_path):
    return _flag(["evaluate", "--seeds", "a,b"], "--seeds", "a,b",
                 "seed list")


def _negative_seed(tmp_path):
    return _flag(["evaluate", "--seeds", "-1"], "--seeds", "-1", "seed list")


def _negative_simulate_seed(tmp_path):
    return _flag(["simulate", "--duration", "1", "--seed", "-1",
                  "--out-events", "e.csv", "--out-truth", "t.csv"],
                 "--seed", "-1", "seed")


@pytest.mark.parametrize("make_input", [
    _truncated_frame, _frame_gap, _odd_frame_size, _header_only_events,
    _short_stream, _two_frames_global_mean, _nan_trace, _nan_rate,
    _inf_rate, _malformed_rate, _short_reference, _inf_duration,
    _nan_duration, _nan_delta_t, _seeds_not_ints, _negative_seed,
    _negative_simulate_seed])
def test_bad_input_file_is_one_stderr_line(tmp_path, make_input):
    argv, message = make_input(tmp_path)
    if argv[0] != "simulate":       # simulate names each output itself
        argv += ["--out", str(tmp_path / "o.csv")]
    proc = _run_cli(argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR evenf: {message}"]


def test_failed_simulate_writes_no_file(tmp_path, caplog):
    # 1 ms holds no frame; the failure comes after the events and truth
    # are simulated but before either is written
    assert main(["simulate", "--duration", "0.001",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-frames", str(tmp_path / "f")]) == 1
    assert "trace support too short for a single frame" in caplog.text
    assert list(tmp_path.iterdir()) == []


def _error_lines(caplog):
    return [f"{r.levelname} {r.name}: {r.getMessage()}"
            for r in caplog.records if r.levelno >= logging.WARNING]


def test_failed_frame_write_leaves_the_csvs_as_they_were(tmp_path, caplog):
    # the frame directory cannot be made after both CSVs are written: the
    # event file keeps its old bytes and the truth file is not made
    (tmp_path / "f").write_text("a file, not a directory\n")
    (tmp_path / "e.csv").write_text("old events\n")
    assert main(["--log-level", "ERROR", "simulate", "--duration", "2",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-frames", str(tmp_path / "f")]) == 3
    [line] = _error_lines(caplog)
    assert line.startswith("ERROR evenf: I/O failure: ") and "exists" in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "f"]
    assert (tmp_path / "e.csv").read_text() == "old events\n"


def _simulate_frames(tmp_path, duration, frames):
    return main(["--log-level", "ERROR", "simulate", "--duration", duration,
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-frames", str(frames)])


def test_frame_directory_can_be_rewritten(tmp_path):
    # the 4 s write leaves 119 frames; the 2 s rewrite keeps 59 of them
    # and its own manifest
    assert _simulate_frames(tmp_path, "4", tmp_path / "f") == 0
    assert _simulate_frames(tmp_path, "2", tmp_path / "f") == 0
    assert _simulate_frames(tmp_path, "2", tmp_path / "fresh") == 0
    assert len(read_frames(tmp_path / "f")) == 59
    names = sorted(p.name for p in (tmp_path / "f").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert all(filecmp.cmp(tmp_path / "f" / n, tmp_path / "fresh" / n,
                           shallow=False) for n in names)


def test_failed_frame_write_leaves_no_manifest(tmp_path, caplog):
    # a directory where frame 3 goes fails the write midway; no manifest
    # claims the frames that were not written
    (tmp_path / "f" / "frame_000003.pgm").mkdir(parents=True)
    (tmp_path / "f" / "manifest.txt").write_text("count=59\n")
    assert _simulate_frames(tmp_path, "2", tmp_path / "f") == 3
    [line] = _error_lines(caplog)
    assert line.startswith("ERROR evenf: I/O failure: ")
    assert not (tmp_path / "f" / "manifest.txt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


def test_unwritable_truth_leaves_no_event_csv(tmp_path, caplog):
    assert main(["--log-level", "ERROR", "simulate", "--duration", "2",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "nodir" / "t.csv")]) == 3
    assert _error_lines(caplog) == [
        "ERROR evenf: I/O failure: [Errno 2] No such file or directory: "
        f"{str(tmp_path / 'nodir' / 't.csv')!r}"]
    assert list(tmp_path.iterdir()) == []


def test_frame_render_out_of_memory_is_one_line(tmp_path, monkeypatch,
                                                caplog):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(evaluate, "simulate_frames", exhausted)
    threads = threading.active_count()
    assert main(["--log-level", "ERROR", "simulate", "--duration", "20",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-frames", str(tmp_path / "f")]) == 1
    assert threading.active_count() == threads
    assert [f"{r.levelname} {r.name}: {r.getMessage()}"
            for r in caplog.records if r.levelno >= logging.WARNING] == [
        "ERROR evenf: simulate: out of memory"]
    assert list(tmp_path.iterdir()) == []


def test_event_assembly_out_of_memory_is_one_line(tmp_path, monkeypatch,
                                                  caplog):
    # motion pairs and noise take the blocked assembly; its blocks past
    # 10 s run out of memory in the worker threads
    real = simulate._time_order

    def exhausted(t):
        if len(t) and t[0] > 10.0:
            raise MemoryError
        return real(t)

    monkeypatch.setattr(simulate, "_time_order", exhausted)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[contamination]\nmotion_pair_rate = 300\n"
                   "noise_rate = 5\nburst_fraction = 0.3\n")
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    assert main(["--log-level", "ERROR", "simulate", "--duration", "20",
                 "--config", str(cfg), "--out-events", str(out / "e.csv"),
                 "--out-truth", str(out / "t.csv"),
                 "--out-frames", str(out / "f")]) == 1
    assert threading.active_count() == threads
    assert [f"{r.levelname} {r.name}: {r.getMessage()}"
            for r in caplog.records if r.levelno >= logging.WARNING] == [
        "ERROR evenf: simulate: out of memory"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("duration, span, note", [
    ("0.001", "0.01", True), ("0.015", "0.02", True), ("0.7", "0.7", False)])
def test_simulate_logs_the_span_it_simulated(tmp_path, caplog, duration,
                                             span, note):
    # the truth, and with it the events, run to a whole enf_step (0.01 s)
    caplog.set_level(logging.INFO, logger="evenf")
    assert main(["simulate", "--duration", duration,
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv")]) == 0
    assert read_trace_csv(tmp_path / "t.csv").t_end == pytest.approx(
        float(span))
    lines = caplog.messages
    assert any(m.startswith("simulated ") and m.endswith(f" over {span} s")
               for m in lines)
    past = [m for m in lines if "past --duration" in m]
    assert past == ([f"the simulation covers {span} s, past --duration "
                     f"{duration} s: the truth is sampled in whole "
                     "enf_step = 0.01 s"] if note else [])


def _limit_address_space():
    limit = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_is_one_stderr_line(tmp_path, monkeypatch):
    # two events 100 s apart at delta_t 1e-6 ask for ~3 GiB of sampling
    # arrays, within any machine's physical memory; the child's 3 GiB
    # address-space cap makes the allocation fail there, never on the
    # machine.  One BLAS thread keeps the buffers OpenBLAS reserves per
    # core inside the cap on large hosts.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    src = tmp_path / "two.csv"
    src.write_text("t_s,x,y,p\n0.0,0,0,1\n100.0,0,0,-1\n")
    proc = _run_cli(["extract-eenf", "--events", str(src), "--delta-t", "1e-6",
                     "--out", str(tmp_path / "o.csv")],
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "ERROR evenf: extract-eenf: out of memory"]


@pytest.mark.parametrize("argv, pattern", [
    (["extract-eenf", "--events", "two.csv", "--delta-t", "1e-9",
      "--out", "o.csv"],
     r"delta_t = 1e-09 s over 100 s: 100000000002 sampling "
     r"moments"),
    (["simulate", "--duration", "1e9", "--out-events", "e.csv",
      "--out-truth", "t.csv"],
     r"duration = 1e\+09 s at step 0\.01 s: 100000000001 ENF samples")])
def test_size_beyond_memory_is_one_stderr_line(tmp_path, monkeypatch, argv,
                                               pattern):
    # the size check names the flag and the GiB before the allocation,
    # which would otherwise end as "out of memory" under the 3 GiB cap
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    (tmp_path / "two.csv").write_text("t_s,x,y,p\n0.0,0,0,1\n100.0,0,0,-1\n")
    proc = _run_cli(argv, cwd=tmp_path, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(rf"ERROR evenf: {pattern} need [\d.e+]+ GiB, more "
                        r"than the [\d.]+ GiB of physical memory", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["two.csv"]


def test_sensor_too_large_for_memory_is_one_stderr_line(tmp_path):
    # 10^10 pixels ask for petabytes; the size check names the sensor
    # before the first event-sized allocation, under the same 3 GiB cap
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[sensor]\nwidth = 100000\nheight = 100000\n")
    proc = _run_cli(["simulate", "--duration", "1", "--config", str(cfg),
                     "--out-events", str(tmp_path / "e.csv"),
                     "--out-truth", str(tmp_path / "t.csv")],
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"ERROR evenf: a 100000x100000 sensor's \d+ events "
                        r"need [\d.e+]+ GiB, more than the [\d.]+ GiB of "
                        r"physical memory", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]


_CONFIG_ERRORS = [
    ("[sensr]\nwidth = 2\n", "[sensr]: unknown section"),
    ("[sensor]\ncolour = red\n", "[sensor] colour: unknown key"),
    ("[enf]\ngrid = 60\n", "[enf] grid: unknown key"),
    ("[venf]\nstft = 8\n", "[venf] stft: unknown key"),
    ("[scenario]\ngrid = 60\n", "[scenario] grid: unknown key"),
    ("[sensor]\nwidth = abc\n", "[sensor] width: invalid int 'abc'"),
    ("[harmonics]\nmax_order_m = 2.5\n",
     "[harmonics] max_order_m: invalid int '2.5'"),
    ("[enf]\ndeviation_std = fast\n",
     "[enf] deviation_std: invalid float 'fast'"),
    ("[frames]\nbit_depth = x\n",
     "[frames] bit_depth: invalid int or none 'x'"),
    ("[sensor]\nthreshold_c = -1\n", "[sensor] threshold_c must be positive"),
    ("[stft]\nwindow_s = nan\n", "[stft] window_s: invalid float 'nan'"),
    ("[sensor]\nthreshold_c = inf\n",
     "[sensor] threshold_c: invalid float 'inf'"),
    ("width = 2\n", "File contains no section headers. file: 't.cfg', "
                    "line: 1 'width = 2\\n'"),
    ("[sensor]\nwidth = \xff\n", "'utf-8' codec can't decode byte 0xff in "
                                 "position 17: invalid start byte"),
    # the band-pass takes the tracker's search band, not a key of its own
    ("[harmonics]\nband_halfwidth_hz = 1.0\n",
     "[harmonics] band_halfwidth_hz: unknown key"),
    ("[venf]\nband_halfwidth_hz = 1.0\n", "[venf] band_halfwidth_hz: unknown key"),
]


@pytest.mark.parametrize("text,message", _CONFIG_ERRORS)
def test_config_error_names_file_section_and_key(tmp_path, monkeypatch,
                                                 text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.cfg").write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError) as err:
        cli._load_config(argparse.Namespace(config="t.cfg"))
    assert str(err.value) == f"t.cfg: {message}"


# an unknown section, an unknown key, an unparsable value, two
# non-finite floats and the two removed band-pass keys
@pytest.mark.parametrize("text,message",
                         [_CONFIG_ERRORS[i] for i in (0, 2, 5, 10, 11, 14, 15)])
def test_config_error_is_one_stderr_line(tmp_path, text, message):
    (tmp_path / "t.cfg").write_bytes(text.encode("latin-1"))
    proc = _run_cli(["extract-eenf", "--events", "e.csv", "--out", "o.csv",
                     "--config", "t.cfg"], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR evenf: t.cfg: {message}"]


def test_noise_only_stream_returns_two(tmp_path):
    rng = np.random.default_rng(3)
    n = 20000
    t = np.sort(rng.uniform(0.0, 20.0, n))
    p = rng.choice([-1, 1], n)
    stream = EventStream(1, 1, t, np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.int64), p)
    src = tmp_path / "noise.csv"
    write_events_csv(stream, src)
    out = tmp_path / "trace.csv"
    assert main(["extract-eenf", "--events", str(src),
                 "--out", str(out)]) == 2
    # the trace is still written so the caller can inspect it
    assert out.exists()
    text = out.read_text()
    assert "# low_confidence_segments=" in text


# ------------------------------------------------------------ full pipeline

def _simulate(tmp_path, seed=3, duration=20.0, frames=True, config=CFG):
    ev = tmp_path / f"events_{seed}.csv"
    tr = tmp_path / f"truth_{seed}.csv"
    argv = ["simulate", "--duration", str(duration), "--seed", str(seed),
            "--config", config,
            "--out-events", str(ev), "--out-truth", str(tr)]
    fr = tmp_path / f"frames_{seed}"
    if frames:
        argv += ["--out-frames", str(fr)]
    assert main(argv) == 0
    return ev, tr, fr


def test_full_pipeline_smoke(tmp_path):
    ev, tr, fr = _simulate(tmp_path)
    assert ev.exists() and tr.exists() and (fr / "manifest.txt").exists()

    eenf_out = tmp_path / "eenf.csv"
    assert main(["extract-eenf", "--events", str(ev), "--config", CFG,
                 "--out", str(eenf_out),
                 "--per-harmonic-out", str(tmp_path / "per")]) == 0
    trace = read_trace_csv(eenf_out)
    assert len(trace) == 5                      # floor((20-16)/1)+1
    assert np.max(np.abs(trace.values - 50.0)) < 0.05
    assert "# segment_winners=" in eenf_out.read_text()
    assert (tmp_path / "per" / "harmonic_1.csv").exists()

    venf_out = tmp_path / "venf.csv"
    assert main(["extract-venf", "--frames", str(fr), "--config", CFG,
                 "--out", str(venf_out)]) == 0
    vtrace = read_trace_csv(venf_out)
    assert np.max(np.abs(vtrace.values - 50.0)) < 0.05

    report_dir = tmp_path / "report"
    assert main(["evaluate", "--scenario", "static", "--seeds", "1",
                 "--duration", "32", "--config", CFG,
                 "--out", str(report_dir)]) == 0
    assert (report_dir / "detail.csv").exists()
    assert (report_dir / "summary.md").exists()

    chart = tmp_path / "chart.svg"
    assert main(["plot", "--trace", f"event={eenf_out}",
                 "--trace", f"video={venf_out}",
                 "--out", str(chart), "--title", "pipeline smoke"]) == 0
    svg = chart.read_text()
    assert svg.lstrip().startswith("<svg") and "pipeline smoke" in svg
    rows = (tmp_path / "chart.csv").read_text().strip().splitlines()
    assert rows[0] == "label,t_s,f_hz"
    assert len(rows) == 1 + len(trace) + len(vtrace)


def test_reference_subcommand(tmp_path):
    fs = 800.0
    t = np.arange(int(20.0 * fs)) / fs
    sig = ReferenceSignal(fs, np.sin(2 * np.pi * 50.02 * t + 0.7))
    src = tmp_path / "mains.csv"
    _loop_write_reference(sig, src)
    out = tmp_path / "ref.csv"
    assert main(["reference", "--signal", str(src), "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    assert np.max(np.abs(trace.values - 50.02)) < 0.005


def test_plot_label_defaults_to_stem(tmp_path):
    ev, tr, _ = _simulate(tmp_path, frames=False, duration=2.0)
    chart = tmp_path / "truth.svg"
    assert main(["plot", "--trace", str(tr), "--out", str(chart)]) == 0
    first = (tmp_path / "truth.csv").read_text().splitlines()[1]
    assert first.startswith("truth_3,")


@pytest.mark.parametrize("label", ["a,b", "two\nlines", "cr\r"])
def test_plot_rejects_a_label_its_csv_cannot_hold(tmp_path, caplog, label):
    ev, tr, _ = _simulate(tmp_path, frames=False, duration=2.0)
    spec = f"{label}={tr}"
    out = tmp_path / "plots"
    out.mkdir()
    assert main(["--log-level", "ERROR", "plot", "--trace", spec,
                 "--out", str(out / "p.svg")]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"--trace {spec!r}: a label must hold no ',' or line break"]
    assert list(out.iterdir()) == []


def test_plot_escapes_label_and_title(tmp_path):
    ev, tr, _ = _simulate(tmp_path, frames=False, duration=2.0)
    chart = tmp_path / "p.svg"
    assert main(["plot", "--trace", f"E&V <eenf>={tr}", "--title",
                 "50 Hz & 60 Hz <a>", "--out", str(chart)]) == 0
    texts = [e.text for e in ElementTree.parse(chart).iter()
             if e.tag.endswith("text")]
    assert "E&V <eenf>" in texts and "50 Hz & 60 Hz <a>" in texts


# ------------------------------------------------------- flags and configs

def test_cli_flag_overrides_config(tmp_path):
    ev, _, _ = _simulate(tmp_path, frames=False)
    out = tmp_path / "h1.csv"
    # 4 ms sampling puts every order above 1 past Nyquist
    assert main(["extract-eenf", "--events", str(ev), "--config", CFG,
                 "--delta-t", "0.004", "--harmonics", "3",
                 "--out", str(out)]) == 0
    winners = [ln for ln in out.read_text().splitlines()
               if ln.startswith("# segment_winners=")][0]
    orders = set(winners.split("=", 1)[1].split(","))
    assert orders == {"1"}


def test_config_section_values_apply(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[sensor]\nwidth = 2\nheight = 1\n"
        "[frames]\nwidth = 8\nheight = 8\nshutter = global\n"
        "row_readout = 0.0\nbit_depth = none\n")
    ev, tr, fr = _simulate(tmp_path, duration=1.0, config=str(cfg))
    text = ev.read_text()
    assert "# width=2,height=1" in text
    names = sorted(p.name for p in fr.iterdir())
    assert "manifest.txt" in names
    assert any(n.endswith(".pgm") for n in names)


def _file_settable(cls) -> set[str]:
    return {name for name, hint in typing.get_type_hints(cls).items()
            if hint in cli._CONVERTERS}


def test_default_cfg_restates_the_dataclass_defaults():
    cfg, contamination = cli._load_config(argparse.Namespace(config=CFG))
    assert cfg == ScenarioConfig()
    assert contamination == ContaminationConfig()
    # one key for every field a file can set, and no other
    default = ScenarioConfig()
    classes = {f.name: type(getattr(default, f.name))
               for f in dataclasses.fields(default)
               if dataclasses.is_dataclass(getattr(default, f.name))}
    classes.update(scenario=ScenarioConfig, contamination=ContaminationConfig)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(CFG)
    assert {name: set(cp[name]) for name in cp.sections()} == {
        name: _file_settable(cls) for name, cls in classes.items()}


def test_no_config_is_the_shipped_calibration(tmp_path):
    outputs = []
    for run, extra in (("bare", []), ("cfg", ["--config", CFG])):
        d = tmp_path / run
        assert main(["evaluate", "--scenario", "all", "--seeds", "1",
                     "--duration", "32", "--out", str(d / "report"),
                     *extra]) == 0
        assert main(["simulate", "--duration", "2", "--seed", "4",
                     "--out-events", str(d / "events.csv"),
                     "--out-truth", str(d / "truth.csv"),
                     "--out-frames", str(d / "frames"), *extra]) == 0
        outputs.append(d)
    bare, cfg = outputs
    for name in ("report/detail.csv", "report/summary.md", "events.csv",
                 "truth.csv", "frames/frame_000010.pgm"):
        assert (bare / name).read_bytes() == (cfg / name).read_bytes(), name


def test_grid_flag_sets_nominal(tmp_path):
    ev = tmp_path / "e.csv"
    tr = tmp_path / "t.csv"
    assert main(["simulate", "--duration", "1", "--grid", "60",
                 "--out-events", str(ev), "--out-truth", str(tr)]) == 0
    trace = read_trace_csv(tr)
    assert np.allclose(trace.values, 60.0, atol=0.06)


# ------------------------------------------------------------- one scene

def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("frames, rates", [
    (True, {}), (False, {}),
    (True, {"motion_pair_rate": 300.0, "noise_rate": 5.0,
            "burst_fraction": 0.3})])
def test_simulate_writes_the_static_scene(tmp_path, frames, rates):
    config = tmp_path / "c.cfg"
    config.write_text("[contamination]\n" + "".join(
        f"{k} = {v}\n" for k, v in rates.items()))
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    cli_out.mkdir(), lib_out.mkdir()
    argv = ["simulate", "--duration", "5", "--seed", "3", "--config",
            str(config), "--out-events", str(cli_out / "e.csv"),
            "--out-truth", str(cli_out / "t.csv")]
    assert main(argv + (["--out-frames", str(cli_out / "f")]
                        if frames else [])) == 0

    truth, events, seq = evaluate.simulate_scene(
        ScenarioConfig(), "static", 5.0, 3, ContaminationConfig(**rates),
        frames=frames)
    write_events_csv(events, lib_out / "e.csv")
    write_trace_csv(truth, lib_out / "t.csv")
    if frames:
        write_frames(seq, lib_out / "f")
    assert _tree(cli_out) == _tree(lib_out)
    assert ("f/manifest.txt" in _tree(cli_out)) == frames


def test_one_scene_per_seed_and_per_simulate(tmp_path, monkeypatch):
    calls, real = [], evaluate.simulate_scene

    def spy(cfg, scenario, duration, seed, *args, **kwargs):
        calls.append((scenario, seed))
        return real(cfg, scenario, duration, seed, *args, **kwargs)

    monkeypatch.setattr(evaluate, "simulate_scene", spy)
    evaluate.run_scenario("dynamic", [1, 2], 32.0)
    assert calls == [("dynamic", 1), ("dynamic", 2)]
    calls.clear()
    assert main(["simulate", "--duration", "1", "--seed", "4",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv")]) == 0
    assert calls == [("static", 4)]


# ------------------------------------------------------------- determinism

def test_simulate_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    ev_a, tr_a, _ = _simulate(a, seed=7, frames=False)
    ev_b, tr_b, _ = _simulate(b, seed=7, frames=False)
    assert filecmp.cmp(ev_a, ev_b, shallow=False)
    assert filecmp.cmp(tr_a, tr_b, shallow=False)


def test_extract_byte_identical_across_runs(tmp_path):
    ev, _, _ = _simulate(tmp_path, frames=False)
    out1 = tmp_path / "o1.csv"
    out2 = tmp_path / "o2.csv"
    for out in (out1, out2):
        assert main(["extract-eenf", "--events", str(ev), "--config", CFG,
                     "--out", str(out)]) == 0
    assert filecmp.cmp(out1, out2, shallow=False)
