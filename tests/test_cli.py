"""Command-line behavior, exercised in process through main(argv)."""

import argparse
import ast
import configparser
import dataclasses
import filecmp
import importlib
import logging
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
import typing
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evenf
from evenf import cli, evaluate, simulate
from evenf.cli import main
from evenf.core import EnfTrace, EventStream, FrameSequence, ReferenceSignal
from evenf.evaluate import ScenarioConfig
from evenf.ingest import (read_frames, read_trace_csv, write_events_csv,
                          write_frames, write_trace_csv)
from evenf.simulate import ContaminationConfig
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


def test_commands_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: no command's process, nor the
    # import, loads any part of scipy; nor numpy.ma, which np.median would
    # import on its first call (8-17 ms of a cold extract-eenf)
    ev, _, fr = _simulate(tmp_path)
    mains = tmp_path / "mains.csv"
    _loop_write_reference(ReferenceSignal(800.0, np.sin(
        2 * np.pi * 50.01 * np.arange(16_000) / 800.0)), mains)
    commands = [
        ["extract-eenf", "--events", str(ev), "--out", str(tmp_path / "o.csv")],
        ["extract-venf", "--frames", str(fr), "--out", str(tmp_path / "v.csv")],
        ["reference", "--signal", str(mains), "--out", str(tmp_path / "r.csv")],
        ["evaluate", "--scenario", "static", "--seeds", "1", "--duration",
         "32", "--out", str(tmp_path / "report")]]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, evenf.cli\n"
         f"for argv in {commands!r}:\n"
         "    assert evenf.cli.main(argv) == 0, argv\n"
         "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=_cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_every_name_perfbench_traces_exists():
    # perfbench/tracing.py rebinds the (module, attribute) pairs of its
    # TARGETS from outside, so a name kept only for it stays until the
    # tracer stops naming it; the file is parsed, not run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    [targets] = [node.value for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TARGETS"]
    pairs = [(t.elts[0].value, t.elts[1].value) for t in targets.elts]
    assert len(pairs) > 20
    missing = [f"evenf.{module}.{attr}" for module, attr in pairs
               if not hasattr(importlib.import_module(f"evenf.{module}"), attr)]
    assert not missing


@pytest.mark.parametrize("levels", [("INFO", "ERROR"), ("ERROR", "INFO")])
def test_log_level_is_each_calls_own(tmp_path, levels):
    # two calls in one process: the second sets its own level, not the first
    trace = tmp_path / "t.csv"
    write_trace_csv(EnfTrace(0.0, 1.0, np.full(3, 50.0)), trace)
    calls = [["--log-level", level, "plot", "--trace", str(trace), "--out",
              f"{k}.svg"] for k, level in enumerate(levels)]
    proc = subprocess.run(
        [sys.executable, "-c", "import evenf.cli\n"
         f"for argv in {calls!r}:\n"
         "    assert evenf.cli.main(argv) == 0, argv"],
        cwd=tmp_path, capture_output=True, text=True, env=_cli_env(),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    k = levels.index("INFO")
    assert proc.stderr.splitlines() == [f"INFO evenf: wrote {k}.svg and {k}.csv"]


def test_band_outside_nyquist_is_one_stderr_line(tmp_path):
    # the m = 1 band, 100 +/- 120 Hz, reaches below 0 Hz
    ev, _, _ = _simulate(tmp_path, frames=False)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[stft]\nsearch_halfwidth_hz = 60\n")
    proc = _run_cli(["extract-eenf", "--events", str(ev), "--config",
                     str(cfg), "--out", str(tmp_path / "o.csv")])
    assert proc.returncode == 1
    # the line names the file and the setting: both decide the band
    assert proc.stderr.splitlines() == [
        f"ERROR evenf: {ev}: band -20 to 220 Hz outside (0, Nyquist 500 Hz): "
        "[stft] search_halfwidth_hz sets its width"]


def test_manifest_without_fps_is_one_stderr_line(tmp_path):
    # the timing is the first header's comment, which here lacks fps
    frames = tmp_path / "frames.pgm"
    frames.write_bytes(b"P5\n# evenf shutter=global row_readout_s=0 "
                       b"count=1\n1 1\n255\n\0")
    proc = _run_cli(["extract-venf", "--frames", str(frames), "--out",
                     str(tmp_path / "v.csv")])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"ERROR evenf: {frames}: image 0: missing fps"]


def _frame_images(tmp_path):
    """A five-image 4x4 frame file, and its images' bytes, each from its
    magic (the first from its comment) to the end of its raster."""
    frames = tmp_path / "frames.pgm"
    write_frames(FrameSequence(4, 4, 30.0, "global", 0.0,
                               np.full((5, 4, 4), 0.5)), frames)
    blob = frames.read_bytes()
    starts = [m.start() for m in re.finditer(b"P5", blob)] + [len(blob)]
    return frames, [blob[a:b] for a, b in zip(starts, starts[1:])]


def _truncated_frame(tmp_path):
    frames, images = _frame_images(tmp_path)
    frames.write_bytes(b"".join(images[:3]) + images[3][:-7])
    return (["extract-venf", "--frames", str(frames)],
            f"{frames}: image 3: truncated raster: 9 of 16 bytes")


def _frame_gap(tmp_path):
    # an image lost from the middle of the file is caught by the count
    frames, images = _frame_images(tmp_path)
    frames.write_bytes(b"".join(images[:2] + images[3:]))
    return (["extract-venf", "--frames", str(frames)],
            f"{frames}: image 0: count: 5, but 4 images")


def _odd_frame_size(tmp_path):
    frames, images = _frame_images(tmp_path)
    images[1] = b"P5\n3 4\n255\n" + bytes(12)
    frames.write_bytes(b"".join(images))
    return (["extract-venf", "--frames", str(frames)],
            f"{frames}: image 1: 3x4 frame, expected 4x4")


def _non_utf8_events(tmp_path):
    events = tmp_path / "e.csv"
    events.write_bytes(b"# width=4,height=4\nt_s,x,y,p\n0.2,1\xff,1,1\n")
    return (["extract-eenf", "--events", str(events)],
            f"{events}: line 3: byte 0xff is not utf-8")


def _non_utf8_reference(tmp_path):
    signal = tmp_path / "mains.csv"
    signal.write_bytes(b"# sample_rate=800\nv\n0.1\n0.2\xff\n")
    return (["reference", "--signal", str(signal)],
            f"{signal}: line 4: byte 0xff is not utf-8")


def _header_only_events(tmp_path):
    events = tmp_path / "e.csv"
    events.write_text("t_s,x,y,p\n")
    return (["extract-eenf", "--events", str(events)],
            f"{events}: empty stream: nothing to sample")


def _no_header_events(tmp_path):
    events = tmp_path / "e.csv"
    events.write_text("# width=4,height=4\n")
    return (["extract-eenf", "--events", str(events)],
            f"{events}: missing header t_s,x,y,p")


def _malformed_dims(tmp_path):
    # read as the dimensions, not skipped as a note, so the failure names it
    events = tmp_path / "e.csv"
    events.write_text("# width=abc,height=4\nt_s,x,y,p\n0.1,0,0,1\n")
    return (["extract-eenf", "--events", str(events)],
            f"{events}: malformed sensor dimensions '# width=abc,height=4'")


def _short_stream(tmp_path):
    events = tmp_path / "e.csv"
    t = np.linspace(0.0, 5.0, 1000)
    write_events_csv(EventStream(1, 1, t, np.zeros(1000, dtype=np.int64),
                                 np.zeros(1000, dtype=np.int64),
                                 np.where(np.arange(1000) % 2, 1, -1)),
                     events)
    return (["extract-eenf", "--events", str(events)],
            f"{events}: signal of 5001 samples shorter than the analysis "
            "window of 16000: [stft] window_s sets its length")


def _narrow_band(tmp_path):
    # one window of votes, tracked in a band of +/- 0.002 Hz around 100 Hz
    events, cfg = tmp_path / "e.csv", tmp_path / "narrow.cfg"
    t = 0.001 * np.arange(16_000)
    write_events_csv(EventStream(1, 1, t, np.zeros(len(t), dtype=np.int64),
                                 np.zeros(len(t), dtype=np.int64),
                                 np.where(np.arange(len(t)) % 2, 1, -1)),
                     events)
    cfg.write_text("[stft]\nsearch_halfwidth_hz = 0.001\n")
    return (["extract-eenf", "--events", str(events), "--config", str(cfg)],
            f"{events}: search band 99.998 to 100.002 Hz narrower than one "
            "frequency bin: [stft] search_halfwidth_hz sets its width")


def _two_frames_global_mean(tmp_path):
    frames = tmp_path / "frames.pgm"
    write_frames(FrameSequence(4, 4, 30.0, "global", 0.0,
                               np.full((2, 4, 4), 0.5)), frames)
    return (["extract-venf", "--frames", str(frames), "--mode", "global_mean"],
            f"{frames}: signal of 2 samples shorter than the analysis window "
            "of 480: [stft] window_s sets its length")


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
    return argv, (f"{signal}: signal of 2 samples shorter than the analysis "
                  "window of 12800: [stft] window_s sets its length")


def _flag(argv, flag, value, kind):
    return argv, (f"command-line error: argument {flag}: invalid {kind} "
                  f"value: {value!r}")


def _refused_flag(argv, flag, words):
    # a value that parses but is refused keeps the refusal's own words
    return argv, f"command-line error: argument {flag}: {words}"


def _inf_duration(tmp_path):
    return _refused_flag(["evaluate", "--duration", "inf"], "--duration",
                         "not finite: 'inf'")


def _nan_duration(tmp_path):
    return _refused_flag(["evaluate", "--duration", "nan"], "--duration",
                         "not finite: 'nan'")


def _nan_delta_t(tmp_path):
    return _refused_flag(["extract-eenf", "--events", "e.csv", "--delta-t",
                          "nan"], "--delta-t", "not finite: 'nan'")


def _seeds_not_ints(tmp_path):
    return _flag(["evaluate", "--seeds", "a,b"], "--seeds", "a,b",
                 "seed list")


def _negative_seed(tmp_path):
    return _refused_flag(["evaluate", "--seeds", "-1"], "--seeds",
                         "negative seed '-1'")


def _negative_seed_joined(tmp_path):
    return _refused_flag(["evaluate", "--seeds=-1"], "--seeds",
                         "negative seed '-1'")


def _no_seeds(tmp_path):
    return _refused_flag(["evaluate", "--seeds", ","], "--seeds", "no seeds")


def _negative_simulate_seed(tmp_path):
    return _refused_flag(["simulate", "--duration", "1", "--seed", "-1",
                          "--out-events", "e.csv", "--out-truth", "t.csv"],
                         "--seed", "negative seed '-1'")


@pytest.mark.parametrize("make_input", [
    _truncated_frame, _frame_gap, _odd_frame_size,
    _header_only_events, _no_header_events, _non_utf8_events,
    _non_utf8_reference, _malformed_dims, _short_stream, _narrow_band,
    _two_frames_global_mean, _nan_trace, _nan_rate, _inf_rate,
    _malformed_rate, _short_reference, _inf_duration, _nan_duration,
    _nan_delta_t, _seeds_not_ints, _negative_seed, _negative_seed_joined,
    _no_seeds, _negative_simulate_seed])
def test_bad_input_file_is_one_stderr_line(tmp_path, make_input):
    argv, message = make_input(tmp_path)
    if argv[0] != "simulate":       # simulate names each output itself
        argv += ["--out", str(tmp_path / "o.csv")]
    proc = _run_cli(argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR evenf: {message}"]


# Mutations of well-formed inputs, each sure to break its file: a partial
# line (CSV) or any cut (frames), a value made non-finite, a field dropped,
# a header permuted, a byte that is not UTF-8, a frame deleted or resized.

def _csv_lines(blob, draw):
    """The file's lines and the index of a data line drawn from all but
    the last."""
    lines = blob.splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    return lines, draw(st.integers(head + 1, len(lines) - 2))


def _cut_line(blob, draw):
    # strictly inside a line that is not the last: an event row loses part
    # of a field, the reference (one window long) at least its last sample
    lines, j = _csv_lines(blob, draw)
    keep = draw(st.integers(1, len(lines[j].rstrip()) - 1))
    return b"".join(lines[:j]) + lines[j][:keep]


def _edit_field(blob, draw, value):
    lines, j = _csv_lines(blob, draw)
    fields = lines[j].rstrip().split(b",")
    i = draw(st.integers(0, len(fields) - 1))
    fields[i:i + 1] = [] if value is None else [value]
    lines[j] = b",".join(fields) + b"\n"
    return b"".join(lines)


def _permute_header(blob, draw):
    header = b"t_s,x,y,p"
    order = draw(st.permutations(header.split(b",")).filter(
        lambda fields: b",".join(fields) != header))
    return blob.replace(header, b",".join(order), 1)


def _non_utf8(blob, draw):
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at:]


def _pgm_images(blob):
    """The images of a frame file as write_frames lays them out."""
    first = blob.index(b"\n255\n") + 5
    w, h = map(int, blob[:first].split(b"\n")[-3].split())
    size = len(b"P5\n%d %d\n255\n" % (w, h)) + w * h
    return [blob[:first + w * h]] + [
        blob[k:k + size] for k in range(first + w * h, len(blob), size)], w, h


def _frame_meta(blob, draw, value):
    meta = re.search(rb"# evenf (.*)\n", blob)
    items = meta[1].split(b" ")
    if value is None:
        del items[draw(st.integers(0, len(items) - 1))]
    else:
        key = draw(st.sampled_from([b"fps", b"row_readout_s"]))
        items = [key + b"=" + value if item.startswith(key + b"=") else item
                 for item in items]
    return blob[:meta.start(1)] + b" ".join(items) + blob[meta.end(1):]


def _frame_edit(blob, draw, resize):
    images, w, h = _pgm_images(blob)
    k = draw(st.integers(1, len(images) - 1))
    dw, dh = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    resized = (b"P5\n%d %d\n255\n" % (w + dw, h + dh)
               + bytes((w + dw) * (h + dh)))
    images[k:k + 1] = [resized] if resize else []
    return b"".join(images)


_NON_FINITE = st.sampled_from([b"nan", b"inf", b"-inf"])
_CSV_MUTATIONS = {
    "truncate": _cut_line,
    "non-finite": lambda b, draw: _edit_field(b, draw, draw(_NON_FINITE)),
    "drop a field": lambda b, draw: _edit_field(b, draw, None),
    "non-utf-8": _non_utf8}
_MUTATIONS = {
    "extract-eenf": {**_CSV_MUTATIONS, "permute the header": _permute_header},
    "reference": _CSV_MUTATIONS,
    "extract-venf": {
        "truncate": lambda b, draw: b[:draw(st.integers(0, len(b) - 1))],
        "non-finite": lambda b, draw: _frame_meta(b, draw, draw(_NON_FINITE)),
        "drop a field": lambda b, draw: _frame_meta(b, draw, None),
        "non-utf-8": _non_utf8,
        "delete a frame": lambda b, draw: _frame_edit(b, draw, False),
        "resize a frame": lambda b, draw: _frame_edit(b, draw, True)}}


@pytest.fixture(scope="module")
def wellformed(tmp_path_factory):
    """The input flag and bytes of an input each command takes with exit
    0: one pixel's events and the frames of a 17 s simulate, and a mains
    recording exactly one analysis window long."""
    d = tmp_path_factory.mktemp("wellformed")
    (d / "one-pixel.cfg").write_text("[sensor]\nwidth = 1\nheight = 1\n")
    assert main(["simulate", "--duration", "17", "--config",
                 str(d / "one-pixel.cfg"), "--out-events", str(d / "e.csv"),
                 "--out-truth", str(d / "t.csv"),
                 "--out-frames", str(d / "f.pgm")]) == 0
    _loop_write_reference(ReferenceSignal(800.0, np.sin(
        2 * np.pi * 50.01 * np.arange(12_800) / 800.0)), d / "m.csv")
    inputs = {"extract-eenf": ("--events", d / "e.csv"),
              "extract-venf": ("--frames", d / "f.pgm"),
              "reference": ("--signal", d / "m.csv")}
    for command, (flag, path) in inputs.items():
        assert main([command, flag, str(path), "--out", str(d / "o.csv")]) == 0
    return {command: (flag, path.read_bytes())
            for command, (flag, path) in inputs.items()}


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_is_one_error_naming_the_file(wellformed, caplog, data):
    command = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="command")
    name = data.draw(st.sampled_from(sorted(_MUTATIONS[command])),
                     label="mutation")
    flag, blob = wellformed[command]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "input", Path(tmp) / "out.csv"
        src.write_bytes(_MUTATIONS[command][name](blob, data.draw))
        caplog.clear()
        code = main(["--log-level", "ERROR", command, flag, str(src),
                     "--out", str(out)])
        # the records stderr shows at --log-level ERROR
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert code in (1, 3)
        assert len(errors) == 1 and str(src) in errors[0], errors
        assert not out.exists()


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
    # an old frame directory where the frame file goes: the frame file is
    # renamed into place first and fails, so the event file keeps its old
    # bytes, the truth file is not made, and no temporary file is left
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "manifest.txt").write_text("count=59\n")
    (tmp_path / "e.csv").write_text("old events\n")
    assert main(["--log-level", "ERROR", "simulate", "--duration", "2",
                 "--out-events", str(tmp_path / "e.csv"),
                 "--out-truth", str(tmp_path / "t.csv"),
                 "--out-frames", str(tmp_path / "f")]) == 3
    assert _error_lines(caplog) == [
        "ERROR evenf: I/O failure: [Errno 21] Is a directory: "
        f"{str(tmp_path / 'f')!r}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "f"]
    assert (tmp_path / "e.csv").read_text() == "old events\n"
    assert [p.name for p in (tmp_path / "f").iterdir()] == ["manifest.txt"]


def test_old_frame_directory_is_one_stderr_line(tmp_path):
    # --frames names one file; a directory of the old layout is refused
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "manifest.txt").write_text("fps=30\nshutter=global\n")
    (frames / "frame_000000.pgm").write_bytes(b"P5\n1 1\n255\n\0")
    proc = _run_cli(["extract-venf", "--frames", str(frames), "--out",
                     str(tmp_path / "v.csv")])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"ERROR evenf: I/O failure: [Errno 21] Is a directory: {str(frames)!r}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frames"]


def test_frame_file_replaces_a_longer_one(tmp_path):
    # a 2 s simulate over the frame file of a 4 s one writes the same
    # bytes as into a fresh path
    for duration, name in (("4", "f"), ("2", "f"), ("2", "fresh")):
        assert main(["--log-level", "ERROR", "simulate", "--duration",
                     duration, "--out-events", str(tmp_path / "e.csv"),
                     "--out-truth", str(tmp_path / "t.csv"),
                     "--out-frames", str(tmp_path / name)]) == 0
    assert len(read_frames(tmp_path / "f")) == 59
    assert filecmp.cmp(tmp_path / "f", tmp_path / "fresh", shallow=False)


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


# the crossing grid, the ladder's events and the frame stack of a 20 s
# simulate, each far beyond any machine's memory
_BIG_CONFIGS = {"grid.cfg": "[sensor]\nsim_step = 1e-9\n",
                "ladder.cfg": "[sensor]\nthreshold_c = 1e-9\n",
                "frames.cfg": "[frames]\nshutter = global\nexposure = 0\n"
                              "fps = 1e7\n"}


def _simulate_20(cfg):
    return ["simulate", "--duration", "20", "--config", cfg, "--out-events",
            "e.csv", "--out-truth", "t.csv", "--out-frames", "f"]


@pytest.mark.parametrize("argv, pattern", [
    (["extract-eenf", "--events", "two.csv", "--delta-t", "1e-9",
      "--out", "o.csv"],
     r"delta_t = 1e-09 s over 100 s: 100000000002 sampling "
     r"moments"),
    (["simulate", "--duration", "1e9", "--out-events", "e.csv",
      "--out-truth", "t.csv"],
     r"duration = 1e\+09 s at step 0\.01 s: 100000000001 ENF samples"),
    (_simulate_20("grid.cfg"),
     r"sim_step = 1e-09 s over 20 s: 20000000001 grid steps"),
    (_simulate_20("ladder.cfg"), r"threshold_c = 1e-09: \d+ ladder events"),
    (_simulate_20("frames.cfg"),
     r"fps = 1e\+07 over 20 s: 200000001 frames of 32x32")])
def test_size_beyond_memory_is_one_stderr_line(tmp_path, monkeypatch, argv,
                                               pattern):
    # the size check names the flag or key and the GiB before the
    # allocation, which would otherwise end as "out of memory" under the
    # 3 GiB cap
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    inputs = {"two.csv": "t_s,x,y,p\n0.0,0,0,1\n100.0,0,0,-1\n",
              **_BIG_CONFIGS}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    proc = _run_cli(argv, cwd=tmp_path, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(rf"ERROR evenf: {pattern} need [\d.e+]+ GiB, more "
                        r"than the [\d.]+ GiB of physical memory", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


def test_narrow_frame_stack_beyond_memory_is_one_stderr_line(tmp_path,
                                                            monkeypatch):
    # 1x1 frames at 12 bytes a pixel would fit in physical memory, but
    # their per-row arrays do not: the frame count is set from the
    # machine's memory so that only a check counting rows refuses it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    fps = phys / 40 / 20
    (tmp_path / "narrow.cfg").write_text(
        "[frames]\nwidth = 1\nheight = 1\nshutter = global\nexposure = 0\n"
        f"fps = {fps!r}\n")
    proc = _run_cli(_simulate_20("narrow.cfg"), cwd=tmp_path,
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"ERROR evenf: fps = [\d.e+]+ over 20 s: \d+ frames "
                        r"of 1x1 need [\d.e+]+ GiB, more than the [\d.]+ GiB "
                        r"of physical memory", line), line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["narrow.cfg"]


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


def test_window_refusal_names_the_config_not_the_events_file(tmp_path):
    ev, _, _ = _simulate(tmp_path, frames=False, duration=3.0)
    cfg = tmp_path / "hop.cfg"
    cfg.write_text("[stft]\nwindow_s = 2\nhop_s = 1e-6\n")
    proc = _run_cli(["extract-eenf", "--events", str(ev), "--config",
                     str(cfg), "--out", str(tmp_path / "o.csv")])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "ERROR evenf: window_s = 2 s, hop_s = 1e-06 s at 1000 Hz: analysis "
        "window of 2000 samples, hop of 0: need at least 2 and 1"]


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
    # the ideal pixel has no dead time, and the frames no read noise
    ("[sensor]\nrefractory = 0.002\n", "[sensor] refractory: unknown key"),
    ("[frames]\nnoise_std = 0.05\n", "[frames] noise_std: unknown key"),
    # what sets the three scenes apart is fixed, not configured
    ("[scenario]\nmotion_rate_factor = 1.0\n",
     "[scenario] motion_rate_factor: unknown key"),
    ("[scenario]\ntexture_low = 0.25\n", "[scenario] texture_low: unknown key"),
    ("[scenario]\ntexture_high = 0.85\n",
     "[scenario] texture_high: unknown key"),
    ("[scenario]\nextreme_texture_scale = 6.0\n",
     "[scenario] extreme_texture_scale: unknown key"),
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
# non-finite floats and the eight removed keys
@pytest.mark.parametrize("text,message", [_CONFIG_ERRORS[i] for i in (
    0, 2, 5, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21)])
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
    assert ev.exists() and tr.exists() and fr.is_file()

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
    caplog.clear()      # the simulate call logs at the default INFO
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
    seq = read_frames(fr)
    assert (seq.width, seq.height, seq.shutter) == (8, 8, "global")


def _file_settable(cls) -> set[str]:
    return {name for name, hint in typing.get_type_hints(cls).items()
            if hint in cli._CONVERTERS}


def test_default_cfg_restates_the_dataclass_defaults():
    assert cli._load_config(argparse.Namespace(config=CFG)) == ScenarioConfig()
    # one key for every field a file can set, and no other
    default = ScenarioConfig()
    classes = {f.name: type(getattr(default, f.name))
               for f in dataclasses.fields(default)
               if dataclasses.is_dataclass(getattr(default, f.name))}
    assert classes["contamination"] is ContaminationConfig
    classes.update(scenario=ScenarioConfig)
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
                 "truth.csv", "frames"):
        assert (bare / name).read_bytes() == (cfg / name).read_bytes(), name


def test_evaluate_config_contamination_reaches_every_scene(tmp_path):
    # noise reaches the events of all three scenes, the dynamic one too,
    # which sets only its own pair rate; the frames never see it
    cfg = tmp_path / "n.cfg"
    cfg.write_text("[contamination]\nnoise_rate = 5\n")
    rows = []
    for run, extra in (("bare", []), ("noisy", ["--config", str(cfg)])):
        assert main(["evaluate", "--scenario", "all", "--seeds", "1",
                     "--duration", "32", "--out", str(tmp_path / run),
                     *extra]) == 0
        rows.append((tmp_path / run / "detail.csv").read_text().splitlines())
    bare, noisy = rows
    assert bare[0] == noisy[0] and len(bare) == len(noisy) == 7
    for b, n in zip(bare[1:], noisy[1:]):
        assert b.split(",")[:3] == n.split(",")[:3]
        assert (b == n) == (b.split(",")[1] == "venf"), (b, n)


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
        dataclasses.replace(ScenarioConfig(),
                            contamination=ContaminationConfig(**rates)),
        "static", 5.0, 3, frames=frames)
    write_events_csv(events, lib_out / "e.csv")
    write_trace_csv(truth, lib_out / "t.csv")
    if frames:
        write_frames(seq, lib_out / "f")
    assert _tree(cli_out) == _tree(lib_out)
    assert ("f" in _tree(cli_out)) == frames


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
