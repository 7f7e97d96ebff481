"""CSV / PGM round trips and the mains-reference tracker."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evenf import ingest, simulate
from evenf.core import EnfTrace, EventStream, GridConfig
from evenf.eenf import StftConfig
from evenf.ingest import (ReferenceSignal, _parse_rows, read_events_csv,
                          read_frames, read_reference_csv, read_trace_csv,
                          reference_enf, write_events_csv, write_frames,
                          write_trace_csv)
from evenf.simulate import (ContaminationConfig, EnfProcessConfig,
                            FrameConfig, FrameSequence, IlluminationModel,
                            SensorConfig, illumination_crossings,
                            simulate_events, simulate_frames, synthesize_enf)
from test_csv_reference import _loop_write_reference

GRID = GridConfig(50.0)


def _sim_stream(duration=0.5, contaminated=False):
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID, duration,
                         0.01)
    cont = (ContaminationConfig(motion_pair_rate=200.0)
            if contaminated else ContaminationConfig())
    sensor = SensorConfig(width=3, height=2)
    crossings = illumination_crossings(sensor, IlluminationModel(phase=0.3),
                                       enf)
    return simulate_events(sensor, crossings, enf, cont, seed=8)


# ------------------------------------------------------------------- events

def test_events_round_trip(tmp_path):
    stream = _sim_stream(contaminated=True)
    path = tmp_path / "ev.csv"
    write_events_csv(stream, path)
    back = read_events_csv(path)
    assert back.sensor_width == 3 and back.sensor_height == 2
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.p, stream.p)
    # timestamps survive at the written (nanosecond) precision
    assert np.max(np.abs(back.t - stream.t)) < 5e-10
    # a second pass through the format is byte-stable
    path2 = tmp_path / "ev2.csv"
    write_events_csv(back, path2)
    roundtripped = read_events_csv(path2)
    assert roundtripped == back


def test_events_ties_preserve_order(tmp_path):
    stream = EventStream(4, 4, [0.001, 0.001, 0.001], [0, 1, 2],
                         [0, 0, 0], [1, -1, 1])
    path = tmp_path / "tie.csv"
    write_events_csv(stream, path)
    back = read_events_csv(path)
    assert list(back.x) == [0, 1, 2]
    assert list(back.p) == [1, -1, 1]


def test_events_empty_stream_round_trip(tmp_path):
    stream = EventStream(4, 4, [], [], [], [])
    path = tmp_path / "empty.csv"
    write_events_csv(stream, path)
    assert read_events_csv(path) == stream


def test_events_zero_polarity_maps_to_negative(tmp_path):
    path = tmp_path / "unsigned.csv"
    path.write_text("t_s,x,y,p\n0.001,0,0,1\n0.002,1,0,0\n")
    back = read_events_csv(path)
    assert list(back.p) == [1, -1]


def test_events_unsorted_file_is_sorted(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("t_s,x,y,p\n0.002,0,0,1\n0.001,1,0,0\n")
    back = read_events_csv(path)
    assert list(back.t) == [0.001, 0.002]
    assert list(back.p) == [-1, 1]
    # rows tied in time keep their file order
    path.write_text("t_s,x,y,p\n0.002,3,0,1\n0.001,1,0,1\n0.001,2,0,-1\n")
    back = read_events_csv(path)
    assert list(back.t) == [0.001, 0.001, 0.002]
    assert list(back.x) == [1, 2, 3] and list(back.p) == [1, -1, 1]


def _write_near_ties(path, seed):
    """2000 rows out of order, with runs of exact ties and of times one ulp
    apart, which share a truncated sort key; their columns, as written."""
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 300, 2000) / 100.0
    t = np.where(rng.integers(0, 3, len(t)) == 0, np.nextafter(t, 9.0), t)
    x, y, p = (rng.integers(0, 8, len(t)), rng.integers(0, 6, len(t)),
               rng.choice([-1, 1], len(t)))
    path.write_text("# width=8,height=6\nt_s,x,y,p\n" + "".join(
        f"{row[0]!r},{row[1]},{row[2]},{row[3]}\n"
        for row in zip(t.tolist(), x, y, p)))
    assert len(np.unique(t)) < len(t) and np.any(t[1:] < t[:-1])
    return t, x, y, p


def test_events_unsorted_file_longer_than_a_sort_chunk(tmp_path, monkeypatch):
    # runs of exact ties and of times one ulp apart cross the edges of
    # sort chunks of 101 rows; rows tied in time keep their file order
    monkeypatch.setattr(simulate, "_SORT_CHUNK", 101)
    path = tmp_path / "unsorted.csv"
    t, x, y, p = _write_near_ties(path, 6)
    back = read_events_csv(path)
    order = np.argsort(t, kind="stable")
    assert back == EventStream(8, 6, t[order], x[order], y[order], p[order])


def test_reading_a_shuffled_file_leaves_numpy_ma_unloaded(tmp_path):
    # a fresh process re-sorts the runs of times one ulp apart without
    # np.unique, whose first call imports numpy.ma (8-17 ms of a cold read)
    path, saved = tmp_path / "unsorted.csv", tmp_path / "back.npz"
    t, x, y, p = _write_near_ties(path, 9)
    script = ("import sys, numpy as np; from evenf import read_events_csv; "
              "s = read_events_csv(sys.argv[1]); "
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; "
              "np.savez(sys.argv[2], t=s.t, x=s.x, y=s.y, p=s.p)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(ingest.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", script, str(path), str(saved)],
                   check=True, env=env, timeout=120)
    back, order = np.load(saved), np.argsort(t, kind="stable")
    for col, want in zip("txyp", (t, x, y, p)):
        assert np.array_equal(back[col], want[order]), col


def test_reading_a_shuffled_file_peaks_no_higher_than_the_parse(tmp_path):
    # the sort replaces each column as it gathers it, so no column is held
    # in both orders: the read of shuffled rows peaks no higher than that
    # of the same rows in order, which is the parse's 2.00x the output
    # (holding the unsorted columns while gathering peaked 2.4x here)
    rng = np.random.default_rng(8)
    n = 300_000
    ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
    write_events_csv(EventStream(32, 32, np.sort(rng.uniform(0.0, 40.0, n)),
                                 rng.integers(0, 32, n), rng.integers(0, 32, n),
                                 rng.choice([-1, 1], n)), ordered)
    lines = ordered.read_text().splitlines(keepends=True)
    shuffled.write_text("".join(lines[:2] + [lines[2 + k]
                                             for k in rng.permutation(n)]))
    read_events_csv(shuffled)   # once untraced: its lazy numpy imports
    peaks = []
    for path in (ordered, shuffled):
        tracemalloc.start()
        try:
            read_events_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 64 KiB for the interpreter's own small allocations; the unsorted
    # columns of 300 000 rows are 5.1 MB
    assert peaks[1] <= peaks[0] + 2**16, peaks


def test_events_dims_comment_overrides_inference(tmp_path):
    path = tmp_path / "dims.csv"
    path.write_text("# width=64,height=48\nt_s,x,y,p\n0.001,0,0,1\n")
    back = read_events_csv(path)
    assert back.sensor_width == 64 and back.sensor_height == 48


@pytest.mark.parametrize("tail", [" DAVIS346", ",fps=30"])
def test_events_dims_comment_may_go_on_after_the_pair(tmp_path, tail):
    path = tmp_path / "dims.csv"
    path.write_text(f"# width=346,height=260{tail}\nt_s,x,y,p\n0.001,0,0,1\n")
    back = read_events_csv(path)
    assert (back.sensor_width, back.sensor_height) == (346, 260)


def test_events_malformed_rows_fail_with_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,x,y,p\n0.001,0,0,1\n0.5,10,abc,1\n")
    with pytest.raises(ValueError, match="line 3: unparsable y"):
        read_events_csv(path)
    path.write_text("t_s,x,y,p\nnope,0,0,1\n")
    with pytest.raises(ValueError, match="line 2: unparsable t_s"):
        read_events_csv(path)
    path.write_text("t_s,x,y,p\n0.001,0,0\n")
    with pytest.raises(ValueError, match="line 2: expected 4 fields"):
        read_events_csv(path)
    path.write_text("x,y\n")
    with pytest.raises(ValueError, match="expected header"):
        read_events_csv(path)
    path.write_text("t_s,x,y,p\n0.001,0,0,7\n")
    with pytest.raises(ValueError, match="polarity"):
        read_events_csv(path)


@pytest.mark.parametrize("row,message", [
    ("0.1,3.0,1,1", "line 3: unparsable x '3.0'"),
    ("0.1,3,1,1 # c", "line 3: unparsable polarity '1 # c'"),
    ("0.1,3,1,2", "line 3: polarity must be one of -1, 0, 1"),
    ("0.1,3,1,1,", "line 3: expected 4 fields, got 5"),
    # accepted by the row-at-a-time reader (Python numeral syntax)
    ("1_0.5,3,1,1", "line 3: unparsable t_s '1_0.5'"),
    ("0.1,1_0,1,1", "line 3: unparsable x '1_0'"),
    ("0.1,٣,1,1", "line 3: unparsable x '٣'"),
    # raised OverflowError in the row-at-a-time reader
    ("0.1,99999999999999999999,1,1",
     "line 3: unparsable x '99999999999999999999'"),
    # too wide for the int32 and int8 columns: named by the line scan in
    # the words EventStream and the range check use
    ("0.1,2147483648,1,1", "line 3: event coordinates outside sensor bounds"),
    ("0.1,4294967297,1,1", "line 3: event coordinates outside sensor bounds"),
    ("0.1,3,-2147483649,1", "line 3: event coordinates outside sensor bounds"),
    ("0.1,3,1,128", "line 3: polarity must be one of -1, 0, 1"),
    ("0.1,3,1,-129", "line 3: polarity must be one of -1, 0, 1"),
    # raised by EventStream, which knows no line numbers
    ("0.1,5,0,1", "event coordinates outside sensor bounds"),
    ("nan,0,0,1", "event timestamps must be finite and non-decreasing"),
])
def test_events_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"# width=4,height=4\nt_s,x,y,p\n{row}\n0.2,0,0,1\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_events_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_events_comments_after_header_are_skipped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# width=4,height=4\nt_s,x,y,p\n0.1,1,1,1\n\n   \n"
                    "# width=9,height=8\n0.2,2,2,0\n")
    back = read_events_csv(path)
    # the last dims comment wins, wherever it appears
    assert (back.sensor_width, back.sensor_height) == (9, 8)
    assert list(back.x) == [1, 2] and list(back.p) == [1, -1]


def test_events_comment_lines_after_header_skip_the_line_scan(tmp_path,
                                                              monkeypatch):
    stream = _sim_stream(contaminated=True)
    plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
    write_events_csv(stream, plain)
    head, rows = plain.read_text().split("t_s,x,y,p\n")
    rows = rows.splitlines(keepends=True)
    scanned = []
    monkeypatch.setattr(ingest, "_parse_rows",
                        lambda *a: scanned.append(a) or _parse_rows(*a))
    want = read_events_csv(plain)
    # a line of blanks, or an indented '#' line, is skipped like a '#' one
    for blank, indented in [("", ""), ("   \n", ""), ("", "  # b\n"),
                            (" \t\n\n", "\t# b\n")]:
        noted.write_text(head + "t_s,x,y,p\n" + blank + "# a note\n"
                         + "".join(rows[:7]) + "#\n" + indented
                         + "".join(rows[7:]) + blank + "# width=5,height=6")
        comments, _ = ingest._read_csv(noted, "t_s,x,y,p", ingest._EVENT_DTYPE)
        back = read_events_csv(noted)
        assert scanned == []
        assert comments == ["# width=3,height=2", "# a note", "#"] + [
            "# b"] * bool(indented) + ["# width=5,height=6"]
        # the last dims comment wins; the events are the plain file's
        assert (back.sensor_width, back.sensor_height) == (5, 6)
        assert back == EventStream(5, 6, want.t, want.x, want.y, want.p)


@pytest.mark.parametrize("body, message", [
    ("# a note\n0.1,0,0,1\n0.2,3.0,0,1\n", "line 4: unparsable x '3.0'"),
    ("# a\n0.1,0,0,1\n  # b\n\n0.2,0,0,5\n# c\n",
     "line 6: polarity must be one of -1, 0, 1"),
    ("0.1,0,0,1\n# a\n0.2,0,0,1 # b\n", "line 4: unparsable polarity "
     "'1 # b'")])
def test_events_bad_row_after_a_comment_names_its_line(tmp_path, body,
                                                        message):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,x,y,p\n" + body)
    with pytest.raises(ValueError) as err:
        read_events_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_events_wide_coordinate_is_not_wrapped(tmp_path):
    # 4294967297 = 2**32 + 1 used to be read as pixel x=1
    path = tmp_path / "wide.csv"
    path.write_text("# width=4,height=4\nt_s,x,y,p\n0.1,4294967297,1,1\n")
    with pytest.raises(ValueError, match="outside sensor"):
        read_events_csv(path)


def test_events_read_at_the_widths_the_stream_stores(tmp_path):
    # the widest x and y a sensor admits fit the int32 columns
    path = tmp_path / "wide.csv"
    for dims, row, xy in [("width=2147483647,height=1", "2147483646,0",
                           (2**31 - 2, 0)),
                          ("width=1,height=2147483647", "0,2147483646",
                           (0, 2**31 - 2))]:
        path.write_text(f"# {dims}\nt_s,x,y,p\n0.1,{row},1\n0.2,{row},0\n")
        back = read_events_csv(path)
        assert (back.x[0], back.y[0]) == xy and list(back.p) == [1, -1]
        assert [a.dtype for a in (back.t, back.x, back.y, back.p)] == [
            np.float64, np.int32, np.int32, np.int8]


@pytest.mark.parametrize("nan", ["nan", "-nan"])
def test_events_unsorted_with_nan_names_the_file(tmp_path, nan):
    # 0.1 after 0.5 takes the sort, which must not hide the NaN
    path = tmp_path / "nan.csv"
    path.write_text(f"t_s,x,y,p\n0.5,1,1,1\n0.1,1,1,1\n{nan},1,1,1\n"
                    "0.2,1,1,-1\n")
    with pytest.raises(ValueError) as err:
        read_events_csv(path)
    assert str(err.value) == (f"{path}: event timestamps must be finite and "
                              "non-decreasing")


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_events_nonfinite_timestamp_rejected(tmp_path, t):
    path = tmp_path / "nan.csv"
    path.write_text(f"t_s,x,y,p\n0.0,1,1,1\n{t},1,1,1\n")
    with pytest.raises(ValueError, match="finite"):
        read_events_csv(path)


# ------------------------------------------------------------------- traces

def test_trace_round_trip(tmp_path):
    trace = EnfTrace(8.0, 1.0, 50.0 + 0.001 * np.arange(30.0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, comments=["origin=unit-test"])
    back = read_trace_csv(path)
    assert back.t0 == trace.t0
    assert back.step == pytest.approx(trace.step, abs=1e-9)
    assert np.max(np.abs(back.values - trace.values)) < 5e-7
    assert "# origin=unit-test" in path.read_text()


def test_trace_single_sample(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t_s,f_hz\n8.0,50.01\n")
    back = read_trace_csv(path)
    assert len(back) == 1 and back.values[0] == 50.01


def test_trace_rejects_nonuniform_sampling(tmp_path):
    path = tmp_path / "warped.csv"
    path.write_text("t_s,f_hz\n0.0,50.0\n1.0,50.0\n3.0,50.0\n")
    with pytest.raises(ValueError, match="not uniform"):
        read_trace_csv(path)


def test_trace_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,f_hz\n0.0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trace_csv(path)
    path.write_text("t_s,f_hz\n")
    with pytest.raises(ValueError, match="no samples"):
        read_trace_csv(path)


def test_trace_nonfinite_timestamp_is_not_uniform(tmp_path):
    # NaN made the uniformity test compare false, so it used to pass
    path = tmp_path / "nan.csv"
    path.write_text("t_s,f_hz\n0.0,50.0\nnan,50.0\n2.0,50.0\n")
    with pytest.raises(ValueError, match="not uniform"):
        read_trace_csv(path)


# a byte that is not UTF-8: the line of the first one, counted in the file
_LONG_BODY = b"".join(b"%.9f,1,1,1\n" % (k / 1000) for k in range(3000))


@pytest.mark.parametrize("reader, blob, line, byte", [
    (read_events_csv, b"# width=4,height=4\nt_s,x,y,p\n0.2,1\xff,1,1\n", 3, 0xff),
    (read_events_csv, b"t_s,x,y,p\n" + _LONG_BODY + b"9.0,\xc3(,1,1\n"
     + _LONG_BODY, 3002, 0xc3),
    (read_events_csv, b"# width=\xe9\nt_s,x,y,p\n0.2,1,1,1\n", 1, 0xe9),
    (read_trace_csv, b"t_s,f_hz\n0.0,50.0\n1.0,\xe950.0\n", 3, 0xe9),
    (read_reference_csv, b"# sample_rate=1000\nv\n0.1\n\x80\n", 4, 0x80)],
    ids=["events", "events deep", "events comment", "trace", "reference"])
def test_byte_that_is_not_utf8_names_file_and_line(tmp_path, reader, blob,
                                                   line, byte):
    path = tmp_path / "in.csv"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as err:
        reader(path)
    assert str(err.value) == f"{path}: line {line}: byte {byte:#04x} is not utf-8"


# ---------------------------------------------------------------- reference

def test_reference_round_trip(tmp_path):
    sig = ReferenceSignal(1000.0, np.sin(np.arange(100) * 0.3))
    path = tmp_path / "ref.csv"
    _loop_write_reference(sig, path)
    back = read_reference_csv(path)
    assert back.sample_rate == 1000.0
    assert np.max(np.abs(back.samples - sig.samples)) < 5e-10


def test_reference_requires_rate_comment(tmp_path):
    path = tmp_path / "norate.csv"
    path.write_text("v\n0.1\n0.2\n")
    with pytest.raises(ValueError, match="sample_rate"):
        read_reference_csv(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reference_rejects_nonfinite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        ReferenceSignal(1000.0, [0.1, bad, 0.2])


def test_reference_csv_with_nan_names_the_file(tmp_path):
    # one nan used to yield a trace pinned at the search-band edge
    path = tmp_path / "ref.csv"
    path.write_text("# sample_rate=1000\nv\n0.1\nnan\n0.2\n")
    with pytest.raises(ValueError) as err:
        read_reference_csv(path)
    assert str(err.value) == f"{path}: reference samples must be finite"


def test_reference_requires_one_header_line(tmp_path):
    # the row-at-a-time reader took a missing or repeated "v" line
    path = tmp_path / "ref.csv"
    path.write_text("# sample_rate=1000\n0.1\n0.2\n")
    with pytest.raises(ValueError, match="line 2: expected header v"):
        read_reference_csv(path)
    path.write_text("# sample_rate=1000\nv\n0.1\nv\n0.2\n")
    with pytest.raises(ValueError, match="line 4: unparsable v 'v'"):
        read_reference_csv(path)


def _tone(freq, fs=1000.0, duration=20.0, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return ReferenceSignal(fs, np.cos(2 * np.pi * freq * t + phase))


def test_reference_enf_offset_tone():
    trace = reference_enf(_tone(50.02, phase=0.7), StftConfig(), GRID)
    assert np.max(np.abs(trace.values - 50.02)) < 0.005


def test_reference_enf_nominal_tone():
    trace = reference_enf(_tone(50.0), StftConfig(), GRID)
    assert np.max(np.abs(trace.values - 50.0)) < 1e-3


def test_reference_enf_tracks_slow_chirp():
    fs = 1000.0
    t = np.arange(int(60 * fs)) / fs
    f_inst = 49.98 + 0.04 * t / 60.0
    sig = ReferenceSignal(fs, np.cos(2 * np.pi * np.cumsum(f_inst) / fs))
    trace = reference_enf(sig, StftConfig(), GRID)
    expect = 49.98 + 0.04 * trace.times / 60.0
    assert np.max(np.abs(trace.values - expect)) < 0.005
    assert np.all(np.diff(trace.values) > 0)


def test_reference_enf_trace_length():
    stft = StftConfig(window_s=16.0, hop_s=1.0)
    trace = reference_enf(_tone(50.0, duration=20.0), stft, GRID)
    assert len(trace) == int((20.0 - 16.0) / 1.0) + 1
    assert trace.t0 == pytest.approx(8.0)
    assert trace.step == pytest.approx(1.0)


def test_reference_enf_search_band_is_the_stft_halfwidth():
    # a 50.4 Hz tone lies outside a +/- 0.2 Hz search band
    sig = _tone(50.4)
    wide = reference_enf(sig, StftConfig(), GRID)
    assert np.max(np.abs(wide.values - 50.4)) < 0.005
    narrow = reference_enf(sig, StftConfig(search_halfwidth_hz=0.2), GRID)
    assert np.max(np.abs(narrow.values - 50.0)) <= 0.2 + 1e-9


def test_reference_enf_rejects_low_rate():
    with pytest.raises(ValueError, match="8x"):
        reference_enf(ReferenceSignal(200.0, np.zeros(10)), StftConfig(), GRID)


# ------------------------------------------------------------------- frames

def _sim_frames(duration=0.5):
    enf = synthesize_enf(EnfProcessConfig(deviation_std=0.0), GRID, duration,
                         0.01)
    cfg = FrameConfig(width=6, height=4, fps=30.0, shutter="rolling",
                      row_readout=1.0 / 480.0)
    rng = np.random.default_rng(5)
    tex = rng.uniform(0.3, 0.8, (4, 6))
    return simulate_frames(IlluminationModel(phase=0.3), enf, cfg, tex)


def _frame_file(path, manifest="fps=30\nshutter=global\n",
                images=(b"3 2\n255\n" + bytes(6),)):
    """A frame file of ``images`` (each its header after the magic, and its
    raster) whose first header comment holds the ``key=value`` words of
    ``manifest``, with row_readout_s and count added where it has none."""
    meta = dict(line.split("=", 1) for line in manifest.split())
    meta = {"row_readout_s": "0", "count": str(len(images)), **meta}
    path.write_bytes(b"P5\n# evenf " + " ".join(
        f"{k}={v}" for k, v in meta.items()).encode() + b"\n"
        + b"P5\n".join(images))
    return path


def test_frames_round_trip(tmp_path):
    seq = _sim_frames()
    path = tmp_path / "frames.pgm"
    write_frames(seq, path)
    back = read_frames(path)
    # 8-bit rendering means the raster round trip is lossless; the timing
    # comes back at its written nine-decimal precision
    assert np.array_equal(back.frames, seq.frames)
    assert (back.fps, back.shutter) == (seq.fps, seq.shutter)
    assert back.row_readout == pytest.approx(seq.row_readout, abs=1e-9)
    assert path.read_bytes().startswith(
        b"P5\n# evenf fps=30 shutter=rolling row_readout_s=0.002083333 "
        b"count=%d\n6 4\n255\n" % len(seq))


def test_frame_file_is_the_images_back_to_back(tmp_path):
    # each image exactly as a one-image PGM file of it, the comment alone
    # in the first header
    seq = _sim_frames()
    write_frames(seq, tmp_path / "f.pgm")
    blob = (tmp_path / "f.pgm").read_bytes()
    head, body = blob.split(b"\n", 2)[1], blob.split(b"\n", 2)[2]
    assert head.startswith(b"# evenf ")
    images = b"".join(b"P5\n6 4\n255\n" + np.round(f * 255.0).astype(
        np.uint8).tobytes() for f in seq.frames)
    assert b"P5\n" + body == images


def test_writing_frames_peaks_far_below_the_stack(tmp_path):
    # the rasters are rounded a block at a time, not as one copy
    seq = FrameSequence(32, 32, 30.0, "global", 0.0,
                        np.random.default_rng(2).random((3600, 32, 32)))
    tracemalloc.start()
    try:
        write_frames(seq, tmp_path / "f.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * seq.frames.nbytes
    assert np.array_equal(read_frames(tmp_path / "f.pgm").frames,
                          np.round(seq.frames * 255.0) / 255.0)


def test_pgm_reader_handles_comment_lines(tmp_path):
    raster = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = _frame_file(tmp_path / "f.pgm", images=[
        b"# a stray comment\n3 2\n255\n" + raster.tobytes(),
        b"3 # two\n# more\n2\n255\n" + raster.tobytes()])
    back = read_frames(path)
    assert back.frames.shape == (2, 2, 3)
    assert np.allclose(back.frames, raster / 255.0)


def test_pgm_reader_decodes_16_bit_big_endian(tmp_path):
    raster = np.array([[0, 1, 256], [512, 1000, 1023]], dtype=">u2")
    path = _frame_file(tmp_path / "f.pgm",
                       images=[b"3 2\n1023\n" + raster.tobytes()])
    back = read_frames(path)
    assert np.array_equal(back.frames[0], raster / 1023.0)


@pytest.mark.parametrize("blob,message", [
    (b"P5\n3 2\n255\n\x00\x01", "truncated raster: 2 of 6 bytes"),
    (b"P5\n3 2\n65535\n" + bytes(11), "truncated raster: 11 of 12 bytes"),
    (b"P5\n3 2", "truncated or malformed PGM header"),
    (b"P5\n3 x\n255\n" + bytes(6), "truncated or malformed PGM header"),
    (b"P5\n3 2\n0\n" + bytes(6), "maxval 0 outside 1..65535"),
    (b"P5\n3 2\n65536\n" + bytes(12), "maxval 65536 outside 1..65535")],
    ids=["raster", "16-bit raster", "header", "width", "maxval 0",
         "maxval 65536"])
def test_pgm_reader_errors_name_the_file(tmp_path, blob, message):
    # as the first image, and as the third after two good ones
    path = tmp_path / "f.pgm"
    good = b"3 2\n255\n" + bytes(6)
    for k, images in ((0, [blob[3:]]), (2, [good, good, blob[3:]])):
        _frame_file(path, images=images)
        with pytest.raises(ValueError) as err:
            read_frames(path)
        assert str(err.value) == f"{path}: image {k}: {message}"


@pytest.mark.parametrize("extra,message", [
    (b"P5\n3 2\n255\n" + bytes(6), "image 0: count: 3, but 4 images"),
    (b"\n", "image 3: not a binary PGM"),
    (b"P5\n3 2\n255\n", "image 3: truncated raster: 0 of 6 bytes")],
    ids=["image", "newline", "header"])
def test_read_frames_refuses_bytes_after_the_counted_images(tmp_path, extra,
                                                            message):
    path = _frame_file(tmp_path / "f.pgm", "fps=30 shutter=global count=3",
                       [b"3 2\n255\n" + bytes(6)] * 3)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("count,message", [
    ("count=99", "count: 99, but {n} images"),
    ("count=", "count: invalid int ''"),
    ("count=abc", "count: invalid int 'abc'"),
    ("count=0", "count: 0, but {n} images")],
    ids=["mismatch", "empty", "word", "zero"])
def test_read_frames_count_must_match_the_files(tmp_path, count, message):
    n = len(_sim_frames())
    path = tmp_path / "f.pgm"
    write_frames(_sim_frames(), path)
    path.write_bytes(path.read_bytes().replace(b"count=%d" % n,
                                               count.encode(), 1))
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: image 0: {message.format(n=n)}"


def test_read_frames_last_frame_missing_is_caught_by_count(tmp_path):
    # a file cut where an image begins
    seq = _sim_frames()
    path = tmp_path / "f.pgm"
    write_frames(seq, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:blob.rindex(b"P5\n6 4\n255\n")])
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == (f"{path}: image 0: count: {len(seq)}, "
                              f"but {len(seq) - 1} images")


def test_read_frames_rejects_a_frame_of_another_size(tmp_path):
    # the size changes mid-file
    path = _frame_file(tmp_path / "f.pgm", images=[
        b"6 4\n255\n" + bytes(24)] * 3 + [b"3 2\n255\n" + bytes(6)]
        + [b"6 4\n255\n" + bytes(24)])
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: image 3: 3x2 frame, expected 6x4"


def test_read_frames_follows_a_link_to_a_frame(tmp_path):
    seq = _sim_frames()
    write_frames(seq, tmp_path / "kept.pgm")
    (tmp_path / "f.pgm").symlink_to(tmp_path / "kept.pgm")
    assert np.array_equal(read_frames(tmp_path / "f.pgm").frames, seq.frames)


def test_read_frames_mixed_depths_match_a_per_frame_scaling(tmp_path):
    # 8- and 16-bit images in one file, each scaled by its maxval
    rng = np.random.default_rng(11)
    maxvals = [255, 1023, 7, 65535, 1000, 255]
    rasters = [rng.integers(0, m + 1, (4, 6)).astype(">u2" if m > 255 else "u1")
               for m in maxvals]
    path = _frame_file(tmp_path / "f.pgm", images=[
        b"6 4\n%d\n" % m + r.tobytes() for r, m in zip(rasters, maxvals)])
    want = np.stack([r.astype(np.float64) / float(m)
                     for r, m in zip(rasters, maxvals)])
    got = read_frames(path).frames
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3, 20, 38, 39])
def test_read_frames_one_16_bit_image_among_8_bit_ones(tmp_path, k):
    # the images that repeat a walked header are cut at its stride; the
    # walk takes the 16-bit one up wherever it sits
    rng = np.random.default_rng(k)
    maxvals = [255] * 40
    maxvals[k] = 1023
    rasters = [rng.integers(0, m + 1, (4, 6)).astype(">u2" if m > 255 else "u1")
               for m in maxvals]
    path = _frame_file(tmp_path / "f.pgm", images=[
        b"6 4\n%d\n" % m + r.tobytes() for r, m in zip(rasters, maxvals)])
    want = np.stack([r.astype(np.float64) / float(m)
                     for r, m in zip(rasters, maxvals)])
    got = read_frames(path).frames
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k, forms", [(1, 3), (20, 4), (39, 3)])
def test_read_frames_matches_each_header_form_once(tmp_path, monkeypatch,
                                                   k, forms):
    # the first header, the 8-bit runs and the 16-bit image: one header
    # match each, wherever the 16-bit image sits
    images = [b"6 4\n255\n" + bytes(24)] * 40
    images[k] = b"6 4\n1023\n" + bytes(48)
    path = _frame_file(tmp_path / "f.pgm", images=images)
    matched = []

    class Spy:
        def match(self, blob, pos):
            matched.append(pos)
            return pattern.match(blob, pos)
    pattern = ingest._PGM_HEADER_RE
    monkeypatch.setattr(ingest, "_PGM_HEADER_RE", Spy())
    assert len(read_frames(path)) == 40
    assert len(matched) == forms


@pytest.mark.parametrize("k", [1, 2, 3, 20, 39])
@pytest.mark.parametrize("bad,message", [
    (b"6 x\n255\n" + bytes(24), "truncated or malformed PGM header"),
    (b"6 4\n0\n" + bytes(24), "maxval 0 outside 1..65535")],
    ids=["header", "maxval"])
def test_read_frames_bad_header_at_image_k_is_named(tmp_path, k, bad, message):
    images = [b"6 4\n255\n" + bytes(24)] * 40
    images[k] = bad
    path = _frame_file(tmp_path / "f.pgm", images=images)
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: image {k}: {message}"


def test_read_frames_reads_every_frame_before_comparing_sizes(tmp_path):
    # a bad header in a later image is named before an earlier odd size
    good = b"6 4\n255\n" + bytes(24)
    path = _frame_file(tmp_path / "f.pgm", images=[
        good, b"3 2\n255\n" + bytes(6), good, good, b"3 x\n255\n" + bytes(6)])
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == (f"{path}: image 4: truncated or malformed "
                              "PGM header")


def test_read_frames_requires_files(tmp_path):
    # an empty file holds no image
    (tmp_path / "f.pgm").write_bytes(b"")
    with pytest.raises(ValueError) as err:
        read_frames(tmp_path / "f.pgm")
    assert str(err.value) == f"{tmp_path / 'f.pgm'}: image 0: not a binary PGM"


@pytest.mark.parametrize("manifest,missing", [
    ("shutter=global\n", "fps"), ("fps=30\n", "shutter"), ("", "fps, shutter")])
def test_read_frames_manifest_keys_required(tmp_path, manifest, missing):
    # the manifest is the first header's comment
    path = _frame_file(tmp_path / "f.pgm", manifest)
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: image 0: missing {missing}"


@pytest.mark.parametrize("manifest,message", [
    ("fps=abc\nshutter=global\n", "fps: invalid float 'abc'"),
    ("fps=30\nshutter=global\nrow_readout_s=x\n",
     "row_readout_s: invalid float 'x'")])
def test_read_frames_unparsable_timing_names_manifest_and_key(
        tmp_path, manifest, message):
    path = _frame_file(tmp_path / "f.pgm", manifest)
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == f"{path}: image 0: {message}"


def test_read_frames_header_byte_not_ascii(tmp_path):
    path = _frame_file(tmp_path / "f.pgm", "fps=30 shutter=global note=\xff")
    path.write_bytes(path.read_bytes().replace("\xff".encode(), b"\xff"))
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == (f"{path}: image 0: byte 0xff in the header "
                              "is not ASCII")


def test_read_frames_rejects_unknown_shutter(tmp_path):
    path = _frame_file(tmp_path / "f.pgm", "fps=30 shutter=weird")
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == (f"{path}: image 0: shutter must be 'global' "
                              "or 'rolling'")


@pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
def test_read_frames_rejects_bad_row_readout(tmp_path, value):
    path = _frame_file(tmp_path / "f.pgm",
                       f"fps=30 shutter=rolling row_readout_s={value}")
    with pytest.raises(ValueError) as err:
        read_frames(path)
    assert str(err.value) == (f"{path}: image 0: row_readout must be finite "
                              "and non-negative")


def test_read_frames_missing_manifest(tmp_path):
    # a directory, as the frames once were, is no frame file
    with pytest.raises(IsADirectoryError) as err:
        read_frames(tmp_path)
    assert err.value.filename == str(tmp_path)
