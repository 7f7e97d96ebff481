"""The array-speed CSV I/O of evenf.ingest against row-at-a-time references.

The ``_loop_*`` functions below are the row loops that ``evenf.ingest``
used before its readers and writers moved to ``np.loadtxt`` and chunked
%-formatting.  They are the reference: the writers must produce the same
bytes, and the event reader must accept the same files, return equal
streams, and reject the same files on the same line.  ``evenf.ingest`` no
longer writes references, so ``_loop_write_reference`` is also the writer
the other test modules use.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenf import ingest
from evenf.core import EnfTrace, EventStream
from evenf.ingest import read_events_csv, write_events_csv, write_trace_csv

_DIMS_RE = re.compile(r"#\s*width\s*=\s*(\d+)\s*,\s*height\s*=\s*(\d+)")


# ---------------------------------------------------------- row-loop reference

def _loop_write_events(stream, path):
    with open(path, "w") as fh:
        fh.write(f"# width={stream.sensor_width},height={stream.sensor_height}\n")
        fh.write("t_s,x,y,p\n")
        for i in range(len(stream)):
            fh.write(f"{stream.t[i]:.9f},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n")


def _loop_write_trace(trace, path, comments=None):
    times = trace.times
    with open(path, "w") as fh:
        for c in comments or []:
            fh.write(f"# {c}\n")
        fh.write("t_s,f_hz\n")
        for i in range(len(trace)):
            fh.write(f"{times[i]:.6f},{trace.values[i]:.6f}\n")


def _loop_write_reference(sig, path):
    with open(path, "w") as fh:
        fh.write(f"# sample_rate={sig.sample_rate:g}\n")
        fh.write("v\n")
        for v in sig.samples:
            fh.write(f"{v:.9f}\n")


def _loop_read_events(path):
    width = height = None
    ts, xs, ys, ps = [], [], [], []
    header_seen = False
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _DIMS_RE.match(line)
                if m:
                    width, height = int(m.group(1)), int(m.group(2))
                continue
            if not header_seen:
                if [c.strip() for c in line.split(",")] != ["t_s", "x", "y", "p"]:
                    raise ValueError(f"line {lineno}: expected header t_s,x,y,p")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                ts.append(float(parts[0]))
            except ValueError:
                raise ValueError(f"line {lineno}: unparsable t_s {parts[0]!r}") from None
            try:
                xs.append(int(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: unparsable x {parts[1]!r}") from None
            try:
                ys.append(int(parts[2]))
            except ValueError:
                raise ValueError(f"line {lineno}: unparsable y {parts[2]!r}") from None
            try:
                p = int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: unparsable polarity {parts[3]!r}") from None
            if p == 0:
                p = -1
            if p not in (-1, 1):
                raise ValueError(f"line {lineno}: polarity must be -1, 0, or +1")
            ps.append(p)
    if not header_seen:
        raise ValueError("missing header t_s,x,y,p")
    t = np.asarray(ts, dtype=np.float64)
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    p = np.asarray(ps, dtype=np.int64)
    if width is None:
        width = int(x.max()) + 1 if len(x) else 1
        height = int(y.max()) + 1 if len(y) else 1
    order = np.argsort(t, kind="stable")
    return EventStream(width, height, t[order], x[order], y[order], p[order])


# --------------------------------------------------------------------- writers

def _tie_stream(n, seed=0, width=346, height=260):
    """Timestamps k/1024 (ten decimals, so %.9f rounds exact ties, both
    signs) and coordinates drawn over the whole sensor."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(-4096, 1 << 20, n)) / 1024.0
    return EventStream(width, height, t, rng.integers(0, width, n),
                       rng.integers(0, height, n), rng.choice([-1, 1], n))


def _assert_writer_matches_row_loop(monkeypatch, d, stream):
    """write_events_csv gives the row loop's bytes, by the suffix table
    exactly when 2*w*h is at most the row count and the table limit."""
    fmts = []
    write_rows = ingest._write_rows

    def spy(fh, fmt, *columns):
        fmts.append(fmt)
        write_rows(fh, fmt, *columns)

    monkeypatch.setattr(ingest, "_write_rows", spy)
    write_events_csv(stream, d / "new.csv")
    monkeypatch.undo()
    _loop_write_events(stream, d / "loop.csv")
    assert (d / "new.csv").read_bytes() == (d / "loop.csv").read_bytes()
    table = (2 * stream.sensor_width * stream.sensor_height
             <= min(len(stream), ingest._SUFFIX_TABLE_MAX))
    assert set(fmts) == {"%.9f,%s\n" if table else "%.9f,%d,%d,%d\n"}


# (rows, width, height): the %d path on a 346x260 sensor, 70 000 rows
# spanning two chunks, and with five-digit x; the suffix table on a 1x1
# sensor, on a 4x4 one over two chunks, on both sides of len == 2*w*h, and
# with four-digit x at the table limit, which a 2049x1 sensor or a 64x64
# one under a denser stream exceeds
@pytest.mark.parametrize("n,w,h", [
    (0, 346, 260), (1, 346, 260), (3, 346, 260), (70_000, 346, 260),
    (140_000, 70_000, 1), (2, 1, 1), (5, 1, 1), (70_000, 4, 4), (29, 3, 5),
    (30, 3, 5), (4096, 2048, 1), (5000, 2049, 1), (10_000, 64, 64)])
def test_event_writer_bytes_match_row_loop(tmp_path, monkeypatch, n, w, h):
    _assert_writer_matches_row_loop(monkeypatch, tmp_path,
                                    _tie_stream(n, seed=n, width=w, height=h))


def test_wide_stream_has_five_digit_x():
    stream = _tie_stream(140_000, seed=140_000, width=70_000, height=1)
    assert stream.x.max() >= 10_000


def test_tie_stream_exercises_rounding():
    # 1/1024 = 0.0009765625 is an exact tie at the ninth decimal
    assert f"{1 / 1024:.9f}" == "0.000976562"
    assert np.any(np.abs(_tie_stream(1000).t * 1024 % 2) == 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_writer_bytes_match_row_loop_property(tmp_path_factory, data):
    t = data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40))
    ints = st.lists(st.integers(0, 99_999), min_size=len(t), max_size=len(t))
    p = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(t),
                           max_size=len(t)))
    stream = EventStream(100_000, 100_000, np.sort(t), data.draw(ints),
                         data.draw(ints), p)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_writer_matches_row_loop(monkeypatch,
                                        tmp_path_factory.mktemp("w"), stream)


# timestamps k/1024 are exact %.9f ties
_TIMES = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                   st.integers(-4096, 1 << 20).map(lambda k: k / 1024))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_writer_table_bytes_match_row_loop_property(tmp_path_factory,
                                                          data):
    w, h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    n = data.draw(st.integers(2 * w * h, 2 * w * h + 20))

    def column(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    stream = EventStream(w, h, np.sort(column(_TIMES)),
                         column(st.integers(0, w - 1)),
                         column(st.integers(0, h - 1)),
                         column(st.sampled_from([-1, 1])))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_writer_matches_row_loop(monkeypatch,
                                        tmp_path_factory.mktemp("w"), stream)


def test_trace_writer_matches_row_loop(tmp_path):
    rng = np.random.default_rng(4)
    trace = EnfTrace(8.0, 1.0, 50.0 + rng.normal(0, 0.01, 500))
    write_trace_csv(trace, tmp_path / "a.csv", comments=["k=v"])
    _loop_write_trace(trace, tmp_path / "b.csv", comments=["k=v"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------- reader

def _outcome(reader, path):
    """The stream a reader returns, or the line number its error names
    (None for an error about the whole stream)."""
    try:
        return reader(path)
    except ValueError as e:
        m = re.search(r"line (\d+)", str(e))
        return ("error", int(m.group(1)) if m else None)


def test_reader_matches_row_loop_on_written_files(tmp_path):
    path = tmp_path / "ev.csv"
    _loop_write_events(_tie_stream(70_000), path)
    assert read_events_csv(path) == _loop_read_events(path)


def test_reader_matches_row_loop_past_the_first_chunk(tmp_path):
    # a comment after the header forces the line-by-line pass; the bad
    # line sits in its second chunk
    path = tmp_path / "ev.csv"
    _loop_write_events(_tie_stream(70_000), path)
    lines = path.read_text().splitlines()
    lines.insert(2, "# a comment after the header")
    path.write_text("\n".join(lines) + "\n")
    assert read_events_csv(path) == _loop_read_events(path)
    lines[66_000] = "0.5,3.0,1,1"
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(read_events_csv, path) == ("error", 66_001)
    assert _outcome(_loop_read_events, path) == ("error", 66_001)


_TOKENS = ["nan", "inf", "-inf", "3.0", "1e3", "", " 2 ", "0", "2", "-1", "+1",
           "7", "1 # c", "#", "-", ".", "0.", "1e", "t_s", "\t4"]
_LINES = ["# c", "# width=30,height=30", "# width=2,height=2", "", "   ",
          "t_s,x,y,p", "0.5,1,1,1"]


@st.composite
def _mutated_event_csv(draw):
    n = draw(st.integers(1, 6))
    t = sorted(draw(st.lists(st.integers(0, 4096), min_size=n, max_size=n)))
    lines = ["# width=21,height=11", "t_s,x,y,p"] + [
        f"{k / 1024:.9f},{draw(st.integers(0, 20))},{draw(st.integers(0, 10))},"
        f"{draw(st.sampled_from([-1, 0, 1]))}" for k in t]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "drop", "extra", "replace",
                                     "inline_comment", "permute_header",
                                     "insert", "delete"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        if kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif kind == "drop":
            del fields[j]
            lines[i] = ",".join(fields)
        elif kind == "extra":
            fields.insert(j, draw(st.sampled_from(_TOKENS)))
            lines[i] = ",".join(fields)
        elif kind == "replace":
            fields[j] = draw(st.sampled_from(_TOKENS))
            lines[i] = ",".join(fields)
        elif kind == "inline_comment":
            lines[i] += " # c"
        elif kind == "permute_header":
            lines[1:2] = [",".join(draw(st.permutations(["t_s", "x", "y", "p"])))]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(_LINES)))
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_mutated_event_csv())
def test_reader_matches_row_loop_on_mutated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("r") / "ev.csv"
    path.write_text(text)
    assert _outcome(read_events_csv, path) == _outcome(_loop_read_events, path)
