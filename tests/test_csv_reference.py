"""The array-speed CSV I/O of evenf.ingest against row-at-a-time references.

The ``_loop_*`` functions below are the row loops that ``evenf.ingest``
used before its readers and writers moved to ``np.loadtxt``, chunked
%-formatting and, for events, digits spelled by array operations.  They
are the reference: the writers must produce the same bytes, and the
event reader must accept the same files, return equal streams, and
reject the same files on the same line.  ``evenf.ingest`` no
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
from evenf.ingest import (read_events_csv, write_events_csv, write_series_csv,
                          write_trace_csv)

_DIMS_RE = re.compile(r"#\s*width\s*=\s*(\d+)\s*,\s*height\s*=\s*(\d+)")
_DIMS_START_RE = re.compile(r"#\s*(?:width|height)\s*=")


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


def _loop_write_series(series, path):
    with open(path, "w") as fh:
        fh.write("label,t_s,f_hz\n")
        for label, trace in series:
            for t, f in zip(trace.times, trace.values):
                fh.write(f"{label},{t:.6f},{f:.6f}\n")


def _loop_write_reference(sig, path):
    with open(path, "w") as fh:
        fh.write(f"# sample_rate={sig.sample_rate:g}\n")
        fh.write("v\n")
        for v in sig.samples:
            fh.write(f"{v:.9f}\n")


def _loop_read_events(path):
    width = height = None
    ts, xs, ys, ps = [], [], [], []
    header_seen = malformed = False
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                # a comment that starts like the dimensions starts the pair
                if _DIMS_START_RE.match(line):
                    m = _DIMS_RE.match(line)
                    if m:
                        width, height = int(m.group(1)), int(m.group(2))
                    malformed |= m is None
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
    if malformed:
        raise ValueError("malformed sensor dimensions")
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


def _assert_writer_matches_row_loop(d, stream):
    """write_events_csv gives the row loop's bytes."""
    write_events_csv(stream, d / "new.csv")
    _loop_write_events(stream, d / "loop.csv")
    assert (d / "new.csv").read_bytes() == (d / "loop.csv").read_bytes()


# (rows, width, height): a 346x260 sensor, 70 000 rows spanning two
# chunks, and with five-digit x; a 1x1 sensor, a 4x4 one over two chunks,
# both sides of len == 2*w*h, four- and five-digit x on one row, and
# ten-digit x on the widest sensor EventStream admits
@pytest.mark.parametrize("n,w,h", [
    (0, 346, 260), (1, 346, 260), (3, 346, 260), (70_000, 346, 260),
    (140_000, 70_000, 1), (2, 1, 1), (5, 1, 1), (70_000, 4, 4), (29, 3, 5),
    (30, 3, 5), (4096, 2048, 1), (5000, 2049, 1), (10_000, 64, 64),
    (5000, 2**31 - 1, 3)])
def test_event_writer_bytes_match_row_loop(tmp_path, n, w, h):
    _assert_writer_matches_row_loop(tmp_path,
                                    _tie_stream(n, seed=n, width=w, height=h))


def test_event_writer_spells_every_digit_group(tmp_path):
    # each group count of x and y, and the values on either side of a
    # group edge, where the leading group changes
    edges = [0, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 1_000_000,
             1_000_999, 999_999_999, 1_000_000_000, 2**31 - 2]
    n = len(edges)
    stream = EventStream(2**31 - 1, 2**31 - 1, np.arange(n) * 1e3, edges,
                         edges[::-1], [1, -1] * (n // 2))
    _assert_writer_matches_row_loop(tmp_path, stream)


def test_event_writer_signs_and_tiny_times(tmp_path):
    # -0.0 and -1e-12 print '-0.000000000'; 5e-10, 1.5e-9, 2.5e-9,
    # 0.9999999995 and 999.9999999995 times 1e9 round onto .5, so their
    # exact value settles the last digit, which in the last one carries
    # into the whole seconds
    t = [-4.5e6, -1234.5, -1.0, -5e-10, -1e-12, -0.0, 0.0, 1e-12, 5e-10,
         1.5e-9, 2.5e-9, 0.9999999995, 999.9999999995, 4503599.627]
    stream = EventStream(2, 2, t, [0, 1] * 7, [1, 0] * 7, [-1, 1] * 7)
    _assert_writer_matches_row_loop(tmp_path, stream)
    assert (tmp_path / "new.csv").read_text().splitlines()[6:9] == [
        "-0.000000000,0,1,-1", "-0.000000000,1,0,1", "0.000000000,0,1,-1"]


def test_event_writer_crosses_2_52_ns_at_a_chunk_boundary(tmp_path):
    # the first chunk stays below 2**52 ns and the second reaches it; the
    # same rows shifted by 1.7e9 s (an epoch clock) are far beyond it
    edge, k = 2**52 / 1e9, ingest._CHUNK_ROWS
    ticks = np.arange(k + 5000) / 1024.0
    t = np.concatenate([edge - 70.0 + ticks[:k], edge + ticks[k:] - ticks[k]])
    assert t[k - 1] * 1e9 < 2**52 <= t[k] * 1e9
    rng = np.random.default_rng(9)
    x, y = rng.integers(0, 346, len(t)), rng.integers(0, 260, len(t))
    p = rng.choice([-1, 1], len(t))
    for shift in (0.0, 1.7e9):
        _assert_writer_matches_row_loop(
            tmp_path, EventStream(346, 260, t + shift, x, y, p))


def test_wide_stream_has_five_digit_x():
    stream = _tie_stream(140_000, seed=140_000, width=70_000, height=1)
    assert stream.x.max() >= 10_000


def test_tie_stream_exercises_rounding():
    # 1/1024 = 0.0009765625 is an exact tie at the ninth decimal
    assert f"{1 / 1024:.9f}" == "0.000976562"
    assert np.any(np.abs(_tie_stream(1000).t * 1024 % 2) == 1)


# timestamps k/1024 are exact %.9f ties; the doubles next to k/2e9 are
# near-ties, whose product with 1e9 may round onto the tie; half the
# lists also hold times up to 1e10 s
_SPELLED_TIMES = st.one_of(
    st.floats(-4.5e6, 4.5e6, allow_nan=False),
    st.integers(-4096, 1 << 20).map(lambda k: k / 1024),
    st.tuples(st.integers(-9 * 10**15, 9 * 10**15),
              st.sampled_from([-np.inf, np.inf])).map(
        lambda kd: float(np.nextafter(kd[0] / 2e9, kd[1]))))
_TIMES = st.sampled_from([_SPELLED_TIMES, st.one_of(
    _SPELLED_TIMES, st.floats(-1e10, 1e10, allow_nan=False))])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_writer_bytes_match_row_loop_property(tmp_path_factory, data):
    t = data.draw(st.lists(data.draw(_TIMES), max_size=40))
    ints = st.lists(st.integers(0, 2**31 - 2), min_size=len(t),
                    max_size=len(t))
    p = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(t),
                           max_size=len(t)))
    stream = EventStream(2**31 - 1, 2**31 - 1, np.sort(t), data.draw(ints),
                         data.draw(ints), p)
    _assert_writer_matches_row_loop(tmp_path_factory.mktemp("w"), stream)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_writer_table_bytes_match_row_loop_property(tmp_path_factory,
                                                          data):
    w, h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    n = data.draw(st.integers(2 * w * h, 2 * w * h + 20))

    def column(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    stream = EventStream(w, h, np.sort(column(data.draw(_TIMES))),
                         column(st.integers(0, w - 1)),
                         column(st.integers(0, h - 1)),
                         column(st.sampled_from([-1, 1])))
    _assert_writer_matches_row_loop(tmp_path_factory.mktemp("w"), stream)


def test_trace_writer_matches_row_loop(tmp_path):
    rng = np.random.default_rng(4)
    trace = EnfTrace(8.0, 1.0, 50.0 + rng.normal(0, 0.01, 500))
    write_trace_csv(trace, tmp_path / "a.csv", comments=["k=v"])
    _loop_write_trace(trace, tmp_path / "b.csv", comments=["k=v"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# magnitudes from 2**-30 to 2**62: a mantissa times a power of two, or
# k/128 and k/1024, exact ties at the sixth and the ninth decimal; then
# either sign, and one neighbour either way or none; and signed zeros
_MAGNITUDES = st.one_of(
    st.tuples(st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-30, 61)).map(lambda me: me[0] * 2.0 ** me[1]),
    st.tuples(st.integers(1, 2**52), st.sampled_from([128, 1024])).map(
        lambda kd: kd[0] / kd[1]))
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(_MAGNITUDES, st.sampled_from([-1.0, 1.0]),
              st.sampled_from([0.0, -np.inf, np.inf])).map(
        lambda msn: msn[0] * msn[1] if not msn[2] else
        float(np.nextafter(msn[0] * msn[1], msn[2]))))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=40), t0=_VALUES,
       step=st.sampled_from([1 / 1024, 1 / 128, 1e-3, 1.0, 2.0 ** 40]))
def test_writers_match_percent_formatting(tmp_path_factory, values, t0, step):
    d = tmp_path_factory.mktemp("w")
    n = len(values)
    _assert_writer_matches_row_loop(d, EventStream(
        1, 1, np.sort(values), np.zeros(n, int), np.zeros(n, int),
        np.ones(n, int)))
    trace = EnfTrace(t0, step, values)
    write_trace_csv(trace, d / "a.csv")
    _loop_write_trace(trace, d / "b.csv")
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=40),
       places=st.integers(1, 9))
def test_words_spell_every_places_count_as_percent_formatting(values, places):
    # places that are not a multiple of 3 keep the last places % 3 digits
    # of the fraction's leading group
    v = np.array(values)
    assert "".join(ingest._lines(places, v, -v, end=" ")) == "".join(
        f"{a:.{places}f},{-a:.{places}f} " for a in values)


def test_values_from_2_63_up_are_refused_before_any_file(tmp_path):
    # a whole part from 2**63 up does not fit the int64 the writers
    # spell; the value types refuse it, so no file is opened
    path, below = tmp_path / "o.csv", 2.0 ** 63 - 1024
    cases = [(write_events_csv, lambda v: EventStream(1, 1, [v], [0], [0], [1])),
             (write_trace_csv, lambda v: EnfTrace(v, 1.0, [50.0])),
             (write_trace_csv, lambda v: EnfTrace(0.0, 1.0, [v])),
             (write_trace_csv, lambda v: EnfTrace(below, v - below, [1, 2]))]
    for write, make in cases:
        for v in (2.0 ** 63, -(2.0 ** 63), np.inf):
            with pytest.raises(ValueError, match="2\\*\\*63|finite"):
                write(make(v), path)
            assert not path.exists()
    _assert_writer_matches_row_loop(tmp_path, cases[0][1](below))
    assert (tmp_path / "new.csv").read_text().splitlines()[2] == \
        "9223372036854774784.000000000,0,0,1"


def test_series_writer_matches_row_loop(tmp_path):
    # labels of every length mod 4 bytes, with '%' and non-ASCII text
    rng = np.random.default_rng(5)
    series = [(label, EnfTrace(rng.normal(0, 1e3), 0.5,
                               50.0 + rng.normal(0, 0.01, n)))
              for label, n in (("", 3), ("v%d", 70_000), ("50 %%", 2),
                               ("é", 1), ("ü∞ 電", 5), ("abcd", 4))]
    write_series_csv(series, tmp_path / "a.csv")
    _loop_write_series(series, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    with pytest.raises(ValueError, match="^a series label must hold no NUL$"):
        write_series_csv([("a\0b", series[0][1])], tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


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


@st.composite
def _valid_event_csv(draw):
    """A valid event file of any sensor size up to the int32 limit, rows
    in any order, with '#', blank and whitespace-only lines among them."""
    width, height = (draw(st.integers(1, 2**31 - 1)) for _ in range(2))
    n = draw(st.integers(0, 12))
    lines = [f"{draw(st.integers(-4096, 1 << 20)) / 1024:.9f},"
             f"{draw(st.integers(0, width - 1))},"
             f"{draw(st.integers(0, height - 1))},"
             f"{draw(st.sampled_from([-1, 0, 1]))}" for _ in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["# c", "#", "", "   ", "\t", " \t ", "  # c"])))
    return "\n".join([f"# width={width},height={height}", "t_s,x,y,p"]
                     + lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_valid_event_csv())
def test_reader_matches_int64_row_loop_on_valid_files(tmp_path_factory, text):
    # the reader parses x, y and p at int32, int32 and int8; the row loop
    # at int64 (Python ints)
    path = tmp_path_factory.mktemp("r") / "ev.csv"
    path.write_text(text)
    assert read_events_csv(path) == _loop_read_events(path)
