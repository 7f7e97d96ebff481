"""CSV / PGM ingestion and the mains-reference extractor.

All text formats are plain CSV with optional ``#`` comment lines so the
repo stays free of serialization dependencies.  Timestamps are written
with nine decimals (nanosecond resolution), frequencies with six.  An
event row is exactly the bytes of ``'%.9f,%d,%d,%d\\n' % (t, x, y, p)``:
``_event_text`` spells a chunk of rows at once from 3-digit word tables,
rounding the nanoseconds as %.9f does, and a chunk with a time reaching
2**52 ns (52 days) is %-formatted instead.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (EnfTrace, EventStream, GridConfig, _frozen, fields_equal,
                   naming)
from .eenf import StftConfig, stft_peak_track
from .simulate import FrameSequence

__all__ = [
    "ReferenceSignal",
    "read_events_csv",
    "write_events_csv",
    "read_trace_csv",
    "write_trace_csv",
    "write_series_csv",
    "read_reference_csv",
    "reference_enf",
    "read_frames",
    "write_frames",
]

_DIMS_RE = re.compile(r"#\s*width\s*=\s*(\d+)\s*,\s*height\s*=\s*(\d+)")
_RATE_RE = re.compile(r"#\s*sample_rate\s*=(.*)")
# magic, then width, height and maxval, each after whitespace and any
# comment lines, then the one whitespace byte before the raster
_PGM_HEADER_RE = re.compile(rb"P5" + rb"\s+(?:#[^\n]*\n\s*)*(\d+)" * 3 + rb"\s")
_EVENT_DTYPE = np.dtype([("t_s", "f8"), ("x", "i8"), ("y", "i8"),
                         ("polarity", "i8")])
_CHUNK_ROWS = 1 << 16
# 0..999 as little-endian words: three digits left-padded with NUL or
# '0', then a NUL byte that a separator may replace
_NUL_PADDED, _ZERO_PADDED = (np.frombuffer("".join(
    str(i).rjust(3, pad) + "\0" for i in range(1000)).encode(), "<u4")
    for pad in ("\0", "0"))
_POLARITY_WORDS = np.frombuffer(b"-1\n\0" b"1\n\0\0", "<u4")


@dataclass(frozen=True, eq=False)
class ReferenceSignal:
    """Directly sampled mains waveform (or a proxy of it)."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        s = _frozen(self.samples, np.float64)
        if s.ndim != 1 or len(s) < 2:
            raise ValueError("samples must be a 1-d array of length >= 2")
        if not np.all(np.isfinite(s)):
            raise ValueError("reference samples must be finite")
        object.__setattr__(self, "samples", s)

    __eq__ = fields_equal


def _write_rows(fh, fmt: str, *columns: np.ndarray) -> None:
    """Write one ``fmt`` line per row of the equal-length ``columns``.

    Each chunk is %-formatted by one C-level call; chunking bounds the
    Python objects alive at once to ``_CHUNK_ROWS`` rows.
    """
    n = len(columns[0])
    for lo in range(0, n, _CHUNK_ROWS):
        k = min(_CHUNK_ROWS, n - lo)
        flat = np.empty((k, len(columns)), dtype=object)
        for j, col in enumerate(columns):
            flat[:, j] = col[lo:lo + k]
        fh.write((fmt * k) % tuple(flat.ravel().tolist()))


def _spell(v: np.ndarray, sep: str) -> list[np.ndarray]:
    """Word columns spelling the non-negative ints ``v``, then ``sep``:
    the leading 3-digit group NUL-padded, later ones zero-padded."""
    scale = 1000 ** ((len(str(v.max())) - 1) // 3)
    cols = [_NUL_PADDED[v // scale]]
    while scale > 1:
        cols[-1] = np.where(v >= scale, cols[-1], 0)    # NUL before it
        scale //= 1000
        g = v // scale % 1000
        cols.append(np.where(v >= 1000 * scale, _ZERO_PADDED[g],
                             _NUL_PADDED[g]))
    cols[-1] = cols[-1] | np.uint32(ord(sep) << 24)
    return cols


def _event_text(t, x, y, p) -> str:
    """Each row as ``'%.9f,%d,%d,%d\\n'`` prints it, for |t|*1e9 below 2**52:
    ``rint`` gives the nanoseconds unless the product is a tie, which the
    sign of its exact error (Dekker's TwoProduct; 1e9 needs no split)
    settles half-even on the exact value, as %.9f does.  The stacked
    words, less their NUL bytes, are the text."""
    a = np.abs(t)
    ns = a * 1e9
    r = np.rint(ns)
    tie = np.flatnonzero(np.abs(ns - r) == 0.5)
    hi = a[tie] * 134217729.0       # Veltkamp's split of |t|
    hi -= hi - a[tie]
    err = (hi * 1e9 - ns[tie]) + (a[tie] - hi) * 1e9
    r[tie] = np.where(err != 0, ns[tie] + np.copysign(0.5, err), r[tie])
    whole, frac = np.divmod(r.astype(np.int64), 10 ** 9)
    sign = np.signbit(t)
    words = [np.where(sign, np.uint32(ord("-")), 0)] if sign.any() else []
    words += _spell(whole, ".") + [
        _ZERO_PADDED[frac // 10 ** 6], _ZERO_PADDED[frac // 1000 % 1000],
        _ZERO_PADDED[frac % 1000] | np.uint32(ord(",") << 24)]
    words += _spell(x, ",") + _spell(y, ",")
    words.append(_POLARITY_WORDS[(p > 0).view(np.uint8)])
    text = np.stack(words, axis=1).astype("<u4", copy=False).tobytes()
    return text.translate(None, b"\0").decode("ascii")


def _loadtxt(lines, dtype, comments=None, **kw) -> np.ndarray:
    # comments=None: a '#' after the header fails the parse; _read_csv
    # passes "#" only once it has seen every '#' begin its line
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=dtype, delimiter=",",
                          comments=comments, ndmin=1, **kw)


def _find_header(fh, path, header: str) -> tuple[list[str], int]:
    """Read through the header line: the comments before it, its line number."""
    comments = []
    for lineno, line in enumerate(iter(fh.readline, ""), start=1):
        line = line.strip()
        if line.startswith("#"):
            comments.append(line)
        elif line:
            if [c.strip() for c in line.split(",")] != header.split(","):
                raise ValueError(f"{path}: line {lineno}: expected header {header}")
            return comments, lineno
    raise ValueError(f"{path}: missing header {header}")


def _parse(lines, dtype, allowed, **kw) -> np.ndarray | None:
    """The rows of ``lines``, or None if one is malformed or holds a value
    outside ``allowed``."""
    try:
        rows = _loadtxt(lines, dtype, **kw)
    except ValueError:
        return None
    ok = all(np.isin(rows[name], vals).all() for name, vals in allowed.items())
    return rows if ok else None


def _parse_rows(path, lines, linenos, dtype, allowed) -> np.ndarray:
    """Parse stripped data lines; on failure, name the first bad line."""
    rows = _parse(lines, dtype, allowed)
    if rows is not None:
        return rows
    for line, lineno in zip(lines, linenos):
        where = f"{path}: line {lineno}"
        fields = line.split(",")
        if len(fields) != len(dtype.names):
            raise ValueError(f"{where}: expected {len(dtype.names)} fields, "
                             f"got {len(fields)}")
        for j, (name, field) in enumerate(zip(dtype.names, fields)):
            try:
                value = _loadtxt([line], dtype[j], usecols=j)[0]
            except ValueError:
                raise ValueError(f"{where}: unparsable {name} {field!r}") from None
            if name in allowed and value not in allowed[name]:
                raise ValueError(f"{where}: {name} must be one of "
                                 + ", ".join(map(str, allowed[name])))
    raise ValueError(f"{path}: unparsable rows")


def _read_csv(path, header: str, dtype, allowed=None) -> tuple[list[str], np.ndarray]:
    """The one CSV parser of this module: the comment lines, in file order,
    and the rows after the literal ``header`` line, one ``dtype`` field per
    column (field names label the columns in errors).  ``allowed`` maps a
    field to its admissible values.  ``np.loadtxt`` parses the body, and
    if that fails, again skipping '#' lines; only when that fails too is
    the rest of the open file scanned line by line to name the bad line.
    """
    dtype, allowed = np.dtype(dtype), allowed or {}
    chunks, lines, linenos = [], [], []
    with open(path, "r") as fh:
        comments, lineno = _find_header(fh, path, header)
        # loadtxt reads a path faster than the rest of an open file
        rows = _parse(path, dtype, allowed, skiprows=lineno)
        if rows is not None:
            return comments, rows
        body, text = fh.tell(), fh.read()
        # each '#' line, stripped; loadtxt may skip them if no '#' follows data
        notes = [text[text.rfind("\n", 0, m.start()) + 1:m.end()].strip()
                 for m in re.finditer("#.*", text)]
        if notes and all(note[0] == "#" for note in notes):
            rows = _parse(path, dtype, allowed, skiprows=lineno, comments="#")
            if rows is not None:
                return comments + notes, rows
        fh.seek(body)
        for lineno, line in enumerate(fh, start=lineno + 1):
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif line:
                lines.append(line)
                linenos.append(lineno)
                if len(lines) == _CHUNK_ROWS:
                    chunks.append(_parse_rows(path, lines, linenos, dtype, allowed))
                    lines, linenos = [], []
    chunks.append(_parse_rows(path, lines, linenos, dtype, allowed))
    return comments, np.concatenate(chunks)


def write_events_csv(stream: EventStream, path) -> None:
    """Write ``t_s,x,y,p`` rows under a ``# width=W,height=H`` line, each
    the bytes of ``'%.9f,%d,%d,%d\\n' % (t, x, y, p)``, a chunk at a time."""
    with open(path, "w") as fh:
        fh.write(f"# width={stream.sensor_width},height={stream.sensor_height}"
                 "\nt_s,x,y,p\n")
        for lo in range(0, len(stream), _CHUNK_ROWS):
            cols = [col[lo:lo + _CHUNK_ROWS]
                    for col in (stream.t, stream.x, stream.y, stream.p)]
            if np.abs(cols[0]).max() * 1e9 < 2.0 ** 52:
                fh.write(_event_text(*cols))
            else:
                _write_rows(fh, "%.9f,%d,%d,%d\n", *cols)


def read_events_csv(path) -> EventStream:
    """Read an event CSV (header ``t_s,x,y,p``).

    Polarity 0 is accepted as an alias for -1 (the unsigned convention
    some tools emit).  Sensor dimensions come from the last
    ``# width=..,height=..`` comment, or are inferred as max+1.
    Malformed rows fail with the file name and their line number.
    """
    comments, rows = _read_csv(path, "t_s,x,y,p", _EVENT_DTYPE,
                               {"polarity": (-1, 0, 1)})
    t, x, y, p = (rows[name] for name in _EVENT_DTYPE.names)
    p = np.where(p == 0, -1, p)
    width = height = None
    for c in comments:
        m = _DIMS_RE.match(c)
        if m:
            width, height = int(m.group(1)), int(m.group(2))
    if width is None:
        width = int(x.max()) + 1 if len(x) else 1
        height = int(y.max()) + 1 if len(y) else 1
    if np.any(t[1:] < t[:-1]):
        order = np.argsort(t, kind="stable")
        t, x, y, p = t[order], x[order], y[order], p[order]
    with naming(path):
        return EventStream(width, height, t, x, y, p)


def write_trace_csv(trace: EnfTrace, path, comments: list[str] | None = None) -> None:
    with open(path, "w") as fh:
        for c in comments or []:
            fh.write(f"# {c}\n")
        fh.write("t_s,f_hz\n")
        _write_rows(fh, "%.6f,%.6f\n", trace.times, trace.values)


def write_series_csv(series, path) -> None:
    """Write ``label,t_s,f_hz`` rows for each ``(label, times, values)``."""
    with open(path, "w") as fh:
        fh.write("label,t_s,f_hz\n")
        for label, times, values in series:
            _write_rows(fh, label.replace("%", "%%") + ",%.6f,%.6f\n",
                        times, values)


def read_trace_csv(path) -> EnfTrace:
    _, rows = _read_csv(path, "t_s,f_hz", [("t_s", "f8"), ("f_hz", "f8")])
    t, f = rows["t_s"], rows["f_hz"]
    if len(t) < 1:
        raise ValueError(f"{path}: trace file holds no samples")
    step = (t[-1] - t[0]) / (len(t) - 1) if len(t) > 1 else 1.0
    if not (step > 0 and np.all(np.abs(np.diff(t) - step) <= 2e-6)):
        raise ValueError(f"{path}: trace sampling is not uniform")
    with naming(path):
        return EnfTrace(float(t[0]), float(step), f)


def read_reference_csv(path) -> ReferenceSignal:
    comments, rows = _read_csv(path, "v", [("v", "f8")])
    rates = [m.group(1).strip() for m in map(_RATE_RE.match, comments) if m]
    if not rates:
        raise ValueError(f"{path}: missing '# sample_rate=' comment")
    try:
        rate = float(rates[-1])
    except ValueError:
        raise ValueError(f"{path}: sample_rate: invalid float "
                         f"{rates[-1]!r}") from None
    with naming(path):
        return ReferenceSignal(rate, rows["v"])


def reference_enf(sig: ReferenceSignal, stft: StftConfig = StftConfig(),
                  grid: GridConfig = GridConfig()) -> EnfTrace:
    """Ground-truth ENF from a directly recorded mains waveform.

    Tracks the spectral peak within +/- stft.search_halfwidth_hz of
    nominal with the same windowed tracker the event pipeline uses.
    """
    if sig.sample_rate < 8.0 * grid.nominal_hz:
        raise ValueError("reference sample rate must be >= 8x nominal")
    trace, _ = stft_peak_track(sig.samples, sig.sample_rate, stft,
                               float(grid.nominal_hz))
    return trace


def write_frames(seq: FrameSequence, directory) -> None:
    """Dump a frame sequence as 8-bit binary PGM files plus a manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "manifest.txt", "w") as fh:
        fh.write(f"fps={seq.fps:g}\n")
        fh.write(f"shutter={seq.shutter}\n")
        fh.write(f"row_readout_s={seq.row_readout:.9f}\n")
        fh.write(f"count={len(seq)}\n")
    header = f"P5\n{seq.width} {seq.height}\n255\n".encode("ascii")
    for k in range(len(seq)):
        data = np.round(seq.frames[k] * 255.0).astype(np.uint8)
        with open(d / f"frame_{k:06d}.pgm", "wb") as fh:
            fh.write(header)
            fh.write(data.tobytes())


def _read_pgm(path) -> np.ndarray:
    """One binary PGM frame scaled to [0, 1]; maxval > 255 means
    big-endian 16-bit samples."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    header = _PGM_HEADER_RE.match(blob)
    if header is None:
        raise ValueError(f"{path}: truncated or malformed PGM header")
    w, h, maxval = (int(g) for g in header.groups())
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} outside 1..65535")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    need, have = w * h * dtype.itemsize, len(blob) - header.end()
    if have < need:
        raise ValueError(f"{path}: truncated raster: {have} of {need} bytes")
    raster = np.frombuffer(blob, dtype=dtype, count=w * h, offset=header.end())
    return raster.reshape(h, w).astype(np.float64) / float(maxval)


def read_frames(directory) -> FrameSequence:
    """Read frame_000000.pgm, frame_000001.pgm, ... (no gaps, one size);
    the manifest's ``count``, when present, must equal the file count."""
    d = Path(directory)
    manifest = d / "manifest.txt"
    with open(manifest, "r") as fh:
        meta = dict(map(str.strip, line.split("=", 1))
                    for line in fh if "=" in line)
    missing = [k for k in ("fps", "shutter") if k not in meta]
    if missing:
        raise ValueError(f"{manifest}: missing {', '.join(missing)}")
    n = len(list(d.glob("frame_*.pgm")))
    parsed = {}
    for key, parse, default in (("fps", float, "0"), ("row_readout_s", float, "0"),
                                ("count", int, str(n))):
        try:
            parsed[key] = parse(meta.get(key, default))
        except ValueError:
            raise ValueError(f"{manifest}: {key}: invalid {parse.__name__} "
                             f"{meta[key]!r}") from None
    if not n:
        raise ValueError(f"no frame_*.pgm files in {directory}")
    paths = [d / f"frame_{k:06d}.pgm" for k in range(n)]
    gap = next((p for p in paths if not p.is_file()), None)
    if gap is not None:
        raise ValueError(f"{gap}: missing frame")
    if parsed["count"] != n:
        raise ValueError(f"{manifest}: count: {parsed['count']}, "
                         f"but {n} frame files")
    frames = [_read_pgm(p) for p in paths]
    for p, frame in zip(paths, frames):
        if frame.shape != frames[0].shape:
            (h, w), (h0, w0) = frame.shape, frames[0].shape
            raise ValueError(f"{p}: {w}x{h} frame, expected {w0}x{h0}")
    frames = np.stack(frames)
    with naming(d):
        return FrameSequence(frames.shape[2], frames.shape[1], parsed["fps"],
                             meta["shutter"], parsed["row_readout_s"], frames)
