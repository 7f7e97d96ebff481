"""CSV / PGM ingestion and the mains-reference extractor.

All text formats are plain CSV with optional ``#`` comment lines so the
repo stays free of serialization dependencies.  Event times are written
with nine decimals (nanosecond resolution), trace times and frequencies
with six.  Each row is the bytes %-formatting gives, e.g. an event row
``'%.9f,%d,%d,%d\\n' % (t, x, y, p)``: one formatter, ``_words``, spells
a chunk of values at once from 3-digit word tables, for any magnitude
below 2**63 (the value types refuse larger ones).
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
from .simulate import _FRAME_BLOCK, FrameSequence, _time_sorted

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

# matched as a prefix: the pair, or (no groups) a comment that starts like it
_DIMS_RE = re.compile(r"#\s*(?:width\s*=\s*(\d+)\s*,\s*height\s*=\s*(\d+)"
                      r"|(?:width|height)\s*=)")
_RATE_RE = re.compile(r"#\s*sample_rate\s*=(.*)")
# magic, then width, height and maxval, each after whitespace and any
# comment lines, then the one whitespace byte before the raster
_PGM_HEADER_RE = re.compile(rb"P5" + rb"\s+(?:#[^\n]*\n\s*)*(\d+)" * 3 + rb"\s")
# the widths EventStream stores; a value too wide for its field fails loadtxt
_EVENT_DTYPE = np.dtype([("t_s", "f8"), ("x", "i4"), ("y", "i4"),
                         ("polarity", "i1")])
_CHUNK_ROWS = 1 << 16
# 0..999 as little-endian words: three digits left-padded with NUL or
# '0', then a NUL byte that a separator may replace
_NUL_PADDED, _ZERO_PADDED = (np.frombuffer("".join(
    str(i).rjust(3, pad) + "\0" for i in range(1000)).encode(), "<u4")
    for pad in ("\0", "0"))
# -9..9 likewise, the sign before the digit
_ONE_DIGIT = np.frombuffer("".join(
    str(i).rjust(3, "\0") + "\0" for i in range(-9, 10)).encode(), "<u4")


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


def _words(v: np.ndarray, places: int, sep: str) -> list[np.ndarray]:
    """Word columns spelling ``v`` as ``'%d'`` or, for floats below 2**63,
    ``'%.{places}f'`` (``places`` 1 to 9) prints it, then ``sep``.
    ``floor`` splits off the whole part exactly; ``rint`` gives the
    fraction's digits but for a tie, which the sign of the exact error of
    the product (Dekker's TwoProduct) settles half-even, as % does."""
    ints = v.dtype.kind != "f"
    if ints and -10 < v.min() and v.max() < 10:     # one word: polarities
        return [_ONE_DIGIT[v + 9] | np.uint32(ord(sep) << 24)]
    sign = v < 0 if ints else np.signbit(v)
    words = [np.where(sign, np.uint32(ord("-")), 0)] if sign.any() else []
    if ints:
        return words + _spell(np.abs(v), sep)
    scaled = np.abs(v)
    whole = np.floor(scaled)
    unit = 10.0 ** places
    scaled -= whole                     # the fraction, exactly; in place,
    scaled *= unit                      # like d, to spare fresh pages
    r = np.rint(scaled)
    d = scaled - r
    tie = np.flatnonzero(np.abs(d, out=d) == 0.5)
    f = np.abs(v[tie]) - whole[tie]     # the fraction
    hi = f * 134217729.0                # Veltkamp's split of f
    hi -= hi - f
    err = (hi * unit - scaled[tie]) + (f - hi) * unit
    r[tie] = np.where(err != 0, scaled[tie] + np.copysign(0.5, err), r[tie])
    carry, digits = np.divmod(r.astype(np.int32), 10 ** places)
    words += _spell((whole + carry).astype(np.int64), ".")
    words += [_ZERO_PADDED[digits // 1000 ** k % 1000]
              for k in range((places - 1) // 3, -1, -1)]
    words[-1 - (places - 1) // 3] >>= 8 * (-places % 3)   # its last places % 3
    words[-1] = words[-1] | np.uint32(ord(sep) << 24)
    return words


def _lines(places: int, *columns: np.ndarray, lead: str = "", end: str = "\n"):
    """Chunk by chunk, ``lead`` and one row of the equal-length ``columns``,
    comma-separated, then ``end``, per row: stacked ``_words`` less NULs."""
    head = lead.encode()
    head = np.frombuffer(head + b"\0" * (-len(head) % 4), "<u4")
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [col[lo:lo + _CHUNK_ROWS] for col in columns]
        words = [np.full(len(chunk[0]), w) for w in head]
        for col, sep in zip(chunk, "," * (len(chunk) - 1) + end):
            words += _words(col, places, sep)
        text = np.stack(words, axis=1).astype("<u4", copy=False).tobytes()
        yield text.translate(None, b"\0").decode()


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


def _parse(lines, dtype, allowed, **kw) -> list[np.ndarray] | None:
    """The contiguous columns of ``lines``, or None if a row is malformed or
    holds a value outside the ``range`` that ``allowed`` gives its field."""
    try:
        rows = _loadtxt(lines, dtype, **kw)
    except ValueError:
        return None
    cols = {name: np.ascontiguousarray(rows[name]) for name in dtype.names}
    ok = len(rows) == 0 or all(
        vals.start <= cols[name].min() and cols[name].max() < vals.stop
        for name, vals in allowed.items())
    return list(cols.values()) if ok else None


def _parse_rows(path, lines, linenos, dtype, allowed) -> list[np.ndarray]:
    """Parse stripped data lines; on failure, name the first bad line."""
    cols = _parse(lines, dtype, allowed)
    if cols is not None:
        return cols
    for line, lineno in zip(lines, linenos):
        where = f"{path}: line {lineno}"
        fields = line.split(",")
        if len(fields) != len(dtype.names):
            raise ValueError(f"{where}: expected {len(dtype.names)} fields, "
                             f"got {len(fields)}")
        for j, (name, field) in enumerate(zip(dtype.names, fields)):
            try:    # an integer at int64, to tell a wide one from a bad one
                value = _loadtxt([line], np.promote_types(dtype[j], "i8"),
                                 usecols=j)[0]
            except ValueError:
                raise ValueError(f"{where}: unparsable {name} {field!r}") from None
            if name in allowed and value not in allowed[name]:
                raise ValueError(f"{where}: {name} must be one of "
                                 + ", ".join(map(str, allowed[name])))
            if dtype[j].kind == "i" and value != value.astype(dtype[j]):
                # an event's x or y past int32 (its polarity is in allowed)
                raise ValueError(f"{where}: event coordinates outside sensor bounds")
    raise ValueError(f"{path}: unparsable rows")


def _read_csv(path, header: str, dtype,
              allowed=None) -> tuple[list[str], list[np.ndarray]]:
    """The one CSV parser of this module: the comment lines, in file order,
    and the contiguous columns after the literal ``header`` line, one per
    ``dtype`` field (field names label the columns in errors).  ``allowed``
    maps a field to the ``range`` of its admissible values.  ``np.loadtxt``
    parses the body, and if that fails, again skipping '#' and blank
    lines; only when that fails too is the rest of the open file scanned
    line by line to name the bad line.
    """
    dtype, allowed = np.dtype(dtype), allowed or {}
    chunks, lines, linenos = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            comments, lineno = _find_header(fh, path, header)
            # loadtxt reads a path faster than the rest of an open file
            cols = _parse(path, dtype, allowed, skiprows=lineno)
            if cols is not None:
                return comments, cols
            body, text = fh.tell(), fh.read()
            # each '#' line, stripped; loadtxt may skip them if no '#' follows data
            notes = [text[text.rfind("\n", 0, m.start()) + 1:m.end()].strip()
                     for m in re.finditer("#.*", text)]
            if all(note[0] == "#" for note in notes):
                # loadtxt skips the '#' lines of the path, but reads a line of
                # blanks, or of blanks before a '#', as one field: stripped,
                # such a line is empty, and skipped too
                fh.seek(0)
                blank = text[:1].isspace() or re.search(r"\n[^\S\n]", text)
                for source in [path] * bool(notes) + [map(str.strip, fh)] * bool(blank):
                    cols = _parse(source, dtype, allowed, skiprows=lineno,
                                  comments="#")
                    if cols is not None:
                        return comments + notes, cols
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
    except UnicodeDecodeError:      # at a position in some chunk read
        raw = Path(path).read_bytes()
        try:
            raw.decode()
        except UnicodeDecodeError as e:
            line = raw.count(b"\n", 0, e.start) + 1
            raise ValueError(f"{path}: line {line}: byte 0x{raw[e.start]:02x} "
                             "is not utf-8") from None
        raise
    chunks.append(_parse_rows(path, lines, linenos, dtype, allowed))
    return comments, [np.concatenate(col) for col in zip(*chunks)]


def write_events_csv(stream: EventStream, path) -> None:
    """Write ``t_s,x,y,p`` rows under a ``# width=W,height=H`` line, each
    the bytes of ``'%.9f,%d,%d,%d\\n' % (t, x, y, p)``."""
    with open(path, "w") as fh:
        fh.write(f"# width={stream.sensor_width},height={stream.sensor_height}"
                 "\nt_s,x,y,p\n")
        fh.writelines(_lines(9, stream.t, stream.x, stream.y, stream.p))


def read_events_csv(path) -> EventStream:
    """Read an event CSV (header ``t_s,x,y,p``) at the widths EventStream
    stores: float64, int32, int32 and int8.

    Polarity 0 is accepted as an alias for -1 (the unsigned convention
    some tools emit).  Sensor dimensions come from the last comment that
    starts ``# width=W,height=H`` (any other ``# width=`` or ``# height=``
    comment is refused), or are inferred as max+1.  Malformed rows fail
    with the file name and their line number, as do a polarity other
    than -1, 0 and 1 and an x or y beyond int32, which lies outside any
    sensor."""
    comments, cols = _read_csv(path, "t_s,x,y,p", _EVENT_DTYPE,
                               {"polarity": range(-1, 2)})
    cols[3][cols[3] == 0] = -1
    dims = [m for m in map(_DIMS_RE.match, comments) if m]
    if bad := [m.string for m in dims if m[1] is None]:
        raise ValueError(f"{path}: malformed sensor dimensions {bad[0]!r}")
    width, height = (map(int, dims[-1].groups()) if dims else
                     (int(v.max()) + 1 if len(v) else 1 for v in cols[1:3]))
    _time_sorted(cols)      # no name here holds an unsorted column
    with naming(path):
        return EventStream(width, height, *cols)


def write_trace_csv(trace: EnfTrace, path, comments: list[str] | None = None) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"# {c}\n" for c in comments or []) + "t_s,f_hz\n")
        fh.writelines(_lines(6, trace.times, trace.values))


def write_series_csv(series, path) -> None:
    """Write ``label,t_s,f_hz`` rows for each ``(label, trace)``."""
    if any("\0" in label for label, _ in series):
        raise ValueError("a series label must hold no NUL")
    with open(path, "w") as fh:
        fh.write("label,t_s,f_hz\n")
        for label, trace in series:
            fh.writelines(_lines(6, trace.times, trace.values, lead=f"{label},"))


def read_trace_csv(path) -> EnfTrace:
    _, (t, f) = _read_csv(path, "t_s,f_hz", [("t_s", "f8"), ("f_hz", "f8")])
    if len(t) < 1:
        raise ValueError(f"{path}: trace file holds no samples")
    step = (t[-1] - t[0]) / (len(t) - 1) if len(t) > 1 else 1.0
    if not (step > 0 and np.all(np.abs(np.diff(t) - step) <= 2e-6)):
        raise ValueError(f"{path}: trace sampling is not uniform")
    with naming(path):
        return EnfTrace(float(t[0]), float(step), f)


def read_reference_csv(path) -> ReferenceSignal:
    comments, (v,) = _read_csv(path, "v", [("v", "f8")])
    rates = [m.group(1).strip() for m in map(_RATE_RE.match, comments) if m]
    if not rates:
        raise ValueError(f"{path}: missing '# sample_rate=' comment")
    try:
        rate = float(rates[-1])
    except ValueError:
        raise ValueError(f"{path}: sample_rate: invalid float "
                         f"{rates[-1]!r}") from None
    with naming(path):
        return ReferenceSignal(rate, v)


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


def write_frames(seq: FrameSequence, path) -> None:
    """Write a frame sequence as one multi-image binary PGM file: each frame
    ``P5\\n{w} {h}\\n255\\n`` and its 8-bit raster, back to back, but a
    ``# evenf fps=.. shutter=.. row_readout_s=.. count=..`` line after the
    first magic; rounded _FRAME_BLOCK frames at a time in reused buffers."""
    head = f"P5\n{seq.width} {seq.height}\n255\n".encode()
    v = np.empty((min(len(seq), _FRAME_BLOCK), seq.height * seq.width))
    images = np.empty((len(v), len(head) + v.shape[1]), np.uint8)
    images[:, :len(head)] = np.frombuffer(head, np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n# evenf fps=%g shutter=%s row_readout_s=%.9f count=%d\n"
                 % (seq.fps, seq.shutter.encode(), seq.row_readout, len(seq)))
        for lo in range(0, len(seq), _FRAME_BLOCK):
            n = len(block := seq.frames[lo:lo + _FRAME_BLOCK])
            np.multiply(block.reshape(n, -1), 255.0, out=v[:n])
            images[:n, len(head):] = np.round(v[:n], out=v[:n])
            fh.write(images[:n].reshape(-1)[3 if lo == 0 else 0:])


def read_frames(path) -> FrameSequence:
    """Read a multi-image binary PGM file as write_frames writes it: images
    of one size to its end, as many as the first header's ``count``, scaled
    to [0, 1] by their maxvals (> 255: big-endian 16-bit) in one pass.
    Each header walked cuts the run of images that repeat its bytes at its
    stride, comparing twice as many on each pass, so a file of n header
    forms costs n header matches.  Every error names the file and the
    image."""
    blob = Path(path).read_bytes()
    raw = np.frombuffer(blob, np.uint8)
    rasters, maxvals, pos, first = [], [], 0, None
    while pos < len(blob) or not rasters:
        where = f"{path}: image {len(maxvals)}"
        if (header := _PGM_HEADER_RE.match(blob, pos)) is None:
            raise ValueError(f"{where}: " + (
                "truncated or malformed PGM header"
                if blob.startswith(b"P5", pos) else "not a binary PGM"))
        first = first or header
        w, h, maxval = (int(g) for g in header.groups())
        if not 1 <= maxval <= 65535:
            raise ValueError(f"{where}: maxval {maxval} outside 1..65535")
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        need = w * h * dtype.itemsize
        if len(blob) - header.end() < need:
            raise ValueError(f"{where}: truncated raster: "
                             f"{len(blob) - header.end()} of {need} bytes")
        size, n = header.end() - pos + need, 1
        if blob.startswith(header[0], pos + size):  # a run: cut at its stride
            heads = raw[pos:pos + (len(blob) - pos) // size * size].reshape(
                -1, size)[:, :size - need]
            while n < len(heads):   # each pass compares as many again
                same = np.all(heads[n:2 * n] == heads[0], axis=1)
                n += int(np.append(same, False).argmin())
                if not same.all():
                    break
        rasters.append(np.ndarray((n, h, w), dtype, blob, header.end(),
                                  (size, w * dtype.itemsize, dtype.itemsize)))
        maxvals += [maxval] * n
        pos += n * size
    where, head = f"{path}: image 0", blob[:first.end()]
    try:
        meta = dict(re.findall(r"(\w+)=(\S*)", head.decode("ascii")))
    except UnicodeDecodeError as e:
        raise ValueError(f"{where}: byte 0x{head[e.start]:02x} in the header "
                         "is not ASCII") from None
    missing = [k for k in ("fps", "shutter", "row_readout_s", "count")
               if k not in meta]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    for key, parse in (("fps", float), ("row_readout_s", float), ("count", int)):
        try:
            meta[key] = parse(meta[key])
        except ValueError:
            raise ValueError(f"{where}: {key}: invalid {parse.__name__} "
                             f"{meta[key]!r}") from None
    if len(maxvals) != meta["count"]:
        raise ValueError(f"{where}: count: {meta['count']}, but "
                         f"{len(maxvals)} images")
    _, h, w = rasters[0].shape
    for k, r in zip(np.cumsum([0, *map(len, rasters)]), rasters):
        if r.shape[1:] != (h, w):
            raise ValueError(f"{path}: image {k}: {r.shape[2]}x{r.shape[1]} "
                             f"frame, expected {w}x{h}")
    frames = np.concatenate(rasters) / np.array(maxvals, dtype=np.float64)[:, None, None]
    with naming(where):
        return FrameSequence(frames.shape[2], frames.shape[1], meta["fps"],
                             meta["shutter"], meta["row_readout_s"], frames)
