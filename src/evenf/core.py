"""The value types, the one time order of event streams, and agreement
metrics: the bottom of the package, which imports no other evenf module.

Every type here is an immutable value object backed by read-only numpy
arrays; operations are pure functions.  Times are seconds, frequencies Hz.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GridConfig",
    "EventStream",
    "EnfTrace",
    "PolaritySequence",
    "ReferenceSignal",
    "FrameSequence",
    "pearson_cc",
    "mae",
]


def _frozen(values, dtype) -> np.ndarray:
    """A read-only view of values as a contiguous dtype array; an array
    that needs no conversion stays writable to its owner."""
    arr = np.ascontiguousarray(values, dtype=dtype).view()
    arr.setflags(write=False)
    return arr


def require_finite(cfg) -> None:
    """Reject a config dataclass holding NaN or +/-inf, naming the field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def fields_equal(a, b) -> bool:
    """Field-by-field equality of two dataclasses of one type, with
    np.array_equal for the array fields: the __eq__ of the array-backed
    value types."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in fields(a)))


def require_below_2_63(what: str, *bounds) -> None:
    """Refuse values from 2**63 up in magnitude: the CSV writers spell a
    value's whole part as an int64."""
    if max(map(abs, bounds), default=0.0) >= 2.0 ** 63:
        raise ValueError(f"{what} must lie below 2**63 in magnitude")


class Refused(ValueError):
    """A refusal that names its own cause, a setting or a memory limit,
    not an input file: naming passes it."""


def require_memory(n_bytes: float, what: str) -> None:
    """Refuse n_bytes beyond physical memory as ``<what> need N GiB, more
    than the M GiB of physical memory``; stands aside without os.sysconf."""
    if not hasattr(os, "sysconf"):
        return
    need = n_bytes / 2**30
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    if need > have:
        raise Refused(f"{what} need {need:.3g} GiB, more than the "
                      f"{have:.3g} GiB of physical memory")


@contextmanager
def naming(where):
    """Re-raise a ValueError from the block as ``where: message``, so
    that an input error names its file."""
    try:
        yield
    except Refused:
        raise
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


@dataclass(frozen=True)
class GridConfig:
    """Mains-grid parameters.  Grid-powered lights flicker at twice the
    nominal frequency, so a 50 Hz grid produces 100 Hz illumination."""

    nominal_hz: float = 50.0

    def __post_init__(self):
        if float(self.nominal_hz) not in (50.0, 60.0):
            raise ValueError("nominal_hz must be 50 or 60")

    @property
    def flicker_hz(self) -> float:
        return 2.0 * float(self.nominal_hz)


@dataclass(frozen=True, eq=False)
class EventStream:
    """Time-ordered signed pixel firings, stored as parallel arrays.

    Invariants: ``t`` is non-decreasing (ties keep insertion order),
    coordinates lie inside the sensor, polarity is -1 or +1.
    """

    sensor_width: int
    sensor_height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not (0 < self.sensor_width < 2**31 and 0 < self.sensor_height < 2**31):
            raise ValueError("sensor dimensions must be positive and fit int32")
        t = _frozen(self.t, np.float64)
        # checked at input width, so that narrowing cannot wrap a bad value
        x, y, p = np.asarray(self.x), np.asarray(self.y), np.asarray(self.p)
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1):
            raise ValueError("event columns must be one-dimensional")
        if not (len(t) == len(x) == len(y) == len(p)):
            raise ValueError("event columns must have equal length")
        # NaN compares false, so order plus finite ends rules out NaN and inf
        if len(t) and not (np.isfinite(t[0]) and np.isfinite(t[-1])
                           and np.all(t[1:] >= t[:-1])):
            raise ValueError("event timestamps must be finite and non-decreasing")
        require_below_2_63("event timestamps", *t[:1], *t[-1:])
        if len(t) and not (x.min() >= 0 and x.max() < self.sensor_width
                           and y.min() >= 0 and y.max() < self.sensor_height):
            raise ValueError("event coordinates outside sensor bounds")
        if len(t) and not np.all(np.abs(p) == 1):
            raise ValueError("polarity must be -1 or +1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", _frozen(x, np.int32))
        object.__setattr__(self, "y", _frozen(y, np.int32))
        object.__setattr__(self, "p", _frozen(p, np.int8))

    def __len__(self) -> int:
        return len(self.t)

    __eq__ = fields_equal


# events per chunk of the temporaries of a stream's sort and gathers (2 MB
# of keys; one holds an _assemble block of the 120 s dynamic scene, ~90 k)
_SORT_CHUNK = 1 << 18


def _time_order(t: np.ndarray) -> np.ndarray:
    """np.argsort(t, kind="stable") for any t without NaN, signed zeros
    equal: every event stream is put in time order by this one function.

    One in-place sort of uint64 keys, the bits of t + 0.0 in float order
    (as they are for times >= 0; negative ones need a flip) with the index
    in the low (n-1).bit_length() bits, puts equal truncated keys in index
    order: the stable order of exactly equal times.  Only a run of them
    holding two unequal times is re-sorted, by (t, index).  Beside t, the
    keys and a byte an event it holds one chunk of temporaries at a time.
    """
    n = len(t)
    low = (1 << (n - 1).bit_length()) - 1       # the index bits
    key = (t + 0.0).view(np.uint64)
    negative = n and t.min() < 0
    for i in range(0, n, _SORT_CHUNK):
        k = key[i:i + _SORT_CHUNK]
        if negative:
            flip = k >> 63
            np.negative(flip, out=flip)     # all bits of negative times
            flip |= np.uint64(1 << 63)      # the sign bit of the others
            k ^= flip
        k &= ~np.uint64(low)
        k |= np.arange(i, i + len(k), dtype=np.uint64)
    key.sort()
    same = np.empty(max(n - 1, 0), dtype=bool)  # neighbours' truncated keys
    for i in range(0, n - 1, _SORT_CHUNK):
        k = key[i:i + _SORT_CHUNK + 1]
        np.less_equal(k[1:] ^ k[:-1], low, out=same[i:i + _SORT_CHUNK])
    tie = np.flatnonzero(same)
    order = key.view(np.int64)
    order &= low
    # a run of ties holds two unequal times iff two neighbours in it do
    unequal = t[order[tie]] != t[order[tie + 1]]
    if unequal.any():
        run = np.cumsum(np.diff(tie, prepend=-2) != 1) - 1
        mixed = np.zeros(run[-1] + 1, dtype=bool)
        mixed[run[unequal]] = True
        tie = tie[mixed[run]]
        # np.union1d(tie, tie + 1) without np.unique, which imports numpy.ma
        member = np.sort(np.concatenate((tie, tie + 1)))
        member = member[np.diff(member, prepend=-1) != 0]
        idx = order[member]
        order[member] = idx[np.lexsort((idx, t[idx]))]
    return order


def _time_sorted(cols: list) -> list:
    """Put cols, the times first, in the times' stable order, in place: no
    column is held in both orders, as each is replaced once gathered, and
    the sorted times fill the order's own buffer one chunk at a time."""
    t = cols[0]
    if not np.any(t[1:] < t[:-1]):
        return cols
    order = _time_order(t)
    for i in range(1, len(cols)):
        cols[i] = cols[i][order]
    out = order.view(np.float64)    # each chunk of the order is read first
    for i in range(0, len(t), _SORT_CHUNK):
        out[i:i + _SORT_CHUNK] = t[order[i:i + _SORT_CHUNK]]
    cols[0] = out
    return cols


@dataclass(frozen=True, eq=False)
class _UniformSeries:
    """Values sampled every ``step`` seconds from ``t0``.  A subtype names
    their stored ``_dtype`` and, in ``_check``, their rule, which sees
    them at input width, so that narrowing cannot wrap a bad value."""

    t0: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        v = np.asarray(self.values)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("values must be a non-empty 1-d array")
        self._check(v)
        object.__setattr__(self, "values", _frozen(v, self._dtype))
        require_below_2_63("times", self.t0, self.t_end)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.values))

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def __len__(self) -> int:
        return len(self.values)

    __eq__ = fields_equal


class EnfTrace(_UniformSeries):
    """Uniformly sampled instantaneous-frequency estimate.

    ``values[n]`` is the frequency at time ``t0 + n*step``.
    """

    _dtype = np.float64

    @staticmethod
    def _check(v):
        if not np.all(np.isfinite(v)):
            raise ValueError("trace values must be finite")
        require_below_2_63("trace values", v.min(), v.max())


class PolaritySequence(_UniformSeries):
    """Uniformly sampled majority-vote polarity, values in {-1, 0, +1}."""

    _dtype = np.int8

    @staticmethod
    def _check(v):
        if not np.all(np.isin(v, (-1, 0, 1))):
            raise ValueError("polarity votes must be -1, 0, or +1")

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.step


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


# frames per block of simulate_frames' exposure integral, whose temporaries
# hold 16 samples of every row of every frame in it, and of write_frames
_FRAME_BLOCK = 256
_SHUTTERS = ("global", "rolling")


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """A stack of frames with the timing needed to interpret them."""

    width: int
    height: int
    fps: float
    shutter: str
    row_readout: float
    frames: np.ndarray

    def __post_init__(self):
        if self.shutter not in _SHUTTERS:
            raise ValueError("shutter must be %r or %r" % _SHUTTERS)
        if not 0.0 < self.fps < math.inf:
            raise ValueError("fps must be positive and finite")
        if not 0.0 <= self.row_readout < math.inf:
            raise ValueError("row_readout must be finite and non-negative")
        f = _frozen(self.frames, np.float64)
        if f.ndim != 3 or f.shape[1] != self.height or f.shape[2] != self.width:
            raise ValueError("frames must have shape (n, height, width)")
        if len(f) and (f.min() < 0.0 or f.max() > 1.0):
            raise ValueError("frame values must lie in [0, 1]")
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return len(self.frames)

    __eq__ = fields_equal


def _paired_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ValueError("length mismatch: need two 1-d arrays of equal length")
    return va, vb


def pearson_cc(a, b) -> float:
    """Pearson correlation coefficient of two equal-length arrays (signed).

    Raises ValueError("zero variance") when either input is constant; a
    correlation against a flat trace is undefined, not zero.
    """
    va, vb = _paired_values(a, b)
    if len(va) < 2:
        raise ValueError("need at least two samples for a correlation")
    da = va - va.mean()
    db = vb - vb.mean()
    na = np.sqrt(np.dot(da, da))
    nb = np.sqrt(np.dot(db, db))
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero variance")
    return float(np.dot(da, db) / (na * nb))


def mae(a, b) -> float:
    """Mean absolute error between two equal-length arrays, in Hz."""
    va, vb = _paired_values(a, b)
    return float(np.mean(np.abs(va - vb)))
