"""Physics-based synthesis: ENF wander, flickering illumination, event
streams, and frame sequences.

The simulator is the closed-loop oracle for the extraction pipeline: it
produces ground-truth frequency traces alongside the sensor data derived
from them.  An event pixel fires whenever the log intensity moves a full
threshold away from the level at its previous firing, so for a static
scene under spatially uniform illumination every pixel shares one
crossing schedule (the scene's own reflectance is a constant offset in
log space and cancels).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import EnfTrace, EventStream, GridConfig, require_finite

__all__ = [
    "EnfProcessConfig",
    "IlluminationModel",
    "SensorConfig",
    "ContaminationConfig",
    "FrameConfig",
    "FrameSequence",
    "OccluderConfig",
    "synthesize_enf",
    "flicker_phase",
    "illumination_at",
    "log_expansion_coeffs",
    "illumination_crossings",
    "simulate_events",
    "simulate_frames",
]


@dataclass(frozen=True)
class EnfProcessConfig:
    """Mean-reverting random-walk model of grid-frequency wander.

    deviation_std is the standard deviation of the frequency increment
    accumulated over one second (Hz/sqrt(s)); mean_reversion pulls the
    deviation back toward zero (1/s); max_deviation hard-clips the
    excursion (Hz), mirroring how tightly real grids are regulated.
    """

    deviation_std: float = 0.003
    max_deviation: float = 0.05
    mean_reversion: float = 0.005

    def __post_init__(self):
        require_finite(self)
        if self.deviation_std < 0:
            raise ValueError("deviation_std must be non-negative")
        if self.max_deviation <= 0:
            raise ValueError("max_deviation must be positive")
        if self.mean_reversion < 0:
            raise ValueError("mean_reversion must be non-negative")


@dataclass(frozen=True)
class IlluminationModel:
    """Sinusoidal luminous intensity I(t) = A*cos(phase(t) + phi) + B.

    bias > amplitude > 0 keeps the intensity strictly positive, which the
    logarithmic sensor front end requires.  A phase of 0 starts the
    flicker at its peak, where the sensor's threshold rungs sit on a
    knife edge; 0.3 rad keeps them off it.
    """

    amplitude: float = 1.0
    bias: float = 2.0
    phase: float = 0.3

    def __post_init__(self):
        require_finite(self)
        if not (self.bias > self.amplitude > 0.0):
            raise ValueError("require bias > amplitude > 0")


@dataclass(frozen=True)
class SensorConfig:
    """Event-sensor geometry and firing behaviour."""

    width: int = 4
    height: int = 4
    threshold_c: float = 0.1
    sim_step: float = 2e-4
    refractory: float = 0.0
    # std dev (s) of per-event reporting latency; 0 keeps exact
    # crossing times.  Real pixels report late by a load- and
    # illumination-dependent amount, which decoheres the high
    # harmonics of the crossing schedule.
    timestamp_jitter: float = 5e-4

    def __post_init__(self):
        require_finite(self)
        if self.width < 1 or self.height < 1:
            raise ValueError("sensor dimensions must be positive")
        if self.threshold_c <= 0:
            raise ValueError("threshold_c must be positive")
        if self.sim_step <= 0:
            raise ValueError("sim_step must be positive")
        if self.refractory < 0:
            raise ValueError("refractory must be non-negative")
        if self.timestamp_jitter < 0:
            raise ValueError("timestamp_jitter must be non-negative")


@dataclass(frozen=True)
class ContaminationConfig:
    """Non-illumination event sources injected into the stream.

    Motion is abstracted as co-located polarity pairs (one +1 and one -1
    at the same pixel and timestamp), the signature of an edge passing a
    pixel; noise events are independent uniform firings.  burst_fraction
    concentrates that share of the motion pairs into short (0.1 s)
    windows instead of spreading them uniformly.
    """

    motion_pair_rate: float = 0.0
    noise_rate: float = 0.0
    burst_fraction: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.motion_pair_rate < 0 or self.noise_rate < 0:
            raise ValueError("rates must be non-negative")
        if not (0.0 <= self.burst_fraction <= 1.0):
            raise ValueError("burst_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class OccluderConfig:
    """A dark rectangle swept across the scene for frame-level motion.

    The rectangle drifts at (velocity_x, velocity_y) px/s and, when
    jitter_px > 0, shakes around that path with white positional noise
    evaluated at every shutter sample time.  A smooth drift only
    disturbs frequencies near velocity/width; the shake is what spreads
    disturbance power across the whole sampled band the way handheld or
    fluttering occlusions do.
    """

    width_frac: float = 0.5
    height_frac: float = 0.5
    intensity: float = 0.15
    velocity_x: float = 40.0
    velocity_y: float = 9.0
    jitter_px: float = 4.0

    def __post_init__(self):
        require_finite(self)
        if not (0.0 < self.width_frac <= 1.0 and 0.0 < self.height_frac <= 1.0):
            raise ValueError("occluder size fractions must lie in (0, 1]")
        if self.intensity < 0:
            raise ValueError("occluder intensity must be non-negative")
        if self.jitter_px < 0:
            raise ValueError("jitter_px must be non-negative")


@dataclass(frozen=True)
class FrameConfig:
    """Frame-camera geometry and shutter timing."""

    width: int = 32
    height: int = 32
    fps: float = 30.0
    shutter: str = "rolling"
    # per-row readout delay (s); 1/960 spreads 32 rows over a full 30 fps
    # frame interval.  Ignored by the global shutter.
    row_readout: float = 1.0 / 960.0
    # sensor integration time per sample (s); 0 samples instantaneously.
    # A real exposure low-pass filters the flicker: at 100 Hz the line
    # shrinks by |sinc(100*exposure)|, which is most of why frame-based
    # estimates are so much more fragile than event-based ones.
    exposure: float = 0.0095
    # per-pixel Gaussian read noise (fraction of full scale), added
    # before clipping, so deep saturation stays pegged at white
    noise_std: float = 0.0
    # intensity quantization of the rendered frames; None keeps the
    # continuous values (8 matches what the PGM writer stores)
    bit_depth: Optional[int] = 8

    def __post_init__(self):
        require_finite(self)
        if self.shutter not in ("global", "rolling"):
            raise ValueError("shutter must be 'global' or 'rolling'")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be positive")
        if not 0.0 <= self.exposure <= 1.0 / self.fps:
            raise ValueError("exposure must lie in [0, 1/fps]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.bit_depth is not None and not (1 <= self.bit_depth <= 16):
            raise ValueError("bit_depth must be in [1, 16] or None")
        if self.shutter == "rolling":
            if self.row_readout <= 0:
                raise ValueError("rolling shutter requires row_readout > 0")
            # all rows must be read out before the next frame starts
            if self.row_readout * self.height > 1.0 / self.fps + 1e-12:
                raise ValueError("row readout exceeds the frame interval")


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
        if self.shutter not in ("global", "rolling"):
            raise ValueError("shutter must be 'global' or 'rolling'")
        if not 0.0 < self.fps < math.inf:
            raise ValueError("fps must be positive and finite")
        f = np.ascontiguousarray(self.frames, dtype=np.float64)
        if f.ndim != 3 or f.shape[1] != self.height or f.shape[2] != self.width:
            raise ValueError("frames must have shape (n, height, width)")
        if len(f) and (f.min() < 0.0 or f.max() > 1.0):
            raise ValueError("frame values must lie in [0, 1]")
        f.setflags(write=False)
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return len(self.frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameSequence):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and self.fps == other.fps and self.shutter == other.shutter
                and self.row_readout == other.row_readout
                and np.array_equal(self.frames, other.frames))


def synthesize_enf(cfg: EnfProcessConfig, grid: GridConfig, duration: float,
                   step: float, seed: int = 0) -> EnfTrace:
    """Draw one ENF realization covering [0, duration], sampled every
    ``step`` seconds around ``grid.nominal_hz``.

    The deviation follows d[n+1] = d[n]*(1 - reversion*step) + w[n] with
    w ~ N(0, deviation_std^2 * step), clipped to +/- max_deviation.
    Deterministic for a given seed.
    """
    if not 0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(math.ceil(duration / step)) + 1
    nominal = float(grid.nominal_hz)
    if cfg.deviation_std == 0.0:
        return EnfTrace(0.0, step, np.full(n, nominal))
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal(n - 1) * (cfg.deviation_std * math.sqrt(step))
    decay = 1.0 - cfg.mean_reversion * step
    d = np.empty(n)
    d[0] = 0.0
    lim = cfg.max_deviation
    for i in range(n - 1):
        nxt = d[i] * decay + incr[i]
        d[i + 1] = min(max(nxt, -lim), lim)
    return EnfTrace(0.0, step, nominal + d)


def flicker_phase(enf: EnfTrace, t) -> np.ndarray:
    """Illumination phase 4*pi*integral of f_e from the trace start to t.

    The trace is treated as piecewise linear, so trapezoidal accumulation
    over its grid plus a partial trapezoid into the final cell is the
    exact integral.  t may be scalar or array and must lie inside the
    trace support.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < enf.t0 - 1e-12) or np.any(t > enf.t_end + 1e-12):
        raise ValueError("query time outside the trace support")
    times = enf.times
    v = enf.values
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * enf.step)))
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(v) - 2)
    dt = np.clip(t - times[i], 0.0, enf.step)
    slope = (v[i + 1] - v[i]) / enf.step
    partial = v[i] * dt + 0.5 * slope * dt * dt
    return 4.0 * math.pi * (cum[i] + partial)


def illumination_at(model: IlluminationModel, enf: EnfTrace, t) -> np.ndarray:
    """Instantaneous luminous intensity at time t.

    The light flickers at exactly twice the instantaneous grid frequency,
    hence the factor 4*pi in the accumulated phase.
    """
    phi = flicker_phase(enf, t)
    return model.amplitude * np.cos(phi + model.phase) + model.bias


def log_expansion_coeffs(model: IlluminationModel, order_m: int) -> np.ndarray:
    """Cosine-series coefficients of log(A*cos(w) + B).

    With p = (B + sqrt(B^2 - A^2))/2 and q = (B - sqrt(B^2 - A^2))/A the
    identity A*cos(w) + B = p*(1 + q*exp(iw))*(1 + q*exp(-iw)) gives

        log I = log p + sum_m 2*(-1)^(m-1) * q^m / m * cos(m*w).

    Returns [log p, c_1, ..., c_M].  Requires B > A > 0 so that |q| < 1;
    otherwise the series has no radius to converge in and the call fails
    with "expansion diverges".
    """
    a, b = model.amplitude, model.bias
    if order_m < 1:
        raise ValueError("order_m must be at least 1")
    if not (b > a > 0.0):
        raise ValueError("expansion diverges: require bias > amplitude > 0")
    root = math.sqrt(b * b - a * a)
    p = 0.5 * (b + root)
    q = (b - root) / a
    m = np.arange(1, order_m + 1)
    coeffs = 2.0 * (-1.0) ** (m - 1) * q ** m / m
    return np.concatenate(([math.log(p)], coeffs))


def _ladder_crossings(t_grid: np.ndarray, log_i: np.ndarray,
                      threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Event times/polarities of a threshold ladder walked along log_i.

    The reference level starts at log_i[0] and advances by exactly one
    threshold per event, so firings are the crossings of the fixed rung
    grid log_i[0] + k*threshold.  Crossing times are linearly
    interpolated inside grid cells; a cell may contain several rungs and
    then yields several events at distinct sub-step times.
    """
    g = (log_i - log_i[0]) / threshold
    sgn = np.sign(np.diff(g))
    moving = np.flatnonzero(sgn)
    if moving.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int8)
    # maximal same-sign runs of cells; interior plateau cells are harmless
    flips = np.flatnonzero(sgn[moving[1:]] != sgn[moving[:-1]])
    first = moving[np.concatenate(([0], flips + 1))]
    last = moving[np.concatenate((flips, [moving.size - 1]))]
    up = sgn[first] > 0

    # The reference rung r stays within one threshold of g, so after a run
    # ending at g_end it lies in [floor(g_end), ceil(g_end)]: a run up
    # leaves max(r, floor(g_end)), a run down min(r, ceil(g_end)), and
    # both are r clamped into that interval.  Clamping into an interval
    # other than the previous one gives the same rung from any point of
    # the previous one, so r only carries over while the interval repeats.
    g_end = g[last + 1]
    lo, hi = np.floor(g_end), np.ceil(g_end)
    prev_lo = np.concatenate(([0.0], lo[:-1]))
    prev_hi = np.concatenate(([0.0], hi[:-1]))
    changed = (lo != prev_lo) | (hi != prev_hi)
    rung = np.clip(prev_lo, lo, hi)[np.maximum.accumulate(
        np.where(changed, np.arange(len(lo)), 0))]
    before = np.concatenate(([0.0], rung[:-1]))
    k_min = np.where(up, before + 1.0, rung)      # fired rungs, ascending
    k_max = np.where(up, rung, before - 1.0)

    # Cell i joins grid points i and i+1; a and b are its points at the
    # lower and the upper g, which is how np.interp sees the run (reversed
    # for a run down).  Each fired rung k falls in the cell with
    # g[a] <= k < g[b], or k == g[b] at the top of a run up, and the cells
    # of a run, in time order, hold its rungs in firing order.
    c0, c1 = first[0], last[-1] + 1
    cell = np.arange(c0, c1)
    run = np.zeros(c1 - c0, dtype=np.int64)
    run[first - c0] = 1
    run = np.cumsum(run) - 1
    cell_up = up[run]
    a = cell + ~cell_up
    b = cell + cell_up
    top = np.where(cell_up & (cell == last[run]), np.floor(g[b]),
                   np.ceil(g[b]) - 1.0)
    k_lo = np.maximum(np.ceil(g[a]), k_min[run])
    k_hi = np.minimum(top, k_max[run])
    count = np.maximum(k_hi - k_lo + 1.0, 0.0).astype(np.int64)
    hit = np.flatnonzero(count)
    if hit.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int8)
    n = count[hit]
    ev = np.repeat(hit, n)
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    ev_up = cell_up[ev]
    k = np.where(ev_up, k_lo[ev] + rank, k_hi[ev] - rank)

    # np.interp's arithmetic, so that the times are bit-identical to
    # interpolating each run on its own
    a, b = a[ev], b[ev]
    slope = (t_grid[b] - t_grid[a]) / (g[b] - g[a])
    times = np.where(k == g[b], t_grid[b], slope * (k - g[a]) + t_grid[a])
    return times, np.where(ev_up, 1, -1).astype(np.int8)


def _refractory_filter(times: np.ndarray, pols: np.ndarray,
                       gap: float) -> tuple[np.ndarray, np.ndarray]:
    keep = np.zeros(len(times), dtype=bool)
    last = -np.inf
    for i, tv in enumerate(times):
        if tv - last >= gap:
            keep[i] = True
            last = tv
    return times[keep], pols[keep]


# (sensor, model, trace, weak references to its times and polarities)
# of the last walk; holding the trace keeps its id from being reused.
_last_walk: tuple = (None, None, None, lambda: None, lambda: None)


def illumination_crossings(sensor: SensorConfig, model: IlluminationModel,
                           enf: EnfTrace) -> tuple[np.ndarray, np.ndarray]:
    """Times and polarities of the events one pixel fires under the
    flicker: the crossing schedule every pixel of a static scene shares.

    The ladder is walked on a sim_step grid over the trace support, and
    events closer than sensor.refractory to the last kept one are dropped.
    A repeat call with equal configs and the same trace object returns
    the last walk's read-only arrays while a caller still holds them.
    """
    global _last_walk
    ct, cp = _last_walk[3](), _last_walk[4]()
    if (_last_walk[2] is enf and _last_walk[:2] == (sensor, model)
            and ct is not None and cp is not None):
        return ct, cp
    flicker_max = 2.0 * float(np.max(enf.values))
    if sensor.sim_step > 1.0 / (20.0 * flicker_max):
        raise ValueError("undersampled simulation: shrink sim_step to at "
                         "least 20 samples per flicker cycle")
    n_steps = int(math.floor((enf.t_end - enf.t0) / sensor.sim_step)) + 1
    t_grid = enf.t0 + sensor.sim_step * np.arange(n_steps)
    log_i = np.log(illumination_at(model, enf, t_grid))
    ct, cp = _ladder_crossings(t_grid, log_i, sensor.threshold_c)
    if sensor.refractory > 0.0 and len(ct):
        ct, cp = _refractory_filter(ct, cp, sensor.refractory)
    ct.setflags(write=False)
    cp.setflags(write=False)
    _last_walk = (sensor, model, enf, weakref.ref(ct), weakref.ref(cp))
    return ct, cp


def _time_order(t: np.ndarray) -> np.ndarray:
    """np.argsort(t, kind="stable") from one sort of packed keys: the
    float bits mapped to uint64 of the same order (t + 0.0 folds -0.0
    into 0.0) with the low bits replaced by the index; runs of equal
    truncated keys are then re-sorted by (t, index)."""
    bits = (len(t) - 1).bit_length()
    key = (t + 0.0).view(np.uint64)
    flip = key >> 63
    np.negative(flip, out=flip)            # all bits of negative times
    flip |= np.uint64(1 << 63)             # the sign bit of the others
    key ^= flip
    del flip
    key &= ~np.uint64((1 << bits) - 1)
    key |= np.arange(len(t), dtype=np.uint64)
    key.sort()
    tie = np.flatnonzero((key[1:] ^ key[:-1]) < (1 << bits))
    order = key.view(np.int64)
    order &= (1 << bits) - 1
    if tie.size:
        member = np.union1d(tie, tie + 1)
        idx = order[member]
        order[member] = idx[np.lexsort((idx, t[idx]))]
    return order


def _sort_by_time(t: np.ndarray, *cols: np.ndarray) -> tuple:
    """Columns reordered as np.argsort(t, kind="stable") would, for times
    in random order, where one packed-key sort beats numpy's argsorts."""
    order = _time_order(t)
    return tuple(c[order] for c in (t,) + cols)


def _merge_sorted(w: int, h: int, ill, pairs, noise) -> EventStream:
    """One stream from three time-ordered sources: illumination and noise
    columns (t, x, y, p), and motion pairs (t, x, y) that each fill two
    slots, +1 then -1.

    At equal times illumination comes first and noise last, and each
    source keeps its own order, as a stable sort of the three
    concatenated would have it.
    """
    n_ill, n_pairs = len(ill[0]), len(pairs[0])
    order = np.argsort(np.concatenate((ill[0], pairs[0], noise[0])),
                       kind="stable")
    is_pair = (order >= n_ill) & (order < n_ill + n_pairs)
    slot = np.cumsum(is_pair)
    slot -= is_pair
    slot += np.arange(len(order))
    at = np.empty_like(order)
    at[order] = slot
    del order, is_pair, slot        # before the output columns exist
    at_ill, at_plus, at_noise = np.split(at, [n_ill, n_ill + n_pairs])
    n = len(at) + n_pairs
    at_minus = at_plus + 1
    t, x, y, p = (np.empty(n), np.empty(n, dtype=np.int32),
                  np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int8))
    for col, a, b, c in zip((t, x, y), ill, pairs, noise):
        col[at_ill] = a
        col[at_plus] = b
        col[at_minus] = b
        col[at_noise] = c
    p[at_ill] = ill[3]
    p[at_plus] = 1
    p[at_minus] = -1
    p[at_noise] = noise[3]
    return EventStream(w, h, t, x, y, p)


def simulate_events(sensor: SensorConfig, model: IlluminationModel,
                    enf: EnfTrace,
                    contamination: ContaminationConfig = ContaminationConfig(),
                    seed: int = 0) -> EventStream:
    """Simulate an event stream for a static scene under flickering light.

    Illumination events are computed once (all pixels share the crossing
    schedule) and replicated across the sensor.  With timestamp_jitter > 0
    each replicated event (and each motion pair, as a unit) is delayed by
    an independent Gaussian reporting latency, which breaks the perfect
    cross-pixel phase coherence an ideal schedule would have.  Each source
    (illumination, motion pairs, noise) is put in time order on its own,
    and the three are then merged; equal times, which the clip to the
    trace support makes common at its ends, keep that source order and,
    within a source, the order of the draws, so the stream is
    deterministic for a given seed.  The jittered schedule is nearly
    sorted and the merge joins three sorted runs, which numpy's stable
    timsort exploits; motion-pair and noise times arrive in random order,
    where one packed-key sort (_time_order) is faster.
    """
    ct, cp = illumination_crossings(sensor, model, enf)
    t_start, t_end = enf.t0, enf.t_end
    duration = t_end - t_start
    w, h = sensor.width, sensor.height
    npx = w * h
    rng = np.random.default_rng(seed)

    n_pairs = int(rng.poisson(contamination.motion_pair_rate * duration))
    n_burst = int(round(contamination.burst_fraction * n_pairs))
    t_pair = np.empty(n_pairs)
    t_pair[:n_pairs - n_burst] = rng.uniform(t_start, t_end, n_pairs - n_burst)
    if n_burst:
        n_windows = max(1, int(round(duration / 10.0)))
        centers = rng.uniform(t_start, t_end, n_windows)
        pick = rng.integers(0, n_windows, n_burst)
        jitter = rng.uniform(-0.05, 0.05, n_burst)
        t_pair[n_pairs - n_burst:] = np.clip(centers[pick] + jitter,
                                             t_start, t_end)
    x_pair = rng.integers(0, w, n_pairs).astype(np.int32)
    y_pair = rng.integers(0, h, n_pairs).astype(np.int32)

    n_noise = int(rng.poisson(contamination.noise_rate * npx * duration))
    t_noi = rng.uniform(t_start, t_end, n_noise)
    x_noi = rng.integers(0, w, n_noise).astype(np.int32)
    y_noi = rng.integers(0, h, n_noise).astype(np.int32)
    p_noi = (2 * rng.integers(0, 2, n_noise) - 1).astype(np.int8)

    # filled, not np.repeat-ed: np.repeat copies a read-only input first
    t_ill = np.empty((len(ct), npx))
    t_ill[...] = ct[:, None]
    t_ill = t_ill.ravel()
    if sensor.timestamp_jitter > 0.0:
        t_ill += rng.normal(0.0, sensor.timestamp_jitter, len(t_ill))
        np.clip(t_ill, t_start, t_end, out=t_ill)
        # both members of a pair come from one edge crossing, so they
        # share a reporting delay and stay vote-balanced
        t_pair += rng.normal(0.0, sensor.timestamp_jitter, n_pairs)
        np.clip(t_pair, t_start, t_end, out=t_pair)

    order = np.argsort(t_ill, kind="stable")
    ill = (t_ill[order],
           np.tile(np.arange(w, dtype=np.int32), h * len(ct))[order],
           np.tile(np.repeat(np.arange(h, dtype=np.int32), w),
                   len(ct))[order],
           np.repeat(cp, npx)[order])
    del t_ill, order
    if n_pairs == 0 and n_noise == 0:
        return EventStream(w, h, *ill)
    pairs = _sort_by_time(t_pair, x_pair, y_pair)
    noise = _sort_by_time(t_noi, x_noi, y_noi, p_noi)
    return _merge_sorted(w, h, ill, pairs, noise)


def _occluder_factor(occ: OccluderConfig, width: int, height: int,
                     t_row: np.ndarray, rng,
                     shared_rows: bool) -> np.ndarray:
    """Per-pixel attenuation (n_frames, height, width) for the occluder.

    t_row holds the exposure time of every row of every frame, so a
    rolling shutter sees the rectangle at a slightly different position
    in each row, exactly like a real moving object.  shared_rows marks a
    global shutter, whose rows expose together and must share one jitter
    draw per frame.
    """
    n, h = t_row.shape
    ow = max(1, int(round(occ.width_frac * width)))
    oh = max(1, int(round(occ.height_frac * height)))
    x_path = occ.velocity_x * t_row
    y_path = occ.velocity_y * t_row
    if occ.jitter_px > 0.0:
        shape = (n, 1) if shared_rows else (n, h)
        x_path = x_path + rng.normal(0.0, occ.jitter_px, shape)
        y_path = y_path + rng.normal(0.0, occ.jitter_px, shape)
    x0 = np.rint(x_path).astype(np.int64) % width
    y0 = np.rint(y_path).astype(np.int64) % height

    rows = np.arange(h)[None, :]
    covered = ((rows - y0) % height) < oh                    # (n, h)
    factor = np.ones((n, h, width))
    k_i, r_i = np.nonzero(covered)
    cols = (x0[k_i, r_i][:, None] + np.arange(ow)[None, :]) % width
    factor[k_i[:, None], r_i[:, None], cols] = occ.intensity
    return factor


def simulate_frames(model: IlluminationModel, enf: EnfTrace,
                    cfg: FrameConfig, scene_texture: np.ndarray,
                    occluder: Optional[OccluderConfig] = None,
                    seed: int = 0) -> FrameSequence:
    """Render a frame sequence of a textured scene under the flicker.

    Pixel value = clamp(texture * I(t) / (amplitude + bias), 0, 1);
    the normalization by the peak intensity plays the role of exposure, so
    textures above 1 overexpose (clip) and tiny textures underexpose.
    Global shutter samples the whole frame k at k/fps; rolling shutter
    samples row r at k/fps + r*row_readout.  An optional occluder darkens
    a moving rectangular region, re-evaluated at every shutter sample;
    the seed only feeds the occluder's positional jitter.  Values are
    rounded to cfg.bit_depth on the way out.
    """
    tex = np.asarray(scene_texture, dtype=np.float64)
    if tex.shape != (cfg.height, cfg.width):
        raise ValueError("scene_texture shape must match (height, width)")
    if tex.min() < 0:
        raise ValueError("scene_texture must be non-negative")
    frame_span = (cfg.height - 1) * cfg.row_readout if cfg.shutter == "rolling" else 0.0
    n_frames = int(math.floor(
        (enf.t_end - enf.t0 - frame_span - cfg.exposure) * cfg.fps)) + 1
    if n_frames < 1:
        raise ValueError("trace support too short for a single frame")

    frame_t = enf.t0 + np.arange(n_frames) / cfg.fps
    if cfg.shutter == "global":
        t_row = np.broadcast_to(frame_t[:, None], (n_frames, cfg.height))
    else:
        t_row = frame_t[:, None] + cfg.row_readout * np.arange(cfg.height)[None, :]

    if cfg.exposure > 0.0:
        # average the flicker over the integration window (16 strata
        # keep the worst-case quadrature error far below 8-bit steps)
        offsets = (np.arange(16) + 0.5) / 16.0 * cfg.exposure
        sampled = illumination_at(model, enf,
                                  (t_row[..., None] + offsets).ravel())
        intensity = sampled.reshape(t_row.shape + (16,)).mean(axis=-1)
    else:
        intensity = illumination_at(model, enf,
                                    t_row.ravel()).reshape(t_row.shape)
    if cfg.shutter == "global":
        modulation = intensity[:, 0][:, None, None]
    else:
        modulation = intensity[:, :, None]                        # (n, h, 1)

    scale = 1.0 / (model.amplitude + model.bias)
    raw = tex[None, :, :] * (modulation * scale)
    rng = np.random.default_rng([seed, 977])
    if occluder is not None:
        # the occluder is evaluated at mid-exposure; at these speeds
        # its blur within one integration window is below a pixel
        raw = raw * _occluder_factor(occluder, cfg.width, cfg.height,
                                     t_row - enf.t0 + cfg.exposure / 2.0,
                                     rng,
                                     shared_rows=cfg.shutter == "global")
    if cfg.noise_std > 0.0:
        raw = raw + rng.normal(0.0, cfg.noise_std, raw.shape)
    frames = np.clip(raw, 0.0, 1.0)
    if cfg.bit_depth is not None:
        levels = float(2 ** cfg.bit_depth - 1)
        frames = np.round(frames * levels) / levels
    return FrameSequence(cfg.width, cfg.height, cfg.fps, cfg.shutter,
                         cfg.row_readout, frames)
