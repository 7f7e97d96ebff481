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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .core import (_FRAME_BLOCK, _SHUTTERS, EnfTrace, EventStream,
                   FrameSequence, GridConfig, _time_order, _time_sorted,
                   require_finite, require_memory)

__all__ = [
    "EnfProcessConfig",
    "IlluminationModel",
    "SensorConfig",
    "ContaminationConfig",
    "FrameConfig",
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
    """Event-sensor geometry and ideal log-threshold firing."""

    width: int = 4
    height: int = 4
    threshold_c: float = 0.1
    sim_step: float = 2e-4
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
    """Noise-free frame-camera geometry, shutter timing and depth."""

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
    # intensity quantization of the rendered frames; None keeps the
    # continuous values (8 matches what the PGM writer stores)
    bit_depth: Optional[int] = 8

    def __post_init__(self):
        require_finite(self)
        if self.shutter not in _SHUTTERS:
            raise ValueError("shutter must be %r or %r" % _SHUTTERS)
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be positive")
        if not 0.0 <= self.exposure <= 1.0 / self.fps:
            raise ValueError("exposure must lie in [0, 1/fps]")
        if self.bit_depth is not None and not (1 <= self.bit_depth <= 16):
            raise ValueError("bit_depth must be in [1, 16] or None")
        if self.shutter == "rolling":
            if self.row_readout <= 0:
                raise ValueError("rolling shutter requires row_readout > 0")
            # all rows must be read out before the next frame starts
            if self.row_readout * self.height > 1.0 / self.fps + 1e-12:
                raise ValueError("row readout exceeds the frame interval")


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
    # the tolerance keeps 0.07 / 0.01 = 7.000000000000001 at 7 steps
    n = math.ceil(duration / step * (1 - 1e-12)) + 1
    # 80 bytes a sample: the increments as an array and as a list, and d
    require_memory(80 * n, f"duration = {duration:g} s at step {step:g} s: "
                   f"{n} ENF samples")
    nominal = float(grid.nominal_hz)
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal(n - 1) * (cfg.deviation_std * math.sqrt(step))
    decay = 1.0 - cfg.mean_reversion * step
    lim = cfg.max_deviation
    d = [0.0]
    for w in incr.tolist():     # on Python floats: the same bits, faster
        d.append(min(max(d[-1] * decay + w, -lim), lim))
    return EnfTrace(0.0, step, nominal + np.array(d))


def flicker_phase(enf: EnfTrace, t) -> np.ndarray:
    """Illumination phase 4*pi*integral of f_e from the trace start to t.

    The trace is treated as piecewise linear, so trapezoidal accumulation
    over its grid plus a partial trapezoid into the final cell is the
    exact integral.  t may be scalar or array inside the trace support;
    its cell, (t - t0) / step, is made searchsorted's by a test each way.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= enf.t0 - 1e-12) & (t <= enf.t_end + 1e-12)):
        raise ValueError("query time outside the trace support")
    times = enf.times
    v = enf.values
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * enf.step)))
    last = len(v) - 2
    i = np.clip(np.floor((t - enf.t0) / enf.step), 0, last).astype(np.intp)
    i = i - ((times[i] > t) & (i > 0)) + ((times[i + 1] <= t) & (i < last))
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
    """Events of a threshold ladder walked along log_i: the reference moves
    one threshold per event, so they are the crossings of the rungs
    log_i[0] + k*threshold, interpolated linearly inside grid cells and
    fired on arrival at a rung."""
    g = (log_i - log_i[0]) / threshold
    # The reference rung after sample n is clip(rung[n-1], lo[n], hi[n]).
    # Where the interval changes, every rung of the previous one clips
    # alike, so its floor stands in; elsewhere the rung carries forward.
    lo, hi = np.floor(g), np.ceil(g)
    prev_lo = np.concatenate(([0.0], lo[:-1]))
    changed = (lo != prev_lo) | (hi != np.concatenate(([0.0], hi[:-1])))
    rung = np.clip(prev_lo, lo, hi)[np.maximum.accumulate(
        np.where(changed, np.arange(len(g)), 0))]
    del lo, hi, prev_lo, changed    # the per-event arrays reuse their memory
    fired = np.diff(rung)           # signed rungs fired in each cell
    n = np.abs(fired).astype(np.int64)
    hit = np.flatnonzero(n)
    n = n[hit]
    events = int(n.sum())       # 74 bytes each at the peak below
    require_memory(74 * events, f"threshold_c = {threshold:g}: {events} "
                   "ladder events")
    cell = np.repeat(hit, n)
    rank = np.arange(1, events + 1) - np.repeat(np.cumsum(n) - n, n)
    up = fired[cell] > 0
    k = rung[cell] + np.where(up, rank, -rank)
    # a and b are the cell's ends at the lower and upper g
    a, b = cell + ~up, cell + up
    slope = (t_grid[b] - t_grid[a]) / (g[b] - g[a])
    times = np.where(k == g[b], t_grid[b], slope * (k - g[a]) + t_grid[a])
    return times, np.where(up, 1, -1).astype(np.int8)


def illumination_crossings(sensor: SensorConfig, model: IlluminationModel,
                           enf: EnfTrace) -> tuple[np.ndarray, np.ndarray]:
    """Times and polarities of the events one pixel fires under the
    flicker: the crossing schedule every pixel of a static scene shares,
    which simulate_events takes.

    The ladder is walked on a sim_step grid over the trace support.
    """
    flicker_max = 2.0 * float(np.max(enf.values))
    if sensor.sim_step > 1.0 / (20.0 * flicker_max):
        raise ValueError("undersampled simulation: shrink sim_step to at "
                         "least 20 samples per flicker cycle")
    n_steps = int(math.floor((enf.t_end - enf.t0) / sensor.sim_step)) + 1
    # 73 bytes a step: the peak of the grid and the ladder's sample arrays
    require_memory(73 * n_steps, f"sim_step = {sensor.sim_step:g} s over "
                   f"{enf.t_end - enf.t0:g} s: {n_steps} grid steps")
    t_grid = enf.t0 + sensor.sim_step * np.arange(n_steps)
    log_i = np.log(illumination_at(model, enf, t_grid))
    return _ladder_crossings(t_grid, log_i, sensor.threshold_c)


# time blocks of a contaminated stream: at most 256, for uint8 block ids,
# and enough for one block's sort to work in cache (BENCH_15.json)
_BLOCKS = 128


def _by_block(t0: float, duration: float, cols: list, out: list, lo: int,
              hi: int) -> np.ndarray:
    """Rows lo:hi of cols, times first, put in the same rows of out in the
    stable order of their time blocks (a further out column takes each
    row's index), and the blocks' bounds there.  A time's block, floor((t
    - t0) / duration * _BLOCKS) clipped into range, never falls as t
    rises: equal times share a block, an edge time takes the upper one."""
    k = cols[0][lo:hi] - t0
    k /= duration
    k *= _BLOCKS
    np.clip(k, 0, _BLOCKS - 1, out=k)
    block = k.astype(np.uint8)
    del k
    order = np.argsort(block, kind="stable")
    for c, o in zip(cols, out):
        np.take(c[lo:hi], order, out=o[lo:hi], mode="clip")
    if len(out) > len(cols):
        np.add(order, lo, out=out[-1][lo:hi], casting="unsafe")
    bounds = np.bincount(block, minlength=_BLOCKS).cumsum()
    return np.concatenate(([lo], bounds + lo))


# index chunks of a source that _assemble partitions by block on its pool:
# a fixed count, so that no byte of a stream depends on the core count
_PARTS = 16


def _assemble(w: int, h: int, cp: np.ndarray, sources: list, t0: float,
              duration: float) -> EventStream:
    """The stable time sort of the sources, all in draw order: illumination
    times (event i is pixel i % (w*h) firing cp[i // (w*h)]), motion pairs
    (t, pixel y*w + x), each filling two slots, +1 then -1, and noise
    (t, pixel, p).  It owns the list: each source is replaced by its
    columns at their narrowest width, in block order within each of _PARTS
    index chunks; each time block joins its pieces in chunk order, their
    stable order, then sorts its members and fills its slices.  Both steps
    run on one thread pool."""
    npx = w * h
    n_ill = len(sources[0][0])  # the index type holds npx, the tick divisor
    index = np.empty(n_ill, dtype=np.min_scalar_type(max(n_ill - 1, npx)))

    def fill(k):
        (t_i, i_i), (t_p, pix_p), (t_n, pix_n, p_n) = (
            [np.concatenate([c[lo:hi] for lo, hi in b[:, k:k + 2]])
             for c in s] for s, b in zip(sources, bounds))
        n_i, n_p = len(t_i), len(t_p)
        order = _time_order(np.concatenate((t_i, t_p, t_n)))
        slots = 1 + ((order >= n_i) & (order < n_i + n_p))    # a pair takes 2
        at = np.empty_like(order)
        at[order] = np.cumsum(slots) - slots + start[k]
        del order, slots
        at_i, at_p, at_n = np.split(at, [n_i, n_i + n_p])
        at_m = at_p + 1
        tick = i_i // npx
        for col, *values in ((t, t_i, t_p, t_p, t_n),
                             (x, i_i - tick * npx, pix_p, pix_p, pix_n),
                             (p, cp[tick], 1, -1, p_n)):
            for dst, v in zip((at_i, at_p, at_m, at_n), values):
                col[dst] = v
        xb, yb = x[start[k]:start[k + 1]], y[start[k]:start[k + 1]]
        np.floor_divide(xb, w, out=yb)      # x held the packed pixel
        xb -= yb * w

    mask = getattr(os, "sched_getaffinity", None)  # the CPUs it may use
    cores = len(mask(0)) if mask else os.cpu_count() or 1
    with ThreadPoolExecutor(min(cores, _BLOCKS)) as pool:
        bounds = [None] * len(sources)  # each chunk's block bounds, by source
        for s, cols in enumerate(sources):
            out = [np.empty_like(c) for c in cols] + [index] * (s == 0)
            cuts = [len(cols[0]) * c // _PARTS for c in range(_PARTS + 1)]
            bounds[s] = np.array(list(pool.map(partial(
                _by_block, t0, duration, cols, out), cuts, cuts[1:])))
            sources[s] = out
        del cols, out, index
        start = sum(m * (b - b[:, :1]).sum(0)       # a pair takes 2 slots
                    for m, b in zip((1, 2, 1), bounds))
        n = int(start[-1])
        t, x, y, p = (np.empty(n), np.empty(n, dtype=np.int32),
                      np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int8))
        list(pool.map(fill, range(_BLOCKS)))      # raises a worker's error
    sources.clear()             # before the stream's checks make temporaries
    return EventStream(w, h, t, x, y, p)


def simulate_events(sensor: SensorConfig,
                    crossings: tuple[np.ndarray, np.ndarray], enf: EnfTrace,
                    contamination: ContaminationConfig = ContaminationConfig(),
                    seed: int = 0) -> EventStream:
    """Simulate an event stream for a static scene under flickering light.

    ``crossings`` is the (times, polarities) schedule that
    illumination_crossings(sensor, model, enf) returns; every pixel fires
    it.  With timestamp_jitter > 0 each replicated event (and each motion
    pair, as a unit) is delayed by an independent Gaussian reporting
    latency, which breaks the cross-pixel phase coherence an ideal
    schedule would have.  The stream is the stable time sort of the
    illumination, motion-pair and noise events in draw order, so equal
    times (the clip piles them up at the trace ends) keep that order and
    the stream is deterministic for a given seed.  _time_order gives that
    order: a clean stream takes it once, in _time_sorted (an unjittered
    one is in order already and takes neither the sort nor the gathers);
    a contaminated one is split into time blocks and takes it per block,
    both on a thread pool, to the same bytes on any number of cores.
    """
    ct, cp = crossings
    t_start, t_end = enf.t0, enf.t_end
    duration = t_end - t_start
    w, h = sensor.width, sensor.height
    npx = w * h
    rng = np.random.default_rng(seed)

    def require_events(n):      # 17 bytes each: the columns t, x, y, p
        require_memory(17 * n, f"a {w}x{h} sensor's {n} events")

    n_pairs = int(rng.poisson(contamination.motion_pair_rate * duration))
    require_events(len(ct) * npx + 2 * n_pairs)
    n_burst = int(round(contamination.burst_fraction * n_pairs))
    t_pair = np.empty(n_pairs)
    t_pair[:n_pairs - n_burst] = rng.uniform(t_start, t_end, n_pairs - n_burst)
    if n_burst:
        n_windows = max(1, int(round(duration / 10.0)))
        centers = rng.uniform(t_start, t_end, n_windows)
        t_pair[n_pairs - n_burst:] = np.clip(
            centers[rng.integers(0, n_windows, n_burst)]
            + rng.uniform(-0.05, 0.05, n_burst), t_start, t_end)
    pix_type = np.min_scalar_type(npx - 1)     # a pixel packed as y*w + x
    pix_pair = (rng.integers(0, w, n_pairs)
                + w * rng.integers(0, h, n_pairs)).astype(pix_type)

    n_noise = int(rng.poisson(contamination.noise_rate * npx * duration))
    require_events(len(ct) * npx + 2 * n_pairs + n_noise)
    t_noi = rng.uniform(t_start, t_end, n_noise)
    pix_noi = (rng.integers(0, w, n_noise)
               + w * rng.integers(0, h, n_noise)).astype(pix_type)
    p_noi = (2 * rng.integers(0, 2, n_noise) - 1).astype(np.int8)

    t_ill = np.repeat(ct, npx)
    if sensor.timestamp_jitter > 0.0:
        t_ill += rng.normal(0.0, sensor.timestamp_jitter, len(t_ill))
        np.clip(t_ill, t_start, t_end, out=t_ill)
        # both members of a pair come from one edge crossing, so they
        # share a reporting delay and stay vote-balanced
        t_pair += rng.normal(0.0, sensor.timestamp_jitter, n_pairs)
        np.clip(t_pair, t_start, t_end, out=t_pair)

    if n_pairs or n_noise:
        sources = [(t_ill,), (t_pair, pix_pair), (t_noi, pix_noi, p_noi)]
        del t_ill, t_pair, pix_pair, t_noi, pix_noi, p_noi
        return _assemble(w, h, cp, sources, t_start, duration)
    # x is the pixel packed as y*w + x until sorted, then split in place
    t, x, p = _time_sorted([t_ill, np.tile(np.arange(npx, dtype=pix_type),
                                           len(ct)), np.repeat(cp, npx)])
    del t_ill
    x = x.astype(np.int32)
    y = x // w
    x %= w
    return EventStream(w, h, t, x, y, p)


def _occlude(raw: np.ndarray, occ: OccluderConfig, t_row: np.ndarray,
             rng) -> None:
    """Darken the occluder's rectangle in raw (n_frames, height, width),
    in place.

    t_row holds the exposure time of every row of every frame, so a
    rolling shutter sees the rectangle at a slightly different position
    in each row, exactly like a real moving object.  A global shutter's
    rows expose together: its t_row is (n_frames, 1), and they share one
    position and one jitter draw per frame.
    """
    height, width = raw.shape[1:]
    ow = max(1, int(round(occ.width_frac * width)))
    oh = max(1, int(round(occ.height_frac * height)))
    x_path = occ.velocity_x * t_row
    y_path = occ.velocity_y * t_row
    x_path = x_path + rng.normal(0.0, occ.jitter_px, t_row.shape)
    y_path = y_path + rng.normal(0.0, occ.jitter_px, t_row.shape)
    x0 = np.rint(x_path).astype(np.int64) % width
    y0 = np.rint(y_path).astype(np.int64) % height
    # band[s]: the ow columns from column s on, wrapping at the edge
    cols = np.arange(width)
    band = (cols - cols[:, None]) % width < ow
    rows = ((np.arange(height) - y0) % height < oh)[..., None]
    np.multiply(raw, occ.intensity, out=raw, where=band[x0] & rows)


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

    The exposure integral is evaluated _FRAME_BLOCK frames at a time, and
    the occluder, clip and rounding act in place on the output, so
    the render peaks near the size of the frames it returns.
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
    # 12 bytes a pixel, the frames with the occluder's masks at 32x32, and
    # 70 a frame row, its times, intensities and occluder paths (68 at 1x1)
    require_memory((12 * cfg.width + 70) * n_frames * cfg.height,
                   f"fps = {cfg.fps:g} over {enf.t_end - enf.t0:g} s: "
                   f"{n_frames} frames of {cfg.width}x{cfg.height}")

    # (n_frames, 1) for a global shutter, one time per row for a rolling one
    t_row = (enf.t0 + np.arange(n_frames) / cfg.fps)[:, None]
    if cfg.shutter == "rolling":
        t_row = t_row + cfg.row_readout * np.arange(cfg.height)
    # average the flicker over the integration window (16 strata keep the
    # worst-case quadrature error far below 8-bit steps)
    strata = 16 if cfg.exposure > 0.0 else 1
    offsets = (np.arange(strata) + 0.5) / strata * cfg.exposure
    intensity = np.empty(t_row.shape)
    for k in range(0, n_frames, _FRAME_BLOCK):
        block = slice(k, k + _FRAME_BLOCK)
        intensity[block] = illumination_at(
            model, enf, t_row[block, :, None] + offsets).mean(axis=-1)

    scale = 1.0 / (model.amplitude + model.bias)
    raw = tex * (intensity[:, :, None] * scale)
    if occluder is not None:
        # the occluder is evaluated at mid-exposure; at these speeds
        # its blur within one integration window is below a pixel
        _occlude(raw, occluder, t_row - enf.t0 + cfg.exposure / 2.0,
                 np.random.default_rng([seed, 977]))
    np.clip(raw, 0.0, 1.0, out=raw)
    if cfg.bit_depth is not None:
        levels = float(2 ** cfg.bit_depth - 1)
        raw *= levels
        np.round(raw, out=raw)
        raw /= levels
    return FrameSequence(cfg.width, cfg.height, cfg.fps, cfg.shutter,
                         cfg.row_readout, raw)
