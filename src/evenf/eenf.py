"""ENF estimation from event streams.

Pipeline: uniform temporal sampling of the stream into single-timestamp
cohorts, majority-vote reduction to a polarity sequence, STFT peak
tracking around each flicker harmonic, whose band-limited DFT is the band
filter (a band-pass before it moved no event sample by over 2.7e-7 Hz),
baseband normalization, and smoothness-driven per-segment selection.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (EnfTrace, EventStream, GridConfig, PolaritySequence,
                   Refused, fields_equal, require_finite, require_memory)

__all__ = [
    "SamplingConfig",
    "StftConfig",
    "HarmonicConfig",
    "EventSlices",
    "EenfResult",
    "temporal_sample",
    "spatial_vote",
    "stft_peak_track",
    "normalize_to_baseband",
    "smoothness",
    "extract_eenf_detailed",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplingConfig:
    """Uniform temporal-sampling interval for the event stream."""

    delta_t: float = 0.001

    def __post_init__(self):
        require_finite(self)
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")


@dataclass(frozen=True)
class StftConfig:
    """Sliding-window spectral analysis parameters.

    search_halfwidth_hz is expressed per baseband Hz: tracking harmonic m
    computes the DFT only within +/- 2*m*search_halfwidth_hz of its line,
    which is both the band filter and the search band, so the normalized
    trace stays within +/- search_halfwidth_hz of nominal.
    min_prominence_db is the peak-over-band-median level below which a
    measurement is considered unreliable.
    """

    window_s: float = 16.0
    hop_s: float = 1.0
    search_halfwidth_hz: float = 0.5
    min_prominence_db: float = 12.0

    def __post_init__(self):
        require_finite(self)
        if self.window_s <= 0 or self.hop_s <= 0:
            raise ValueError("window_s and hop_s must be positive")
        if self.hop_s > self.window_s:
            raise ValueError("hop_s must not exceed window_s")
        if self.search_halfwidth_hz <= 0:
            raise ValueError("search_halfwidth_hz must be positive")


@dataclass(frozen=True)
class HarmonicConfig:
    """Which flicker harmonics to track and how to choose among them."""

    max_order_m: int = 3
    segment_s: float = 10.0

    def __post_init__(self):
        require_finite(self)
        if self.max_order_m < 1:
            raise ValueError("max_order_m must be at least 1")
        if self.segment_s <= 0:
            raise ValueError("segment_s must be positive")


@dataclass(frozen=True, eq=False)
class EventSlices:
    """Result of temporal sampling: one single-timestamp cohort per moment.

    Cohort n is the index range [start[n], stop[n]) into the stream's
    arrays; ``moments`` holds the sampling instants t1 + n*delta_t.
    """

    stream: EventStream
    delta_t: float
    moments: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    def __len__(self) -> int:
        return len(self.moments)

    __eq__ = fields_equal


# temporal_sample's moments per bracketed search (1024 at 1 kHz bracket
# 0.8 MB of the dynamic stream, inside a 2 MiB L2) and the steps a tied
# cohort takes before its end is searched (a motion pair needs one)
_GROUP, _TIE_STEPS = 1024, 3


def temporal_sample(stream: EventStream, cfg: SamplingConfig) -> EventSlices:
    """Sample the stream at uniform moments t_n = t1 + n*delta_t.

    Each moment takes the cohort of events sharing the first timestamp at
    or after it; events between picks are discarded, one cohort may serve
    several consecutive moments, and moments run while t_n <= t_N (the
    last event time), so a single-event stream yields exactly one slice.
    As ``stream.t`` and the moments are non-decreasing, a search of the
    stream for every _GROUP-th moment brackets each group's starts, which
    are searched inside the bracket, in cache.  A cohort ends after its
    first event unless the next one ties; the tied ones step forward
    together, and runs still open after _TIE_STEPS steps (the clip piles
    at the trace ends) are searched for their end.
    """
    if len(stream) == 0:
        raise ValueError("empty stream: nothing to sample")
    t = stream.t
    # a rounded t1 + n*delta_t lands within a float spacing of the larger
    # end; two spacings of slack bound n, the filter trims the excess
    slack = 2 * np.spacing(max(abs(t[0]), abs(t[-1])))
    n = int((t[-1] - t[0] + slack) / cfg.delta_t) + 2
    # 8 bytes each for the moments, their indices, start, stop and 2 times
    require_memory(48 * n, f"delta_t = {cfg.delta_t:g} s over "
                   f"{t[-1] - t[0]:g} s: {n} sampling moments")
    moments = t[0] + cfg.delta_t * np.arange(n)
    moments = moments[moments <= t[-1]]
    last = len(t) - 1
    start = np.empty(len(moments), dtype=np.intp)
    t_start, t_next = np.empty(len(moments)), np.empty(len(moments))
    bounds = np.append(np.searchsorted(t, moments[::_GROUP]), len(t))
    for i, lo, hi in zip(range(0, len(moments), _GROUP), bounds, bounds[1:]):
        g = slice(i, i + _GROUP)
        start[g] = np.searchsorted(t[lo:hi], moments[g]) + lo
        # gathered while the bracket is still in cache
        t_start[g], t_next[g] = t[start[g]], t[np.minimum(start[g] + 1, last)]
    stop = start + 1
    run = np.flatnonzero(t_next == t_start)
    for _ in range(_TIE_STEPS):     # past the end, t[last] ties: left open
        stop[run] += 1
        run = run[t[np.minimum(stop[run], last)] == t_start[run]]
    stop[run] = np.searchsorted(t, t_start[run], side="right")
    return EventSlices(stream, cfg.delta_t, moments, start, stop)


def spatial_vote(slices: EventSlices) -> PolaritySequence:
    """Majority polarity per slice: sign(N+ - N-), with sign(0) = 0.
    Polarity is -1 or +1, so N+ - N- is the cohort's polarity sum; only
    the picked cohorts' polarities are gathered and summed."""
    n = slices.stop - slices.start         # >= 1: a cohort is never empty
    first = np.cumsum(n) - n
    idx = np.repeat(slices.start - first, n) + np.arange(first[-1] + n[-1])
    sums = np.add.reduceat(slices.stream.p[idx], first, dtype=np.int64)
    return PolaritySequence(float(slices.moments[0]), slices.delta_t,
                            np.sign(sums).astype(np.int8))


# uncalled: only perfbench/tracing.py TARGETS rebinds them (ROADMAP item 2)
bandpass = zero_phase_bandpass = None


# interpolates the spectrum before the peak refinement
_ZERO_PAD = 4
# held while the band DFT runs on one BLAS thread, so that a concurrent
# caller cannot save the 1 and restore it last
_BLAS_LOCK = threading.Lock()


def _parabolic_refine(logmag: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Fractional-bin offset of the peak from a 3-point log-magnitude fit."""
    ym1 = logmag[np.arange(len(j)), j - 1]
    y0 = logmag[np.arange(len(j)), j]
    yp1 = logmag[np.arange(len(j)), j + 1]
    denom = ym1 - 2.0 * y0 + yp1
    delta = np.where(denom < 0, 0.5 * (ym1 - yp1) / np.where(denom == 0, 1, denom), 0.0)
    return np.clip(delta, -0.5, 0.5)


def _median(a: np.ndarray) -> np.ndarray:
    """np.median along the last axis of NaN-free ``a``, bit for bit (its
    partition, its mean), without the numpy.ma import of its first call."""
    mid = list(range((a.shape[-1] - 1) // 2, a.shape[-1] // 2 + 1))
    return np.partition(a, mid + [-1]).take(mid, -1).mean(-1)


def _cis(nfft: int, n_direct: int, tables: dict):
    """exp(-2j*pi*m/nfft) of int64 residues m in [0, nfft), from a table of
    every residue (the same bits) where a caller's n_direct exponentials
    outnumber nfft; the 8 kHz reference's 76 k against 512 000 do not.
    ``tables`` (nfft -> table) keeps it for the caller's next call only;
    held between extractions, it cost 29 MB of peak RSS (dynamic scene)."""
    def cis(m):
        return np.exp(-2j * np.pi / nfft * m)
    if nfft <= n_direct and nfft not in tables:
        tables[nfft] = cis(np.arange(nfft))
    return tables[nfft].take if nfft <= n_direct else cis


@functools.cache
def _openblas():
    """numpy's OpenBLAS (get, set) thread-count functions, or None; dlsym
    on the linalg extension also searches the BLAS it links for matmul."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_%s_num_threads64_",    # numpy >= 2 wheels
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        if hasattr(lib, name % "get"):
            get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_


def _one_blas_thread(product, *args):
    """product(*args) on one OpenBLAS thread, then the caller's count: a
    product of milliseconds gains little from a second thread, whose
    fork-join has made it ~20x slower when both threads shared a core."""
    if (blas := _openblas()) is None:
        return product(*args)
    with _BLAS_LOCK:
        saved = blas[0]()
        blas[1](1)
        try:
            return product(*args)
        finally:
            blas[1](saved)


def _band_magnitudes(x: np.ndarray, win_n: int, hop_n: int, lo: int,
                     hi: int, tables: Optional[dict] = None) -> np.ndarray:
    """|rfft(hann * frame, n=_ZERO_PAD*win_n)| at bins lo-1 ... hi+1, per hop.

    Four bins per 1/win_n turn the periodic Hann taper into 0.5*R(k) -
    0.25*(R(k-4) + R(k+4)), R the untapered spectrum.  A frame is
    q = win_n // hop_n hop-sized blocks plus the first r = win_n % hop_n
    samples of the next: R is a running sum of block DFTs plus one more.
    Its phasors come from _cis, tabled in ``tables`` where the DFT basis
    alone holds more entries than nfft.  A block is real: its DFT is one
    real product with the basis's (re, im) pairs, on one BLAS thread.
    """
    nfft = _ZERO_PAD * win_n
    n_hops = (len(x) - win_n) // hop_n + 1
    q, r = divmod(win_n, hop_n)
    blocks = np.append(x, np.zeros(hop_n))[:(n_hops + q) * hop_n]
    blocks = blocks.reshape(n_hops + q, hop_n)
    k = np.arange(lo - 5, hi + 6)
    chunk = min(hop_n, 1024)    # caps the basis at 1024 x len(k) for any hop
    cis = _cis(nfft, chunk * len(k), {} if tables is None else tables)

    def phasor(n):  # exp(-2j*pi*n*k/nfft), n*k reduced mod nfft in int64
        return cis(np.outer(n % nfft, k) % nfft)

    basis = phasor(np.arange(chunk)).view(np.float64)

    def dft(a):     # each row's DFT at bins k, summed from chunk-sized parts
        n_chunks = -(-a.shape[1] // chunk)
        a = np.pad(a, ((0, 0), (0, n_chunks * chunk - a.shape[1])))
        part = _one_blas_thread(np.matmul, a.reshape(-1, chunk), basis)
        part = part.view(np.complex128).reshape(len(a), n_chunks, len(k))
        return np.einsum("bck,ck->bk", part,
                         phasor(np.arange(n_chunks) * chunk))

    # block b starts at sample b*hop_n: shift[b] moves its DFT to absolute
    # time, conj(shift[h]) moves hop h back to the start of its frame
    shift = phasor(np.arange(n_hops + q) * hop_n)
    running = np.cumsum(np.vstack((np.zeros(len(k)), dft(blocks) * shift)),
                        axis=0)
    spec = (running[q:q + n_hops] - running[:n_hops]
            + dft(blocks[q:, :r]) * shift[q:]) * np.conj(shift[:n_hops])
    return np.abs(0.5 * spec[:, 4:-4] - 0.25 * (spec[:, :-8] + spec[:, 8:]))


def stft_peak_track(x: np.ndarray, fs: float, stft: StftConfig,
                    center_hz: float, halfwidth_hz: Optional[float] = None,
                    t0: float = 0.0, tables: Optional[dict] = None
                    ) -> tuple[EnfTrace, np.ndarray]:
    """Track the dominant spectral line near center_hz across STFT hops.

    Each window is Hann-tapered, zero-padded to _ZERO_PAD times its
    length, and the in-band magnitude peak refined by quadratic
    interpolation of the log magnitudes of the three bins around the
    maximum; the refined frequency is clamped to the search band.  Only
    the search band's bins (plus a guard bin each side) are evaluated,
    from DFTs of hop-sized blocks: the same magnitudes as the full
    zero-padded Hann FFT, at a cost of signal length x band bins.  Calls
    that pass one ``tables`` dict share its phasor tables (see _cis).
    Returns the EnfTrace whose samples sit at the window centers and the
    per-hop peak prominence in dB over the in-band median level.
    """
    x = np.asarray(x, dtype=np.float64)
    if halfwidth_hz is None:
        halfwidth_hz = stft.search_halfwidth_hz
    win_n = int(round(stft.window_s * fs))
    hop_n = int(round(stft.hop_s * fs))
    if win_n < 2 or hop_n < 1:
        raise Refused(f"window_s = {stft.window_s:g} s, hop_s = "
                      f"{stft.hop_s:g} s at {fs:g} Hz: analysis window of "
                      f"{win_n} samples, hop of {hop_n}: need at least 2 "
                      "and 1")
    if len(x) < win_n:
        raise ValueError(
            f"signal of {len(x)} samples shorter than the analysis window "
            f"of {win_n}: [stft] window_s sets its length")
    f_lo, f_hi = center_hz - halfwidth_hz, center_hz + halfwidth_hz
    if f_lo < 0 or f_hi >= fs / 2.0:
        raise ValueError(f"band {f_lo:g} to {f_hi:g} Hz outside (0, Nyquist "
                         f"{fs / 2.0:g} Hz): [stft] search_halfwidth_hz sets "
                         "its width")
    nfft = win_n * _ZERO_PAD
    df = fs / nfft
    # a band from 0 Hz starts at bin 1, where the guard bin below is DC
    lo = max(1, int(math.ceil(f_lo / df)))
    hi = int(math.floor(f_hi / df))
    if hi <= lo:
        raise ValueError(f"search band {f_lo:g} to {f_hi:g} Hz narrower than "
                         f"one frequency bin: [stft] search_halfwidth_hz sets "
                         "its width")

    mag = _band_magnitudes(x, win_n, hop_n, lo, hi, tables=tables)  # guard bins
    band = mag[:, 1:-1]
    j = np.argmax(band, axis=1) + 1
    logmag = np.log(np.maximum(mag, 1e-300))
    delta = _parabolic_refine(logmag, j)
    freqs = (lo - 1 + j + delta) * df
    freqs = np.clip(freqs, center_hz - halfwidth_hz, center_hz + halfwidth_hz)
    trace = EnfTrace(t0 + 0.5 * stft.window_s, hop_n / fs, freqs)
    peak = band[np.arange(len(band)), j - 1]
    floor = _median(band)
    prom = 20.0 * np.log10(np.maximum(peak, 1e-300)
                           / np.maximum(floor, 1e-300))
    return trace, prom


def normalize_to_baseband(raw: EnfTrace, order_m: int) -> EnfTrace:
    """Map a trace tracked at harmonic m of the flicker down to the ENF.

    The flicker line sits at 2*f_e, its m-th harmonic at 2*m*f_e, so the
    raw track divides by 2*m.
    """
    if order_m < 1:
        raise ValueError("order_m must be at least 1")
    return EnfTrace(raw.t0, raw.step, raw.values / (2.0 * order_m))


def smoothness(values: np.ndarray) -> float:
    """Total variation of a trace segment: sum of |f[n] - f[n-1]|.

    Lower is smoother; real ENF moves little between adjacent samples, so
    a corrupted harmonic's jitter shows up as a large value.
    """
    v = np.asarray(values, dtype=np.float64)
    if len(v) < 2:
        raise ValueError("need at least two samples to score smoothness")
    return float(np.sum(np.abs(np.diff(v))))


def _segment_bounds(n: int, step: float, segment_s: float) -> list[tuple[int, int]]:
    seg_len = max(1, int(round(segment_s / step)))
    return [(i, min(i + seg_len, n)) for i in range(0, n, seg_len)]


def _select_segments(traces: dict[int, EnfTrace], cfg: HarmonicConfig):
    """Per-segment winning order plus the stitched values.

    ``traces`` maps each order to its baseband trace; all share one grid.
    Each segment of segment_s seconds goes to the harmonic with the
    smallest total variation, ties to the lower order.  A trailing
    segment shorter than two samples cannot be scored and inherits the
    previous winner.
    """
    orders = sorted(traces)
    ref = traces[orders[0]]
    bounds = _segment_bounds(len(ref), ref.step, cfg.segment_s)
    winners = []
    values = np.empty(len(ref))
    prev = orders[0]
    for (i, j) in bounds:
        if j - i >= 2:
            scores = [(smoothness(traces[m].values[i:j]), m) for m in orders]
            _, best = min(scores)
        else:
            best = prev
        winners.append(best)
        values[i:j] = traces[best].values[i:j]
        prev = best
    return values, winners, bounds


@dataclass(frozen=True)
class EenfResult:
    """Full extraction output: the trace plus per-segment diagnostics."""

    trace: EnfTrace
    harmonics: dict[int, EnfTrace]       # baseband trace per order
    winners: list[int]
    segment_bounds: list[tuple[int, int]]
    low_confidence: np.ndarray           # bool per segment
    prominence_db: dict[int, np.ndarray]  # per order, per hop

    @property
    def all_low_confidence(self) -> bool:
        return bool(np.all(self.low_confidence))


def extract_eenf_detailed(stream: EventStream, grid: GridConfig,
                          sampling: SamplingConfig = SamplingConfig(),
                          stft: StftConfig = StftConfig(),
                          harmonics: HarmonicConfig = HarmonicConfig()) -> EenfResult:
    """Run the full event-to-ENF pipeline and keep the diagnostics.

    The first harmonic whose analysis band would cross the sequence
    Nyquist ends the loop, with one warning naming the orders skipped.
    Segments whose winning harmonic shows a median peak prominence under
    stft.min_prominence_db are flagged low-confidence.
    """
    slices = temporal_sample(stream, sampling)
    seq = spatial_vote(slices)
    fs = seq.sample_rate
    flicker = grid.flicker_hz

    per_order: dict[int, EnfTrace] = {}
    prominence: dict[int, np.ndarray] = {}
    tables: dict[int, np.ndarray] = {}   # one phasor table, every order
    for m in range(1, harmonics.max_order_m + 1):
        center = m * flicker
        band_hw = 2.0 * m * stft.search_halfwidth_hz
        if center + band_hw >= fs / 2.0:     # and so is every higher order
            log.warning("skipping harmonics m=%d..%d from %.0f Hz: above "
                        "Nyquist (fs=%.0f Hz)", m, harmonics.max_order_m,
                        center, fs)
            break
        raw, prom = stft_peak_track(seq.values, fs, stft, center,
                                    halfwidth_hz=band_hw, t0=seq.t0,
                                    tables=tables)
        per_order[m] = normalize_to_baseband(raw, m)
        prominence[m] = prom
    if not per_order:
        raise ValueError("no usable harmonic below Nyquist")

    values, winners, bounds = _select_segments(per_order, harmonics)
    ref = per_order[min(per_order)]
    lowconf = np.array([
        float(_median(prominence[m][i:j])) < stft.min_prominence_db
        for (i, j), m in zip(bounds, winners)
    ])
    return EenfResult(EnfTrace(ref.t0, ref.step, values), per_order, winners,
                      bounds, lowconf, prominence)

