"""Value types and agreement metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evenf.core import (EnfTrace, EventStream, FrameSequence, GridConfig,
                        PolaritySequence, ReferenceSignal, Refused, mae,
                        naming, pearson_cc, require_memory)
from evenf.eenf import EventSlices, HarmonicConfig, SamplingConfig, StftConfig


# ---------------------------------------------------------------- GridConfig

def test_grid_accepts_50_and_60():
    assert GridConfig(50.0).flicker_hz == 100.0
    assert GridConfig(60.0).flicker_hz == 120.0


def test_grid_rejects_other_frequencies():
    with pytest.raises(ValueError):
        GridConfig(55.0)


# -------------------------------------------------------------------- naming

def test_naming_prefixes_input_errors_but_not_memory_refusals():
    with pytest.raises(ValueError, match=r"^f\.csv: bad row$"):
        with naming("f.csv"):
            raise ValueError("bad row")
    # a size names its own cause; the file did not cause it
    with pytest.raises(Refused, match=r"^2\*\*60 bytes need \S+ GiB"):
        with naming("f.csv"):
            require_memory(2.0 ** 60, "2**60 bytes")


# --------------------------------------------------------- extraction configs

_FLOAT_FIELDS = [(SamplingConfig, "delta_t"),
                 (StftConfig, "window_s"), (StftConfig, "hop_s"),
                 (StftConfig, "search_halfwidth_hz"),
                 (StftConfig, "min_prominence_db"),
                 (HarmonicConfig, "segment_s")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, field", _FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, f in _FLOAT_FIELDS])
def test_extraction_configs_reject_nonfinite_floats(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: value})


# --------------------------------------------------------------- EventStream

def _small_stream():
    return EventStream(4, 4,
                       t=[0.0, 0.001, 0.001, 0.003],
                       x=[0, 1, 2, 3],
                       y=[0, 0, 1, 3],
                       p=[1, -1, 1, -1])


def test_stream_basic_accessors():
    s = _small_stream()
    assert len(s) == 4
    assert (s.t[1], s.x[1], s.y[1], s.p[1]) == (0.001, 1, 0, -1)
    assert list(s.p) == [1, -1, 1, -1]


def test_stream_rejects_decreasing_timestamps():
    with pytest.raises(ValueError, match="non-decreasing"):
        EventStream(2, 2, [0.0, -0.001], [0, 0], [0, 0], [1, 1])


@pytest.mark.parametrize("t", [[0.0, np.nan, 1.0], [np.nan], [0.0, np.inf],
                               [-np.inf, 0.0], [np.nan, 0.0]])
def test_stream_rejects_nonfinite_timestamps(t):
    n = len(t)
    with pytest.raises(ValueError, match="finite"):
        EventStream(4, 4, t, [0] * n, [0] * n, [1] * n)


def test_stream_rejects_out_of_bounds_coordinates():
    with pytest.raises(ValueError, match="outside sensor"):
        EventStream(2, 2, [0.0], [2], [0], [1])


@pytest.mark.parametrize("x,y", [(2**32 + 1, 1), (1, 2**32 + 2),
                                 (-(2**32) + 1, 1), (np.nan, 1)])
def test_stream_bounds_are_checked_before_narrowing(x, y):
    # 2**32 + 1 would wrap to pixel 1 in int32
    with pytest.raises(ValueError, match="outside sensor"):
        EventStream(4, 4, [0.0], [x], [y], [1])


def test_stream_rejects_polarity_that_would_wrap_to_one():
    with pytest.raises(ValueError, match="polarity"):
        EventStream(4, 4, [0.0], [0], [0], [257])


def test_stream_rejects_dimensions_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        EventStream(2**32 + 2, 4, [0.0], [2**32 + 1], [0], [1])


def test_stream_rejects_bad_polarity():
    with pytest.raises(ValueError, match="polarity"):
        EventStream(2, 2, [0.0], [0], [0], [2])


def test_stream_rejects_zero_polarity():
    with pytest.raises(ValueError, match="polarity"):
        EventStream(2, 2, [0.0], [0], [0], [0])


def test_stream_ragged_columns_rejected():
    with pytest.raises(ValueError, match="equal length"):
        EventStream(2, 2, [0.0, 1.0], [0], [0], [1])


def test_stream_arrays_are_read_only():
    s = _small_stream()
    with pytest.raises(ValueError):
        s.t[0] = 99.0
    with pytest.raises(ValueError):
        s.p[0] = -1


@pytest.mark.parametrize("make, dtype, shape", [
    (lambda v: EnfTrace(0.0, 1.0, v), np.float64, 3),
    (lambda v: PolaritySequence(0.0, 1.0, v), np.int8, 3),
    (lambda v: EventStream(4, 4, v, [0, 1, 2], [0, 1, 2], [1, -1, 1]),
     np.float64, 3),
    (lambda v: ReferenceSignal(100.0, v), np.float64, 3),
    (lambda v: FrameSequence(3, 1, 30.0, "global", 0.0, v), np.float64,
     (1, 1, 3)),
], ids=["EnfTrace", "PolaritySequence", "EventStream", "ReferenceSignal",
        "FrameSequence"])
def test_value_types_leave_the_callers_array_writable(make, dtype, shape):
    # an array that needs no conversion is viewed, not copied: the value
    # object's view is read-only, the caller's array is not
    v = np.zeros(shape, dtype=dtype)
    obj = make(v)
    v.flat[0] = 1
    arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_stream_equality():
    assert _small_stream() == _small_stream()
    other = EventStream(4, 4, [0.0], [0], [0], [1])
    assert _small_stream() != other


@pytest.mark.parametrize("make, changes", [
    (lambda **kw: EnfTrace(**{"t0": 0.0, "step": 0.5,
                              "values": [50.0, 50.1], **kw}),
     [{"t0": 1.0}, {"step": 0.25}, {"values": [50.0, 50.2]},
      {"values": [50.0]}]),
    (lambda **kw: PolaritySequence(**{"t0": 0.0, "step": 0.5,
                                      "values": [1, -1], **kw}),
     [{"t0": 1.0}, {"step": 0.25}, {"values": [1, 0]}]),
    (lambda **kw: FrameSequence(**{"width": 2, "height": 1, "fps": 30.0,
                                   "shutter": "global", "row_readout": 0.0,
                                   "frames": np.zeros((1, 1, 2)), **kw}),
     [{"fps": 25.0}, {"shutter": "rolling"}, {"row_readout": 1e-3},
      {"frames": np.ones((1, 1, 2))}, {"frames": np.zeros((2, 1, 2))}]),
    (lambda **kw: ReferenceSignal(**{"sample_rate": 1000.0,
                                     "samples": np.arange(4.0), **kw}),
     [{"sample_rate": 500.0}, {"samples": np.arange(5.0)}]),
    (lambda **kw: EventSlices(**{"stream": _small_stream(), "delta_t": 1e-3,
                                 "moments": [0.0, 1e-3], "start": [0, 1],
                                 "stop": [1, 3], **kw}),
     [{"stream": EventStream(4, 4, [0.0], [0], [0], [1])},
      {"delta_t": 2e-3}, {"moments": [0.0, 2e-3]}, {"start": [0, 2]},
      {"stop": [1, 4]}]),
], ids=["EnfTrace", "PolaritySequence", "FrameSequence", "ReferenceSignal",
        "EventSlices"])
def test_value_types_compare_every_field(make, changes):
    assert make() == make()
    for change in changes:
        assert make() != make(**change)


def test_value_types_of_different_classes_differ():
    assert EnfTrace(0.0, 1.0, [1.0]) != PolaritySequence(0.0, 1.0, [1])


def test_empty_stream_has_no_time_support():
    s = EventStream(2, 2, [], [], [], [])
    assert len(s) == 0 and s.t.shape == (0,)


# ------------------------------------------------------ EnfTrace / Polarity

def test_trace_times_and_end():
    tr = EnfTrace(2.0, 0.5, [50.0, 50.1, 49.9])
    assert np.allclose(tr.times, [2.0, 2.5, 3.0])
    assert tr.t_end == 3.0
    assert len(tr) == 3


def test_trace_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        EnfTrace(0.0, 0.0, [50.0])


def test_trace_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="finite"):
        EnfTrace(0.0, 1.0, [50.0, np.nan])


def test_trace_rejects_empty_values():
    with pytest.raises(ValueError):
        EnfTrace(0.0, 1.0, [])


def test_polarity_sequence_bounds_and_rate():
    seq = PolaritySequence(0.0, 0.001, [1, 0, -1])
    assert seq.sample_rate == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        PolaritySequence(0.0, 0.001, [2, 0])


# values that int8 narrowing would wrap or truncate into {-1, 0, +1}
@given(st.one_of(
    st.sampled_from([257, -255, 2**32 + 1]),
    st.integers(-2**62, 2**62).filter(lambda v: abs(v) > 1),
    st.floats(-3.0, 3.0).filter(lambda v: v not in (-1.0, 0.0, 1.0))))
def test_polarity_sequence_rejects_votes_before_narrowing(vote):
    with pytest.raises(ValueError, match="^polarity votes must be -1, 0, or"):
        PolaritySequence(0.0, 1e-3, np.array([1, vote, 0]))


@given(st.sampled_from([EnfTrace, PolaritySequence]),
       st.one_of(st.sampled_from([(np.nan, 1e-3), (np.inf, 1e-3),
                                  (-np.inf, 1e-3), (0.0, np.nan),
                                  (0.0, np.inf), (0.0, -np.inf)]),
                 st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 0.0))))
def test_uniform_series_reject_bad_t0_or_step(cls, t0_step):
    t0, step = t0_step
    field = "t0 must be finite" if not np.isfinite(t0) else \
        "step must be positive and finite"
    with pytest.raises(ValueError, match=f"^{field}$"):
        cls(t0, step, [1, 1])


# ------------------------------------------------------------------ metrics

def test_cc_self_correlation_is_one():
    a = EnfTrace(0.0, 1.0, [50.00, 50.01, 49.99])
    assert pearson_cc(a.values, a.values) == pytest.approx(1.0)


def test_cc_exact_negation_is_minus_one():
    a = EnfTrace(0.0, 1.0, [1.0, 2.0, 3.0])
    b = EnfTrace(0.0, 1.0, [3.0, 2.0, 1.0])
    assert pearson_cc(a.values, b.values) == pytest.approx(-1.0)


def test_cc_hand_computed_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 2.0, 3.0, 5.0])
    assert pearson_cc(a, b) == pytest.approx(0.9827, abs=1e-4)


def test_cc_constant_input_raises():
    a = EnfTrace(0.0, 1.0, [50.0, 50.0, 50.0])
    b = EnfTrace(0.0, 1.0, [50.0, 50.1, 50.2])
    with pytest.raises(ValueError, match="zero variance"):
        pearson_cc(a.values, b.values)


def test_mae_identical_traces_is_zero():
    a = EnfTrace(0.0, 1.0, [50.0, 50.1])
    assert mae(a.values, a.values) == 0.0


def test_mae_hand_computed_value():
    a = EnfTrace(0.0, 1.0, [50.00, 50.02])
    b = EnfTrace(0.0, 1.0, [50.01, 50.00])
    assert mae(a.values, b.values) == pytest.approx(0.015)


def test_mae_length_mismatch_raises():
    a = EnfTrace(0.0, 1.0, [50.0, 50.1])
    b = EnfTrace(0.0, 1.0, [50.0, 50.1, 50.2])
    with pytest.raises(ValueError, match="length mismatch"):
        mae(a.values, b.values)


clean_values = st.lists(
    st.integers(min_value=-1000, max_value=1000),
    min_size=2, max_size=40,
).filter(lambda v: len(set(v)) > 1)


@given(values=clean_values,
       alpha=st.sampled_from([0.25, 0.5, 2.0, 3.0, 7.5]),
       beta=st.integers(min_value=-50, max_value=50))
def test_cc_affine_invariance(values, alpha, beta):
    a = np.array(values, dtype=np.float64)
    rng = np.random.default_rng(len(values))
    b = a + rng.standard_normal(len(a))
    if np.ptp(b) == 0.0:
        b = b + np.arange(len(b))
    base = pearson_cc(a, b)
    scaled = pearson_cc(alpha * a + beta, b)
    assert abs(base - scaled) < 1e-12


@given(values=st.lists(st.floats(min_value=-100, max_value=100,
                                 allow_nan=False), min_size=1, max_size=30),
       other=st.lists(st.floats(min_value=-100, max_value=100,
                                allow_nan=False), min_size=1, max_size=30))
def test_mae_symmetry_and_identity(values, other):
    n = min(len(values), len(other))
    a = np.array(values[:n])
    b = np.array(other[:n])
    assert mae(a, b) == mae(b, a)
    assert mae(a, a) == 0.0
