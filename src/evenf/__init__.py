"""ENF extraction from event-camera streams.

Grid-powered lighting flickers at twice the mains frequency; an event
sensor turns that flicker into dense polarity-alternating firings from
which the instantaneous grid frequency can be recovered.  This package
bundles the extraction pipeline, a physics-based closed-loop simulator,
a frame-video baseline, and an evaluation harness.
"""

from .core import (EnfTrace, EventStream, GridConfig, PolaritySequence, mae,
                   pearson_cc)
from .eenf import (EenfResult, EventSlices, HarmonicConfig, SamplingConfig,
                   StftConfig, bandpass, extract_eenf_detailed,
                   normalize_to_baseband, smoothness, spatial_vote,
                   stft_peak_track, temporal_sample, zero_phase_bandpass)
from .evaluate import (EvalReport, EvalRow, ScenarioConfig, emit_report,
                       run_scenario)
from .ingest import (ReferenceSignal, read_events_csv, read_frames,
                     read_reference_csv, read_trace_csv, reference_enf,
                     write_events_csv, write_frames, write_series_csv,
                     write_trace_csv)
from .simulate import (ContaminationConfig, EnfProcessConfig, FrameConfig,
                       FrameSequence, IlluminationModel, OccluderConfig,
                       SensorConfig, flicker_phase, illumination_at,
                       illumination_crossings, log_expansion_coeffs,
                       simulate_events, simulate_frames, synthesize_enf)
from .venf import VenfConfig, extract_venf, frame_series

__version__ = "0.1.0"
