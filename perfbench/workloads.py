"""The three benchmark workloads and the checks on their outputs.

Each workload makes its inputs from a seed and runs one iteration at a
time through evenf's public entry points: ``evenf.evaluate.run_scenario``
for the two scenarios and in-process ``evenf.cli.main`` calls for the CLI
round trip.  Outputs are checked against ground truth with the
benchmark's own code, so a broken trace counts as a failed operation
instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import rebound

# What every workload's traces must satisfy: the evenf defaults and
# configs/default.cfg both use a 50 Hz grid, 16 s windows, 1 s hops and a
# +/- 0.5 Hz baseband search band.
NOMINAL_HZ = 50.0
HALFWIDTH_HZ = 0.5
WINDOW_S = 16.0
HOP_S = 1.0
# A trace fails the accuracy check when its CC against truth is below
# CC_FLOOR times the ideal tracker's CC on the same truth and its MAE is
# above MAE_CEILING_HZ.  CC alone misjudges a correct trace when the ENF
# realization is nearly flat: on one seed in about a thousand the video
# baseline on the dynamic scene had CC 0.37 against an ideal 0.79 with
# its usual MAE of 0.0025 Hz (at most 0.0045 Hz over 300 seeds).  The
# truth itself varies by about 0.01 Hz (std over a 120 s run), so a
# shuffled copy of it scores an MAE above 0.005 Hz on all but the
# flattest few seeds in a hundred.
CC_FLOOR = 0.5
MAE_CEILING_HZ = 0.005
MAINS_RATE_HZ = 8000.0
# Times are scaled to a machine on which Speedometer's reference loop
# takes this long.
REFERENCE_LOOP_S = 0.040
REFERENCE_SAMPLES = 3

PHASES = ("simulate_s", "extract_eenf_s", "extract_venf_s")


class Speedometer:
    """Scale factor for a time measured now: REFERENCE_LOOP_S over the
    median time of a fixed piece of work that does not involve evenf (a
    Python integer loop, then a numpy sort and FFT).

    On a shared machine the CPU speed can drift by 10-25 % within a
    minute, alike for evenf and for this loop.  A time multiplied by the
    mean of the factors taken just before and just after it is largely
    free of that drift; the measured times are kept next to the scaled
    ones.
    """

    def __init__(self):
        self._data = np.random.default_rng(0).standard_normal(1 << 20)
        self.loop_times: list[float] = []

    def _loop(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for k in range(150_000):
            acc += k * k
        np.sort(self._data)
        np.fft.rfft(self._data)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        times = [self._loop() for _ in range(REFERENCE_SAMPLES)]
        self.loop_times += times
        return REFERENCE_LOOP_S / statistics.median(times)

    def median_loop_s(self) -> float:
        return statistics.median(self.loop_times)


@dataclass
class Iteration:
    """One workload iteration.  ``wall_s`` and ``phases`` are scaled by
    ``scale`` (see Speedometer); ``wall_s`` is None when an operation
    raised."""

    seed: int
    scale: float = 1.0
    wall_s: float | None = None
    measured_wall_s: float | None = None
    phases: dict[str, float] = field(default_factory=dict)
    events: int = 0
    attempted: int = 0
    failed: int = 0
    scores: dict[str, dict[str, float]] = field(default_factory=dict)
    low_conf_frac: float | None = None


def expected_hops(duration: float) -> int:
    return int((duration - WINDOW_S) / HOP_S) + 1


def _cc(a: np.ndarray, b: np.ndarray) -> float:
    da, db = a - a.mean(), b - b.mean()
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.dot(da, db) / np.sqrt(np.dot(da, da) * np.dot(db, db)))


def score(t, v, truth_t, truth_v) -> dict[str, float]:
    """CC and MAE against truth averaged over each analysis window (the
    way ``evenf.evaluate`` scores), next to the same scores of an ideal
    tracker that reports the Hann-weighted truth mean of each window.

    The ideal tracker's error comes from window smoothing alone and moves
    with the ENF realization, so ``cc / ideal_cc`` and ``mae / ideal_mae``
    vary far less from seed to seed than the raw scores.
    """
    half = WINDOW_S / 2.0
    lo = np.searchsorted(truth_t, t - half, "left")
    hi = np.searchsorted(truth_t, t + half, "right")
    if np.any(hi - lo < 1):
        raise ValueError("trace outside the truth support")
    csum = np.concatenate(([0.0], np.cumsum(truth_v)))
    box = (csum[hi] - csum[lo]) / (hi - lo)
    ideal = np.empty(len(t))
    for k, (i, j) in enumerate(zip(lo, hi)):
        w = np.sin(np.pi * (truth_t[i:j] - (t[k] - half)) / WINDOW_S) ** 2
        ideal[k] = np.dot(w, truth_v[i:j]) / w.sum()
    return {"cc": _cc(v, box), "mae": float(np.mean(np.abs(v - box))),
            "ideal_cc": _cc(ideal, box),
            "ideal_mae": float(np.mean(np.abs(ideal - box)))}


def check_trace(label, t, v, truth_t, truth_v, duration):
    """Score a trace; returns (scores or None, list of problems)."""
    problems = []
    if not np.all(np.isfinite(v)):
        problems.append("non-finite values")
    if abs(len(v) - expected_hops(duration)) > 1:
        problems.append(f"{len(v)} hops, expected {expected_hops(duration)}")
    if np.any(np.abs(v - NOMINAL_HZ) > HALFWIDTH_HZ + 1e-6):
        problems.append("values outside the search band")
    if problems:
        return None, [f"{label}: {p}" for p in problems]
    s = score(np.asarray(t, float), np.asarray(v, float), truth_t, truth_v)
    if not np.isfinite(s["cc"]):
        return s, [f"{label}: CC undefined (constant trace)"]
    if s["cc"] < CC_FLOOR * s["ideal_cc"] and s["mae"] > MAE_CEILING_HZ:
        return s, [f"{label}: CC {s['cc']:.4f} below {CC_FLOOR} x ideal "
                   f"CC {s['ideal_cc']:.4f} and MAE {s['mae']:.2e} Hz "
                   f"above {MAE_CEILING_HZ:g} Hz"]
    return s, []


def _report(problems, exc: BaseException | None = None) -> None:
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


class Scenario:
    """``run_scenario(name, [seed], duration)`` with its default config.

    The benchmark rebinds the simulate and extract calls in
    ``evenf.evaluate``'s namespace to time the phases and to keep the
    truth and both traces for the output checks.
    """

    _PHASE_OF = {"synthesize_enf": "simulate_s",
                 "simulate_events": "simulate_s",
                 "simulate_frames": "simulate_s",
                 "extract_eenf_detailed": "extract_eenf_s",
                 "extract_venf": "extract_venf_s"}
    # Only the size of a stream is kept, so the benchmark holds no
    # extra memory; frames are not kept at all.
    _KEEP = {"simulate_events": len, "simulate_frames": lambda out: None}

    def __init__(self, evenf, scenario: str, duration: float, speed):
        self.evenf = evenf
        self.scenario = scenario
        self.duration = duration
        self.speed = speed

    def _capture(self, attr, fn, rec: Iteration, kept: dict):
        phase, keep = self._PHASE_OF[attr], self._KEEP.get(attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rec.phases[phase] += time.perf_counter() - t0
            kept[attr] = keep(out) if keep else out
            return out
        return timed

    def iterate(self, seed: int, tracer=None) -> Iteration:
        evaluate = self.evenf.evaluate
        rec = Iteration(seed, phases=dict.fromkeys(PHASES, 0.0),
                        attempted=1)
        kept: dict = {}
        before = self.speed()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                tracer.install(stack, self.evenf)
            for attr in self._PHASE_OF:
                stack.enter_context(rebound(evaluate, attr, self._capture(
                    attr, getattr(evaluate, attr), rec, kept)))
            t0 = time.perf_counter()
            try:
                report = evaluate.run_scenario(self.scenario, [seed],
                                               self.duration)
            except Exception as e:
                rec.scale = before
                rec.failed = 1
                _report([f"{self.scenario} seed {seed} raised"], e)
                return rec
            rec.measured_wall_s = time.perf_counter() - t0
        rec.scale = (before + self.speed()) / 2.0
        rec.wall_s = rec.measured_wall_s * rec.scale
        rec.phases = {k: v * rec.scale for k, v in rec.phases.items()}

        rec.events = kept["simulate_events"]
        truth = kept["synthesize_enf"]
        eenf = kept["extract_eenf_detailed"]
        rec.low_conf_frac = float(np.mean(eenf.low_confidence))
        problems = []
        rows = {r.method: r for r in report.rows}
        for method, trace in (("eenf", eenf.trace),
                              ("venf", kept["extract_venf"])):
            s, p = check_trace(f"{self.scenario} seed {seed} {method}",
                               trace.times, trace.values, truth.times,
                               truth.values, self.duration)
            problems += p
            if s is None:
                continue
            rec.scores[method] = s
            if not (np.isclose(s["cc"], rows[method].cc, rtol=1e-9, atol=0)
                    and np.isclose(s["mae"], rows[method].mae_hz, rtol=1e-9,
                                   atol=0)):
                problems.append(f"{method}: benchmark score differs from "
                                f"run_scenario's")
        if problems:
            rec.failed = 1
            _report(problems)
        return rec


def _read_csv(path: Path, header: str):
    """(comment lines, rows as a float array) of a CSV that evenf wrote."""
    lines = path.read_text().splitlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != header:
        raise ValueError(f"{path.name}: expected header {header}")
    return comments, np.array([ln.split(",") for ln in body[1:]], dtype=float)


def _count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


class CliRoundtrip:
    """simulate -> extract-eenf -> extract-venf -> reference through
    in-process ``evenf.cli.main`` calls, all files in ``workdir``."""

    STEPS = (("simulate", "simulate_s"), ("extract-eenf", "extract_eenf_s"),
             ("extract-venf", "extract_venf_s"), ("reference", "reference_s"))

    def __init__(self, evenf, duration: float, seed: int, workdir: Path,
                 config: Path, speed):
        self.evenf = evenf
        self.speed = speed
        self.duration = duration
        self.workdir = workdir
        self.config = str(config)
        self.mains = workdir / "mains.csv"
        self.mains_t, self.mains_f = self._write_mains(seed)

    def _write_mains(self, seed: int):
        """A mains waveform whose frequency wanders by two slow sinusoids
        drawn from the seed, plus white noise; returns its true ENF on a
        10 ms grid."""
        rng = np.random.default_rng([seed, int(MAINS_RATE_HZ)])
        periods = rng.uniform(20.0, 60.0, 2)
        offsets = rng.uniform(0.0, 2.0 * np.pi, 2)

        def enf(t):
            return (NOMINAL_HZ
                    + 0.03 * np.sin(2 * np.pi * t / periods[0] + offsets[0])
                    + 0.02 * np.sin(2 * np.pi * t / periods[1] + offsets[1]))

        t = np.arange(int(self.duration * MAINS_RATE_HZ)) / MAINS_RATE_HZ
        v = (np.cos(2 * np.pi * np.cumsum(enf(t)) / MAINS_RATE_HZ)
             + 0.05 * rng.standard_normal(len(t)))
        with open(self.mains, "w") as fh:
            fh.write(f"# sample_rate={MAINS_RATE_HZ:g}\nv\n")
            np.savetxt(fh, v, fmt="%.9f")
        grid = np.arange(int(round(self.duration / 0.01)) + 1) * 0.01
        return grid, enf(grid)

    def iterate(self, seed: int, tracer=None) -> Iteration:
        d = self.workdir / f"seed{seed}"
        d.mkdir()
        paths = {k: str(d / f"{k}.csv")
                 for k in ("events", "truth", "eenf", "venf", "ref")}
        frames = str(d / "frames")
        argv = {
            "simulate": ["--duration", f"{self.duration:g}", "--seed",
                         str(seed), "--config", self.config, "--out-events",
                         paths["events"], "--out-truth", paths["truth"],
                         "--out-frames", frames],
            "extract-eenf": ["--events", paths["events"], "--out",
                             paths["eenf"], "--config", self.config],
            "extract-venf": ["--frames", frames, "--out", paths["venf"],
                             "--config", self.config],
            "reference": ["--signal", str(self.mains), "--out",
                          paths["ref"]],
        }
        rec = Iteration(seed, attempted=len(self.STEPS))
        failed: set[str] = set()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                tracer.install(stack, self.evenf)
            self._run_steps(argv, tracer, rec, failed)

        try:
            self._check(rec, paths, failed)
        except (OSError, ValueError, KeyError) as e:
            failed.update(c for c, _ in self.STEPS)
            _report([f"cli seed {seed}: outputs unreadable"], e)
        rec.failed = len(failed)
        shutil.rmtree(d)
        return rec

    def _run_steps(self, argv, tracer, rec: Iteration, failed: set) -> None:
        """Each subcommand in turn, scaled by the speed factors taken
        before and after it."""
        factors = [self.speed()]
        measured, raised = 0.0, False
        for command, phase in self.STEPS:
            span = (tracer.span(f"cli.{command}") if tracer is not None
                    else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with span:
                    rc = self.evenf.cli.main(["--log-level", "WARNING",
                                              command, *argv[command]])
            except Exception as e:
                raised = True
                failed.add(command)
                _report([f"cli {command} raised"], e)
                rc = None
            dt = time.perf_counter() - t0
            factors.append(self.speed())
            measured += dt
            rec.phases[phase] = dt * (factors[-2] + factors[-1]) / 2.0
            if rc:
                failed.add(command)
                _report([f"cli {command} exited {rc}"])
        rec.scale = statistics.fmean(factors)
        if not raised:
            rec.measured_wall_s = measured
            rec.wall_s = sum(rec.phases.values())

    def _check(self, rec: Iteration, paths: dict, failed: set) -> None:
        rec.events = _count_lines(Path(paths["events"])) - 2
        if rec.events <= 0:
            failed.add("simulate")
            _report(["cli simulate wrote no events"])
        _, truth = _read_csv(Path(paths["truth"]), "t_s,f_hz")
        comments, eenf = _read_csv(Path(paths["eenf"]), "t_s,f_hz")
        meta = dict(c.split("=", 1) for c in comments if "=" in c)
        winners = meta["segment_winners"].split(",")
        low = [s for s in meta["low_confidence_segments"].split(",") if s]
        rec.low_conf_frac = len(low) / len(winners)
        _, venf = _read_csv(Path(paths["venf"]), "t_s,f_hz")
        _, ref = _read_csv(Path(paths["ref"]), "t_s,f_hz")
        for command, method, trace, truth_t, truth_v in (
                ("extract-eenf", "eenf", eenf, truth[:, 0], truth[:, 1]),
                ("extract-venf", "venf", venf, truth[:, 0], truth[:, 1]),
                ("reference", "reference", ref, self.mains_t, self.mains_f)):
            s, problems = check_trace(f"cli {method}", trace[:, 0],
                                      trace[:, 1], truth_t, truth_v,
                                      self.duration)
            if problems:
                failed.add(command)
                _report(problems)
            if s is not None and method != "reference":
                rec.scores[method] = s


def make(name: str, evenf, seed: int, workdir: Path, root: Path,
         duration: float | None, speed: Speedometer):
    """The named workload at its stated size, or at ``duration`` seconds."""
    if name == "scenario-static":
        return Scenario(evenf, "static", duration or 120.0, speed)
    if name == "scenario-dynamic":
        return Scenario(evenf, "dynamic", duration or 120.0, speed)
    if name == "cli-roundtrip":
        return CliRoundtrip(evenf, duration or 60.0, seed, workdir,
                            root / "configs" / "default.cfg", speed)
    raise ValueError(f"unknown workload {name!r}")
