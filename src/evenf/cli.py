"""Command-line interface.

Subcommands: simulate, extract-eenf, extract-venf, reference, evaluate,
plot.  All diagnostics go to stderr; files named by --out options are the
only stdout-silent outputs, so runs are scriptable.  Exit codes: 0 ok,
1 usage or data error, 2 extraction succeeded but every segment is
low-confidence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import logging
import math
import os
import sys
import typing
from pathlib import Path
from typing import Optional

from . import evaluate as ev
from .core import naming
from .eenf import extract_eenf_detailed
from .ingest import (read_events_csv, read_frames, read_reference_csv,
                     read_trace_csv, reference_enf, write_events_csv,
                     write_frames, write_series_csv, write_trace_csv)
# simulate_scene calls the three simulate_* functions; perfbench/tracing.py
# TARGETS rebinds them here, and its traced run fails on a missing one
from .simulate import (ContaminationConfig, simulate_events, simulate_frames,
                       synthesize_enf)
from .svgplot import render_line_chart
from .venf import extract_venf

log = logging.getLogger("evenf")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LOW_CONFIDENCE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, after printing the usage; the
    contract here is exit 1 with one stderr line."""

    def error(self, message):
        raise _UsageError(f"command-line error: {message}")

    def parse_args(self, args=None, namespace=None):
        try:
            return super().parse_args(args, namespace)
        except _UsageError:
            # argparse reports missing required arguments before
            # unrecognised ones; parse again requiring none, so that
            # `simulate --frobnicate` names the flag
            subcommands = [p for a in self._actions
                           if isinstance(a, argparse._SubParsersAction)
                           for p in a.choices.values()]
            required = [a for p in [self, *subcommands] for a in p._actions
                        if a.required]
            for a in required:
                a.required = False
            try:
                super().parse_args(args, namespace)
            finally:
                for a in required:
                    a.required = True
            raise


class _Refusal(argparse.ArgumentTypeError, ValueError):
    """A parsed value refused: argparse prints these words, not `invalid
    <type> value`, and a config value's parse catches it as a ValueError."""


def _finite_float(raw: str) -> float:
    """float(raw), refusing NaN and the infinities."""
    value = float(raw)
    if not math.isfinite(value):
        raise _Refusal(f"not finite: {raw!r}")
    return value


def _seed(raw: str) -> int:
    """int(raw), refusing the negatives numpy cannot seed with."""
    if (seed := int(raw)) < 0:
        raise _Refusal(f"negative seed {raw!r}")
    return seed


def _seed_list(raw: str) -> list[int]:
    seeds = [_seed(s) for s in raw.split(",") if s.strip()]
    if not seeds:
        raise _Refusal("no seeds")
    return seeds


# argparse names the type of a value it cannot parse by __name__
_finite_float.__name__ = "finite float"
_seed.__name__ = "seed"
_seed_list.__name__ = "seed list"


def _int_or_none(raw: str):
    return None if raw.lower() == "none" else int(raw)


# how a config value is parsed, by the resolved type hint of its field;
# a field of any other type (a nested config) cannot be set from a file
_CONVERTERS = {float: ("float", _finite_float), int: ("int", int),
               str: ("str", str), Optional[int]: ("int or none", _int_or_none)}

# the config section and field each command-line flag overrides
_FLAGS = {"grid": ("grid", "nominal_hz"), "delta_t": ("sampling", "delta_t"),
          "harmonics": ("harmonics", "max_order_m"),
          "mode": ("venf", "mode"), "detrend": ("venf", "detrend")}


def _fields(cls, section: dict[str, str], where: str) -> dict:
    """The scalar fields of ``cls`` that ``section`` sets, parsed."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, raw in section.items():
        if hints.get(key) not in _CONVERTERS:
            raise ValueError(f"{where} {key}: unknown key")
        kind, convert = _CONVERTERS[hints[key]]
        try:
            kwargs[key] = convert(raw)
        except ValueError:
            raise ValueError(
                f"{where} {key}: invalid {kind} {raw!r}") from None
    return kwargs


def _read_sections(path) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not cp.read(path, encoding="utf-8"):
            raise OSError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: " + " ".join(str(e).split())) from None
    return {name: dict(cp[name]) for name in cp.sections()}


def _load_config(args) -> tuple[ev.ScenarioConfig, ContaminationConfig]:
    """The run's configuration, logged: the dataclass defaults (the shipped
    calibration), overridden by the sections of ``--config``, overridden
    by the command-line flags.  ``[contamination]`` feeds only simulate;
    ``[occluder]``, motion_rate_factor and extreme_texture_scale feed only
    evaluate, as simulate always renders the static scene.
    """
    sections = _read_sections(args.config) if args.config else {}
    flags: dict[str, dict] = {}
    for flag, (name, key) in _FLAGS.items():
        if getattr(args, flag, None) is not None:
            flags.setdefault(name, {})[key] = getattr(args, flag)

    def build(cls, name, **nested):
        where = f"{args.config}: [{name}]" if name in sections else f"[{name}]"
        kwargs = _fields(cls, sections.pop(name, {}), where)
        try:
            obj = dataclasses.replace(cls(**nested, **kwargs),
                                      **flags.get(name, {}))
        except ValueError as e:
            raise ValueError(f"{where} {e}") from None
        log.info("config %s: %s", name, " ".join(
            f"{f.name}={getattr(obj, f.name)!r}"
            for f in dataclasses.fields(obj)
            if not dataclasses.is_dataclass(getattr(obj, f.name))))
        return obj

    # each nested section is the ScenarioConfig field of its name
    hints = typing.get_type_hints(ev.ScenarioConfig)
    cfg = build(ev.ScenarioConfig, "scenario", **{
        name: build(cls, name) for name, cls in hints.items()
        if dataclasses.is_dataclass(cls)})
    contamination = build(ContaminationConfig, "contamination")
    if sections:
        raise ValueError(f"{args.config}: [{next(iter(sections))}]: "
                         "unknown section")
    return cfg, contamination


def _cmd_simulate(args) -> int:
    cfg, contamination = _load_config(args)
    # both simulated before any file is written, so a failure leaves none
    truth, stream, seq = ev.simulate_scene(cfg, "static", args.duration,
                                           args.seed, contamination,
                                           frames=bool(args.out_frames))
    log.info("simulated %d events over %g s", len(stream), truth.t_end)
    if truth.t_end > args.duration and not math.isclose(truth.t_end,
                                                        args.duration):
        log.info("the simulation covers %g s, past --duration %g s: the "
                 "truth is sampled in whole enf_step = %g s", truth.t_end,
                 args.duration, cfg.enf_step)
    # written under temporary names beside their targets, then renamed, the
    # frames first: a failed simulate leaves no file, an existing one its bytes
    jobs = [(write_frames, seq, args.out_frames)] * bool(args.out_frames) + [
        (write_events_csv, stream, args.out_events),
        (write_trace_csv, truth, args.out_truth)]
    outs = [out for _, _, out in jobs]
    temps = [f"{out}.{k}.{os.getpid()}.tmp" for k, out in enumerate(outs)]
    try:
        for (write, data, _), temp in zip(jobs, temps):
            write(data, temp)
        for temp, out in zip(temps, outs):
            os.replace(temp, out)
    except OSError as e:        # name the path asked for, not its stand-in
        if e.filename in temps:
            raise type(e)(e.errno, e.strerror,
                          outs[temps.index(e.filename)]) from None
        raise
    finally:
        for temp in temps:
            Path(temp).unlink(missing_ok=True)
    if args.out_frames:
        log.info("wrote %d frames to %s", len(seq), args.out_frames)
    return EXIT_OK


def _cmd_extract_eenf(args) -> int:
    cfg, _ = _load_config(args)
    stream = read_events_csv(args.events)
    log.info("read %d events from %s", len(stream), args.events)
    with naming(args.events):
        res = extract_eenf_detailed(stream, cfg.grid, cfg.sampling,
                                    cfg.stft, cfg.harmonics)
    lowconf = [i for i, bad in enumerate(res.low_confidence) if bad]
    comments = ["segment_winners=" + ",".join(map(str, res.winners)),
                "low_confidence_segments=" + ",".join(map(str, lowconf))]
    write_trace_csv(res.trace, args.out, comments=comments)
    if args.per_harmonic_out:
        d = Path(args.per_harmonic_out)
        d.mkdir(parents=True, exist_ok=True)
        for m, tr in res.harmonics.items():
            write_trace_csv(tr, d / f"harmonic_{m}.csv")
    if lowconf:
        log.warning("%d of %d segments are low-confidence",
                    len(lowconf), len(res.winners))
    if res.all_low_confidence:
        log.warning("every segment is low-confidence; treat the trace "
                    "as unreliable")
        return EXIT_LOW_CONFIDENCE
    return EXIT_OK


def _cmd_extract_venf(args) -> int:
    cfg, _ = _load_config(args)
    frames = read_frames(args.frames)
    log.info("read %d frames from %s", len(frames), args.frames)
    with naming(args.frames):
        trace = extract_venf(frames, cfg.grid, cfg.stft, cfg.venf)
    write_trace_csv(trace, args.out)
    return EXIT_OK


def _cmd_reference(args) -> int:
    cfg, _ = _load_config(args)
    sig = read_reference_csv(args.signal)
    with naming(args.signal):
        trace = reference_enf(sig, cfg.stft, cfg.grid)
    write_trace_csv(trace, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg, _ = _load_config(args)
    names = list(ev.SCENARIOS) if args.scenario == "all" else [args.scenario]
    reports = [ev.run_scenario(name, args.seeds, args.duration, cfg)
               for name in names]
    report = ev.merge_reports(reports)
    detail, summary = ev.emit_report(report, args.out)
    log.info("wrote %s and %s", detail, summary)
    for f in report.flags:
        log.warning("flag: %s", f)
    return EXIT_OK


def _cmd_plot(args) -> int:
    series = []
    for spec in args.trace:
        label, path = (spec.split("=", 1) if "=" in spec
                       else (Path(spec).stem, spec))
        if set(label) & set(",\r\n"):     # the CSV could not read it back
            raise ValueError(f"--trace {spec!r}: a label must hold no ',' "
                             "or line break")
        series.append((label, read_trace_csv(path)))
    render_line_chart([(label, tr.times, tr.values) for label, tr in series],
                      args.out, title=args.title)
    csv_path = Path(args.out).with_suffix(".csv")
    write_series_csv(series, csv_path)
    log.info("wrote %s and %s", args.out, csv_path)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="evenf",
                     description="ENF extraction from event streams, with "
                                 "a simulator and a frame-video baseline")
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="synthesize ENF, events, frames")
    p.add_argument("--duration", type=_finite_float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--grid", type=_finite_float, choices=[50.0, 60.0])
    p.add_argument("--config")
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-frames")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract-eenf", help="events CSV -> ENF trace CSV")
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_finite_float, choices=[50.0, 60.0])
    p.add_argument("--delta-t", type=_finite_float, dest="delta_t")
    p.add_argument("--harmonics", type=int)
    p.add_argument("--per-harmonic-out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_extract_eenf)

    p = sub.add_parser("extract-venf", help="frame PGM file -> ENF trace CSV")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_finite_float, choices=[50.0, 60.0])
    p.add_argument("--mode", choices=["global_mean", "row_mean"])
    p.add_argument("--detrend", choices=["none", "consecutive_pair"])
    p.add_argument("--config")
    p.set_defaults(func=_cmd_extract_venf)

    p = sub.add_parser("reference", help="mains waveform CSV -> ENF trace")
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_finite_float, choices=[50.0, 60.0])
    p.add_argument("--config")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("evaluate", help="run scenario benchmark")
    p.add_argument("--scenario", default="all",
                   choices=list(ev.SCENARIOS) + ["all"])
    p.add_argument("--seeds", type=_seed_list, default="1,2,3",
                   help="comma-separated non-negative integer seeds")
    p.add_argument("--duration", type=_finite_float, default=120.0)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("plot", help="overlay trace CSVs as an SVG chart")
    p.add_argument("--trace", action="append", required=True,
                   metavar="LABEL=PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"ERROR evenf: {e}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(stream=sys.stderr,       # once per process
                        format="%(levelname)s %(name)s: %(message)s")
    saved = log.level
    log.setLevel(args.log_level)
    try:
        return args.func(args)
    except OSError as e:
        log.error("I/O failure: %s", e)
        return EXIT_IO
    except ValueError as e:
        log.error("%s", e)
        return EXIT_USAGE
    except MemoryError:
        log.error("%s: out of memory", args.command)
        return EXIT_USAGE
    finally:
        log.setLevel(saved)


if __name__ == "__main__":
    sys.exit(main())
