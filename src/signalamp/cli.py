"""Command line front end.

Four subcommands: generate (synthetic data), backtest (labeled replay
with reports), score (one-shot ranking), stream (daily scoring with
checkpoint/resume). Settings come from an optional JSON config file;
command-line flags override the file. Every failure exits nonzero and
prints a single diagnostic line starting with ``error:``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace

from .backtest import (
    DEFAULT_SWEEP,
    AcceptanceBounds,
    backtest_turns,
    check_bounds,
    format_float,
    report_paths,
    write_report_files,
)
from .detect import serialize_alert
from .edgefile import (
    read_edge_days,
    read_edge_file,
    read_ground_truth,
    write_edge_file,
    write_ground_truth,
)
from .engine import StreamEngine, WindowConfig, replay_turns
from .errors import DegenerateBaselineError, NoBaselineError, SignalAmpError
from .model import SignalRegistry, output_target, read_json_object, replace_on_success
from .scenario import (
    PRESETS,
    generate,
    preset,
    scenario_from_dict,
)


class _CliError(SignalAmpError):
    """Bad invocation or unsatisfied run bounds."""


# The keys each subcommand reads from its --config file; any other fails.
CONFIG_KEYS = {
    "generate": ("preset", "scenario", "seed", "output_dir"),
    "backtest": ("edges", "ground_truth", "output_dir", "threshold", "sweep",
                 "window", "bounds"),
    "score": ("edges", "top", "window", "signal"),
    "stream": ("edges", "checkpoint", "threshold", "window"),
}


def _load_config(args: argparse.Namespace) -> None:
    """Fill each setting of ``args`` no flag set from its ``--config`` file,
    or with None: ``output_dir`` into ``out``, ``ground_truth`` into ``truth``
    and each other key of ``CONFIG_KEYS`` by its name. Other keys fail."""
    command, path = args.command, args.config
    config = {} if path is None else read_json_object(path, "config", _CliError)
    unknown = [key for key in config if key not in CONFIG_KEYS[command]]
    if unknown:
        raise _CliError(f"config {path} has unknown key {unknown[0]!r}; "
                        f"{command} reads {', '.join(CONFIG_KEYS[command])}")
    for key in CONFIG_KEYS[command]:
        name = {"output_dir": "out", "ground_truth": "truth"}.get(key, key)
        if getattr(args, name, None) is None:
            setattr(args, name, config.get(key))


def _parse_window(text: str | dict | None) -> WindowConfig | None:
    if text is None:
        return None
    try:
        if isinstance(text, dict):
            return WindowConfig(text.get("mode", "cumulative"),
                                text.get("trailing_days"))
        if text == "cumulative":
            return WindowConfig.cumulative()
        if isinstance(text, str) and text.startswith("trailing:"):
            return WindowConfig.trailing(int(text.split(":", 1)[1]))
    except ValueError as exc:
        raise _CliError(f"bad window spec {text!r}: {exc}") from exc
    raise _CliError(f"bad window spec {text!r}; use cumulative or trailing:<days>")


def _finite(value, label: str) -> float:
    if isinstance(value, bool):
        raise _CliError(f"bad {label} {value!r}: need a finite number")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"bad {label} {value!r}: {exc}") from exc
    if not math.isfinite(number):
        raise _CliError(f"{label} must be a finite number, got {value!r}")
    return number


def _parse_sweep(text) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_SWEEP
    if isinstance(text, str):
        text = text.split(",")
    elif not isinstance(text, (list, tuple)):
        raise _CliError(f"bad sweep list {text!r}; use a comma list of numbers")
    return tuple(_finite(value, "sweep threshold") for value in text)


def _count(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _CliError(f"bad {label} {value!r}: need an integer >= 0")
    try:
        number = int(value)
    except ValueError as exc:
        raise _CliError(f"bad {label} {value!r}: {exc}") from exc
    if number < 0:
        raise _CliError(f"bad {label} {value!r}: need an integer >= 0")
    return number


def _require_signals(signals: list[str], path: str) -> None:
    if not signals:
        raise _CliError(f"{path} declares no signal columns")


@contextmanager
def _edge_days(path: str):
    """Yield the signals and day batches that ``read_edge_days`` gives for
    the edge file ``path``, once its header names a signal column. Should
    that check or the block raise, the rest of the file is read first, so
    that an error in a row wins, as if the whole file had been read first."""
    signals, days = read_edge_days(path)
    try:
        _require_signals(signals, path)
        yield signals, days
    except Exception:
        for _ in days:
            pass
        raise


# -- generate ---------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    if args.preset and args.scenario:
        raise _CliError("choose either a preset or a scenario block, not both")
    if args.preset:
        scenario = preset(args.preset)
    elif args.scenario:
        scenario = scenario_from_dict(args.scenario)
    else:
        raise _CliError(
            f"nothing to generate: pass --preset (one of {sorted(PRESETS)}) "
            "or a config file with a scenario block"
        )
    if args.seed is not None:
        scenario = replace(scenario, seed=_count(args.seed, "seed"))
    if args.out is None:
        raise _CliError("an output directory is required (--out)")
    out = output_target(args.out)
    edges_path = out / "edges.csv"
    truth_path = out / "ground_truth.json"
    output_target(edges_path, "edges")
    output_target(truth_path, "ground truth")

    edges, truth = generate(scenario)
    rows = write_edge_file(edges_path, edges, scenario.signals)
    write_ground_truth(truth_path, truth)

    print(f"wrote {rows} edges to {edges_path}")
    print(f"wrote ground truth to {truth_path}")
    print(f"seed {scenario.seed}, days {scenario.days}, "
          f"users {scenario.n_users}, nodes {scenario.n_nodes}, "
          f"signals {', '.join(scenario.signals)}")
    if truth.sybil_users:
        ratio = len(truth.sybil_users) / len(truth.cashout_nodes)
        print(f"attack: {len(truth.sybil_users)} sybils -> "
              f"{len(truth.cashout_nodes)} cash-out nodes "
              f"(ratio {ratio:.1f}:1)")
    else:
        print("attack: none (calm traffic)")
    return 0


# -- backtest ---------------------------------------------------------------

def _bounds_from(args: argparse.Namespace) -> AcceptanceBounds | None:
    block = args.bounds or {}
    if not isinstance(block, dict):
        raise _CliError(f"bad bounds block {block!r}: need a JSON object")
    block = {**block, **{f.name: getattr(args, f.name) for f in fields(AcceptanceBounds)
                         if getattr(args, f.name) is not None}}
    if not block:
        return None
    if "signal" not in block:
        raise _CliError("bounds need a signal (--bounds-signal)")
    for key in ("min_precision", "min_scr", "min_amplification"):
        if block.get(key) is not None:
            block[key] = _finite(block[key], f"bound {key}")
    if block.get("max_flagged_users") is not None:
        block["max_flagged_users"] = _count(block["max_flagged_users"],
                                            "bound max_flagged_users")
    try:
        return AcceptanceBounds(**block)
    except TypeError as exc:
        raise _CliError(f"bad bounds block: {exc}") from exc


def _cmd_backtest(args: argparse.Namespace) -> int:
    edges_path, truth_path = args.edges, args.truth
    if not edges_path or not truth_path:
        raise _CliError("backtest needs --edges and --truth")
    out = None if args.out is None else output_target(args.out)
    threshold = _finite(40.0 if args.threshold is None else args.threshold,
                        "threshold")
    sweep = _parse_sweep(args.sweep)
    window = _parse_window(args.window)
    bounds = _bounds_from(args)

    with _edge_days(edges_path) as (signals, days):
        if bounds is not None and bounds.signal not in signals:
            raise _CliError(f"bounds name unknown signal {bounds.signal!r}; "
                            f"{edges_path} declares {', '.join(signals)}")
        if out is not None:
            for signal in signals:
                if any(sep in signal for sep in (os.sep, os.altsep, "\0") if sep):
                    raise _CliError(f"signal {signal!r} in {edges_path} cannot name "
                                    f"a report file sweep_<signal>.csv in {args.out}")
            for path in report_paths(out, signals):
                output_target(path, "report")
        truth = read_ground_truth(truth_path)
        engine = StreamEngine(SignalRegistry(signals), window=window)
        report = backtest_turns(days, engine, truth,
                                threshold=threshold, sweep_thresholds=sweep)

    for summary in report.summaries:
        flag = "active" if summary.active else "inactive"
        print(f"signal {summary.signal}: max z {format_float(summary.max_z, 2)} "
              f"({flag} at threshold {threshold:g})")
        print(f"  raw: {summary.raw_fraud_carriers}/{summary.raw_carriers} "
              f"hit-carriers are sybils "
              f"(precision {format_float(summary.raw_precision, 4)})")
        amplification = summary.amplification
        print(f"  adjudicated at {threshold:g}: "
              f"precision {format_float(summary.amplified_precision, 4)}, "
              f"amplification {format_float(amplification, 2)}"
              + ("" if amplification is None else "x"))
        header = (f"  {'threshold':>9} {'nodes':>6} {'users':>7} "
                  f"{'caught':>7} {'precision':>9} {'scr':>7} "
                  f"{'coverage':>8} {'uncond':>7}")
        print(header)
        for row in report.sweeps[summary.signal]:
            print(f"  {row.threshold:>9.1f} {row.flagged_nodes:>6} "
                  f"{row.flagged_users:>7} {row.caught:>7} "
                  f"{row.precision:>9.4f} {format_float(row.scr, 4):>7} "
                  f"{format_float(row.coverage, 4):>8} "
                  f"{format_float(row.unconditional_recall, 4):>7}")

    if out is not None:
        for path in write_report_files(report, out):
            print(f"wrote {path}")

    if bounds is not None:
        failures = check_bounds(report, bounds)
        if failures:
            for failure in failures:
                print(f"error: bound failed: {failure}", file=sys.stderr)
            return 1
        print(f"bounds satisfied for signal {bounds.signal}")
    return 0


# -- score ------------------------------------------------------------------

def _cmd_score(args: argparse.Namespace) -> int:
    if not args.edges:
        raise _CliError("score needs --edges")
    top = _count(10 if args.top is None else args.top, "top")
    window = _parse_window(args.window)

    signals, edges = read_edge_file(args.edges)
    _require_signals(signals, args.edges)
    registry = SignalRegistry(signals)
    if args.signal is not None:
        registry.describe(args.signal)  # raises UnknownSignalError if unregistered
    engine = StreamEngine(registry, window=window)
    engine.ingest_columns(edges)
    if engine.current_day is not None:
        engine.advance_to(engine.current_day)

    for signal in registry.ids():
        if args.signal is not None and signal != args.signal:
            continue
        try:
            baseline = engine.baseline(signal)
            ranked = engine.scores(signal)[:top]
        except NoBaselineError:
            print(f"signal {signal}: inactive, no usable baseline (no transactions)")
            continue
        except DegenerateBaselineError:
            print(f"signal {signal}: inactive, no usable baseline "
                  f"(rate {baseline.rate:g} over "
                  f"{baseline.transactions} transactions)")
            continue
        print(f"signal {signal}: baseline rate {baseline.rate:.6f}, "
              f"prior strength {baseline.prior_strength:.2f}, "
              f"{baseline.active_nodes} active nodes")
        print(f"  {'rank':>4} {'node':<12} {'trials':>7} {'hits':>6} "
              f"{'raw':>8} {'shrunk':>8} {'z':>10}")
        for rank, sc in enumerate(ranked, start=1):
            print(f"  {rank:>4} {sc.node:<12} {sc.trials:>7} {sc.hits:>6} "
                  f"{sc.raw_rate:>8.4f} {sc.shrunk_rate:>8.4f} {sc.z:>10.4f}")
    return 0


# -- stream -----------------------------------------------------------------

def _cmd_stream(args: argparse.Namespace) -> int:
    edges_path, checkpoint_out = args.edges, args.checkpoint
    if not edges_path:
        raise _CliError("stream needs --edges")
    if not checkpoint_out:
        raise _CliError("stream needs --checkpoint for the saved state")
    threshold = _finite(40.0 if args.threshold is None else args.threshold,
                        "threshold")
    window = _parse_window(args.window)

    with _edge_days(edges_path) as (signals, days):
        if args.resume:
            engine = StreamEngine.load_checkpoint(args.resume)
            missing = [s for s in signals if s not in engine.registry]
            if missing:
                raise _CliError(f"checkpoint lacks signals {missing} "
                                f"present in {edges_path}")
            if window is not None:
                raise _CliError("window is fixed by the checkpoint when resuming")
        else:
            engine = StreamEngine(SignalRegistry(signals), window=window)
        if args.alerts:
            output_target(args.alerts, "alerts")
        output_target(checkpoint_out, "checkpoint")
        # Alert lines go to the alert file's temporary file as turns end; it
        # replaces the target only once the checkpoint is saved, so a failed
        # run leaves both targets as they were.
        day_lines, written = [], 0
        with replace_on_success(args.alerts) if args.alerts else nullcontext() as sink:
            for outcome in replay_turns(days, engine, threshold):
                parts = []
                for signal in engine.registry.ids():
                    flagged = outcome.flagged_users.get(signal, frozenset())
                    note = ("inactive" if signal in outcome.inactive_signals
                            else len(flagged))
                    parts.append(f"{signal}={note}")
                day_lines.append(f"day {outcome.day}: " + " ".join(parts))
                if sink is not None:
                    for signal_alerts in outcome.alerts.values():
                        sink.writelines(serialize_alert(a) + "\n" for a in signal_alerts)
                        written += len(signal_alerts)
            engine.save_checkpoint(checkpoint_out)

    for line in day_lines:
        print(line)
    print(f"checkpoint saved to {checkpoint_out}")
    if args.alerts:
        print(f"wrote {written} alerts to {args.alerts}")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalamp",
        description="Amplify weak per-transaction signals into "
                    "high-precision convergence-node adjudications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic labeled dataset")
    gen.add_argument("--config", help="JSON config file")
    gen.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    gen.add_argument("--seed", type=int, help="override the scenario seed")
    gen.add_argument("--out", help="existing output directory")
    gen.set_defaults(func=_cmd_generate)

    back = sub.add_parser("backtest", help="replay labeled data and report")
    back.add_argument("--config", help="JSON config file")
    back.add_argument("--edges", help="edge file")
    back.add_argument("--truth", help="ground truth JSON")
    back.add_argument("--out", help="existing directory for report files")
    back.add_argument("--threshold", type=float, help="adjudication z threshold")
    back.add_argument("--sweep", help="comma list of sweep thresholds")
    back.add_argument("--window", help="cumulative or trailing:<days>")
    back.add_argument("--bounds-signal", dest="signal",
                      help="signal the bounds apply to")
    back.add_argument("--min-precision", type=float)
    back.add_argument("--min-scr", type=float)
    back.add_argument("--min-amplification", type=float)
    back.add_argument("--max-flagged-users", type=int)
    back.set_defaults(func=_cmd_backtest)

    score = sub.add_parser("score", help="rank nodes over one window")
    score.add_argument("--config", help="JSON config file")
    score.add_argument("--edges", help="edge file")
    score.add_argument("--signal", help="restrict to one signal")
    score.add_argument("--top", type=int, help="rows to print per signal")
    score.add_argument("--window", help="cumulative or trailing:<days>")
    score.set_defaults(func=_cmd_score)

    stream = sub.add_parser("stream", help="daily scoring with checkpoints")
    stream.add_argument("--config", help="JSON config file")
    stream.add_argument("--edges", help="edge file")
    stream.add_argument("--checkpoint", help="where to save engine state")
    stream.add_argument("--resume", help="checkpoint to continue from")
    stream.add_argument("--threshold", type=float, help="adjudication z threshold")
    stream.add_argument("--window", help="cumulative or trailing:<days>")
    stream.add_argument("--alerts", help="write serialized alerts here")
    stream.set_defaults(func=_cmd_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except (SignalAmpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
