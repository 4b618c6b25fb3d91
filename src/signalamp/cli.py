"""Command line front end.

Four subcommands: generate (synthetic data), backtest (labeled replay
with reports), score (one-shot ranking), stream (daily scoring with
checkpoint/resume). Settings come from an optional JSON config file;
command-line flags override the file. Every failure exits nonzero and
prints a single diagnostic line starting with ``error:``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .backtest import (
    AcceptanceBounds,
    check_bounds,
    format_float,
    run_backtest,
    write_report_files,
)
from .detect import serialize_alert
from .edgefile import (
    read_edge_file,
    read_ground_truth,
    write_edge_file,
    write_ground_truth,
)
from .engine import StreamEngine, WindowConfig, replay_daily
from .errors import SignalAmpError
from .model import SignalRegistry
from .scenario import (
    PRESETS,
    generate,
    preset,
    scenario_from_dict,
    with_seed,
)

_SWEEP_DEFAULT = (1.0, 5.0, 10.0, 40.0)


class _CliError(SignalAmpError):
    """Bad invocation or unsatisfied run bounds."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _CliError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliError(f"config {path} must hold a JSON object")
    return data


def _setting(flag_value, config: dict, key: str, default=None):
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


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
        return _SWEEP_DEFAULT
    if isinstance(text, str):
        text = text.split(",")
    elif not isinstance(text, (list, tuple)):
        raise _CliError(f"bad sweep list {text!r}; use a comma list of numbers")
    return tuple(_finite(value, "sweep threshold") for value in text)


def _parse_top(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _CliError(f"bad top {value!r}: need an integer >= 0")
    try:
        top = int(value)
    except ValueError as exc:
        raise _CliError(f"bad top {value!r}: {exc}") from exc
    if top < 0:
        raise _CliError(f"bad top {value!r}: need an integer >= 0")
    return top


def _require_dir(path_text: str, label: str) -> Path:
    path = Path(path_text)
    if not path.is_dir():
        raise _CliError(f"{label} directory {path} does not exist")
    return path


# -- generate ---------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    preset_name = _setting(args.preset, config, "preset")
    scenario_block = config.get("scenario")
    if preset_name and scenario_block:
        raise _CliError("choose either a preset or a scenario block, not both")
    if preset_name:
        scenario = preset(preset_name)
    elif scenario_block:
        scenario = scenario_from_dict(scenario_block)
    else:
        raise _CliError(
            f"nothing to generate: pass --preset (one of {sorted(PRESETS)}) "
            "or a config file with a scenario block"
        )
    seed = _setting(args.seed, config, "seed")
    if seed is not None:
        scenario = with_seed(scenario, int(seed))
    out_dir = _setting(args.out, config, "output_dir")
    if out_dir is None:
        raise _CliError("an output directory is required (--out)")
    out = _require_dir(out_dir, "output")

    edges, truth = generate(scenario)
    edges_path = out / "edges.csv"
    truth_path = out / "ground_truth.json"
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

def _bounds_from(args: argparse.Namespace, config: dict) -> AcceptanceBounds | None:
    block = dict(config.get("bounds") or {})
    if args.bounds_signal is not None:
        block["signal"] = args.bounds_signal
    if args.min_precision is not None:
        block["min_precision"] = args.min_precision
    if args.min_scr is not None:
        block["min_scr"] = args.min_scr
    if args.min_amplification is not None:
        block["min_amplification"] = args.min_amplification
    if args.max_flagged_users is not None:
        block["max_flagged_users"] = args.max_flagged_users
    if not block:
        return None
    if "signal" not in block:
        raise _CliError("bounds need a signal (--bounds-signal)")
    try:
        return AcceptanceBounds(**block)
    except TypeError as exc:
        raise _CliError(f"bad bounds block: {exc}") from exc


def _cmd_backtest(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    edges_path = _setting(args.edges, config, "edges")
    truth_path = _setting(args.truth, config, "ground_truth")
    if not edges_path or not truth_path:
        raise _CliError("backtest needs --edges and --truth")
    out_dir = _setting(args.out, config, "output_dir")
    threshold = _finite(_setting(args.threshold, config, "threshold", 40.0),
                        "threshold")
    sweep = _parse_sweep(_setting(args.sweep, config, "sweep"))
    window = _parse_window(_setting(args.window, config, "window"))

    signals, edges = read_edge_file(edges_path)
    if not signals:
        raise _CliError(f"{edges_path} declares no signal columns")
    truth = read_ground_truth(truth_path)
    registry = SignalRegistry(signals)
    report = run_backtest(
        edges, registry, truth,
        threshold=threshold, sweep_thresholds=sweep, window=window,
    )

    for summary in report.summaries:
        flag = "active" if summary.active else "inactive"
        print(f"signal {summary.signal}: max z {format_float(summary.max_z, 2)} "
              f"({flag} at threshold {threshold:g})")
        print(f"  raw: {summary.raw_fraud_carriers}/{summary.raw_carriers} "
              f"hit-carriers are sybils "
              f"(precision {format_float(summary.raw_precision, 4)})")
        print(f"  adjudicated at {threshold:g}: "
              f"precision {format_float(summary.amplified_precision, 4)}, "
              f"amplification {format_float(summary.amplification, 2)}x")
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

    if out_dir is not None:
        out = _require_dir(out_dir, "output")
        for path in write_report_files(report, out):
            print(f"wrote {path}")

    bounds = _bounds_from(args, config)
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
    config = _load_config(args.config)
    edges_path = _setting(args.edges, config, "edges")
    if not edges_path:
        raise _CliError("score needs --edges")
    top = _parse_top(_setting(args.top, config, "top", 10))
    window = _parse_window(_setting(args.window, config, "window"))
    only = _setting(args.signal, config, "signal")

    signals, edges = read_edge_file(edges_path)
    registry = SignalRegistry(signals)
    if only is not None:
        registry.require(only)
    engine = StreamEngine(registry, window=window, track_users=False)
    for edge in sorted(edges, key=lambda e: e.day):
        engine.ingest(edge)
    if engine.current_day is not None:
        engine.advance_to(engine.current_day)

    for signal in registry.ids():
        if only is not None and signal != only:
            continue
        baseline = engine.baseline(signal)
        if baseline.is_degenerate:
            print(f"signal {signal}: inactive, no usable baseline "
                  f"(rate {baseline.rate:g} over "
                  f"{baseline.transactions} transactions)")
            continue
        print(f"signal {signal}: baseline rate {baseline.rate:.6f}, "
              f"prior strength {baseline.prior_strength:.2f}, "
              f"{baseline.active_nodes} active nodes")
        print(f"  {'rank':>4} {'node':<12} {'trials':>7} {'hits':>6} "
              f"{'raw':>8} {'shrunk':>8} {'z':>10}")
        for rank, sc in enumerate(engine.scores(signal)[:top], start=1):
            print(f"  {rank:>4} {sc.node:<12} {sc.trials:>7} {sc.hits:>6} "
                  f"{sc.raw_rate:>8.4f} {sc.shrunk_rate:>8.4f} {sc.z:>10.4f}")
    return 0


# -- stream -----------------------------------------------------------------

def _cmd_stream(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    edges_path = _setting(args.edges, config, "edges")
    if not edges_path:
        raise _CliError("stream needs --edges")
    checkpoint_out = _setting(args.checkpoint, config, "checkpoint")
    if not checkpoint_out:
        raise _CliError("stream needs --checkpoint for the saved state")
    threshold = _finite(_setting(args.threshold, config, "threshold", 40.0),
                        "threshold")
    window = _parse_window(_setting(args.window, config, "window"))

    signals, edges = read_edge_file(edges_path)
    if args.resume:
        engine = StreamEngine.load_checkpoint(args.resume)
        missing = [s for s in signals if s not in engine.registry]
        if missing:
            raise _CliError(
                f"checkpoint lacks signals {missing} present in {edges_path}"
            )
        if window is not None:
            raise _CliError("window is fixed by the checkpoint when resuming")
        result = replay_daily(edges, engine=engine, threshold=threshold)
    else:
        registry = SignalRegistry(signals)
        result = replay_daily(edges, registry, threshold=threshold, window=window)

    alert_lines: list[str] = []
    for outcome in result.days:
        parts = []
        for signal in result.engine.registry.ids():
            flagged = outcome.flagged_users.get(signal, frozenset())
            note = "inactive" if signal in outcome.inactive_signals else len(flagged)
            parts.append(f"{signal}={note}")
        print(f"day {outcome.day}: " + " ".join(parts))
        for signal_alerts in outcome.alerts.values():
            alert_lines.extend(serialize_alert(a) for a in signal_alerts)

    result.engine.save_checkpoint(checkpoint_out)
    print(f"checkpoint saved to {checkpoint_out}")
    if args.alerts:
        Path(args.alerts).write_text(
            "\n".join(alert_lines) + ("\n" if alert_lines else ""),
            encoding="utf-8",
        )
        print(f"wrote {len(alert_lines)} alerts to {args.alerts}")
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
    back.add_argument("--bounds-signal", help="signal the bounds apply to")
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
        return args.func(args)
    except SignalAmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
