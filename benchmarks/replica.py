"""Traced replica of the ``signalamp`` commands the benchmark runs.

``run_calls`` takes the same argv lists the end-to-end runs pass to
``signalamp.cli.main`` and does what ``backtest`` and ``stream`` do, call
for call, using only public names of the package. A span wraps every call
into a layer. The replica must write byte-identical outputs to the CLI;
the benchmark checks that on every traced run, so the per-layer numbers
stay tied to the code the end-to-end runs time.

``layer_metrics`` turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import bisect
import os
import time
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path

import numpy as np

from signalamp.backtest import (
    BacktestReport,
    SignalSummary,
    amplification_factor,
    compute_metrics,
    daily_series,
    raw_signal_baseline,
    threshold_sweep,
    write_report_files,
)
from signalamp.cli import build_parser
from signalamp.detect import build_alerts, compose_signals, flag_nodes, serialize_alert
from signalamp.edgefile import read_edge_file, read_ground_truth
from signalamp.engine import DayOutcome, ReplayResult, StreamEngine, WindowConfig
from signalamp.errors import DegenerateBaselineError, NoBaselineError, SignalAmpError
from signalamp.model import SignalRegistry

# The CLI's sweep when --sweep is not given.
DEFAULT_SWEEP = (1.0, 5.0, 10.0, 40.0)

# Spans whose self time is a per-layer metric, named "<span>_s".
LAYER_SPANS = (
    "edgefile.read",
    "engine.ingest",
    "engine.evict",
    "amplify.score",
    "engine.checkpoint_save",
    "engine.checkpoint_load",
    "detect.alerts",
    "detect.serialize",
    "backtest.raw_baseline",
    "backtest.sweep",
    "backtest.series",
    "backtest.report_write",
)


class Tracer:
    """Spans kept in memory until the run ends.

    A span is a dict with its name, start and end (``perf_counter``
    seconds), the index of its parent span (None for a root), the run id,
    and the counts recorded at that boundary.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        counts: dict[str, int] = {}
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "counts": counts}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def run_calls(tracer: Tracer, calls: list[list[str]]) -> None:
    """Run each argv as the CLI would, inside one root span."""
    parser = build_parser()
    with tracer.span("job"):
        for argv in calls:
            with tracer.span(f"cli.{argv[0]}"):
                args = parser.parse_args(argv)
                _COMMANDS[args.command](tracer, args)


def _window(text: str | None) -> WindowConfig | None:
    if text is None:
        return None
    if text == "cumulative":
        return WindowConfig.cumulative()
    return WindowConfig.trailing(int(text.split(":", 1)[1]))


def _read_edges(tracer: Tracer, path: str):
    with tracer.span("edgefile.read") as counts:
        signals, edges = read_edge_file(path)
        counts["rows"] = len(edges)
        counts["bytes"] = os.path.getsize(path)
    return signals, edges


def _turn(tracer: Tracer, engine: StreamEngine, day: int, day_edges,
          threshold: float) -> DayOutcome:
    """Ingest one day's edges, then score it: ``replay_daily``'s turn."""
    with tracer.span("engine.turn") as turn:
        with tracer.span("engine.ingest") as counts:
            ingest = engine.ingest
            for edge in day_edges:
                ingest(edge)
            counts["edges"] = len(day_edges)
        with tracer.span("engine.evict") as counts:
            before = engine.total_transactions
            engine.advance_to(day)
            counts["edges"] = before - engine.total_transactions
        turn["active_nodes"] = engine.active_node_count
        alerts, flagged_users, max_z, inactive = {}, {}, {}, []
        for signal in engine.registry.ids():
            try:
                with tracer.span("amplify.score") as counts:
                    scores = engine.scores(signal)
                    counts["nodes"] = len(scores)
            except (NoBaselineError, DegenerateBaselineError):
                alerts[signal] = []
                flagged_users[signal] = frozenset()
                max_z[signal] = None
                inactive.append(signal)
                continue
            max_z[signal] = scores[0].z if scores else None
            with tracer.span("detect.alerts") as counts:
                flagged = flag_nodes(scores, threshold)
                day_alerts = build_alerts(
                    flagged,
                    {sc.node: engine.hit_users(sc.node, signal) for sc in flagged},
                    day,
                )
                users = set()
                for alert in day_alerts:
                    users.update(alert.suspicious_users)
                counts["alerts"] = len(day_alerts)
                counts["users"] = sum(len(a.suspicious_users) for a in day_alerts)
            alerts[signal] = day_alerts
            flagged_users[signal] = frozenset(users)
    return DayOutcome(day, alerts, flagged_users, max_z, tuple(inactive))


def _replay(tracer: Tracer, edges, engine: StreamEngine,
            threshold: float) -> ReplayResult:
    """``replay_daily`` over a day-ordered edge list, one turn per day."""
    days: list[DayOutcome] = []
    if edges:
        day_of = attrgetter("day")
        resumed = engine.current_day is not None
        first = engine.current_day + 1 if resumed else edges[0].day
        lo = 0
        for day in range(first, edges[-1].day + 1):
            hi = bisect.bisect_right(edges, day, lo=lo, key=day_of)
            days.append(_turn(tracer, engine, day, edges[lo:hi], threshold))
            lo = hi
    return ReplayResult(days, engine)


def _stream(tracer: Tracer, args) -> None:
    threshold = 40.0 if args.threshold is None else args.threshold
    signals, edges = _read_edges(tracer, args.edges)
    if args.resume:
        with tracer.span("engine.checkpoint_load"):
            engine = StreamEngine.load_checkpoint(args.resume)
    else:
        engine = StreamEngine(SignalRegistry(signals), window=_window(args.window))
    result = _replay(tracer, edges, engine, threshold)
    with tracer.span("detect.serialize"):
        alert_lines = [serialize_alert(alert)
                       for outcome in result.days
                       for signal_alerts in outcome.alerts.values()
                       for alert in signal_alerts]
    with tracer.span("engine.checkpoint_save") as counts:
        engine.save_checkpoint(args.checkpoint)
        counts["bytes"] = os.path.getsize(args.checkpoint)
    if args.alerts:
        with tracer.span("detect.serialize"):
            Path(args.alerts).write_text(
                "\n".join(alert_lines) + ("\n" if alert_lines else ""),
                encoding="utf-8",
            )


def _backtest(tracer: Tracer, args) -> None:
    threshold = 40.0 if args.threshold is None else args.threshold
    sweep = DEFAULT_SWEEP if args.sweep is None else tuple(
        float(part) for part in args.sweep.split(","))
    signals, edges = _read_edges(tracer, args.edges)
    truth = read_ground_truth(args.truth)
    registry = SignalRegistry(signals)
    engine = StreamEngine(registry, window=_window(args.window))
    replay = _replay(tracer, edges, engine, threshold)

    sweeps, final_metrics, raw, summaries = {}, {}, {}, []
    max_z_by_signal, alerts_by_signal = {}, {}
    for signal in registry.ids():
        max_z_by_signal[signal] = replay.max_z_over_run(signal)
        alerts_by_signal[signal] = replay.alerts_for(signal)
        with tracer.span("backtest.raw_baseline"):
            raw[signal] = raw_signal_baseline(edges, truth, signal)
        try:
            with tracer.span("amplify.score") as counts:
                scores = engine.scores(signal)
                counts["nodes"] = len(scores)
        except SignalAmpError:
            scores = []
        with tracer.span("backtest.sweep"):
            node_users = engine.node_hit_users(signal)
            sweeps[signal] = threshold_sweep(
                scores, node_users, truth, signal, sorted(sweep))
            flagged = flag_nodes(scores, threshold)
            users = set()
            for sc in flagged:
                users.update(node_users.get(sc.node, frozenset()))
            metrics = compute_metrics(users, truth, signal, threshold=threshold,
                                      flagged_nodes=len(flagged))
        final_metrics[signal] = metrics
        peak = max_z_by_signal[signal]
        summaries.append(SignalSummary(
            signal=signal,
            max_z=peak,
            active=peak is not None and peak >= threshold,
            raw_carriers=raw[signal].carriers,
            raw_fraud_carriers=raw[signal].fraud_carriers,
            raw_precision=raw[signal].precision,
            amplified_precision=metrics.precision,
            amplification=amplification_factor(metrics.precision, raw[signal]),
        ))
    incident = compose_signals(alerts_by_signal, max_z_by_signal, threshold)
    with tracer.span("backtest.series"):
        series = daily_series(replay.days, truth)
    report = BacktestReport(threshold, replay, sweeps, final_metrics, raw,
                            summaries, incident, series)
    if args.out is not None:
        with tracer.span("backtest.report_write"):
            write_report_files(report, args.out)


_COMMANDS = {"stream": _stream, "backtest": _backtest}


def tail_percentile(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it, at least 50."""
    return max(50.0, 100.0 * (1.0 - 10.0 / samples))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A layer's time is its spans' self time: duration minus the time of
    their direct children. A layer with no span reports zero work.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    self_s = dict.fromkeys(LAYER_SPANS, 0.0)
    total_s = 0.0
    turn_score_s = {i: 0.0 for i, span in enumerate(spans)
                    if span["name"] == "engine.turn"}
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        if span["parent"] is None:
            total_s += duration
        if span["name"] in self_s:
            self_s[span["name"]] += duration - child_s[i]
        if span["name"] == "amplify.score" and span["parent"] in turn_score_s:
            turn_score_s[span["parent"]] += duration

    def counts(name: str, key: str) -> list[int]:
        return [s["counts"].get(key, 0) for s in spans if s["name"] == name]

    turn_ms = [1000.0 * s for s in turn_score_s.values()]
    metrics = {f"{name}_s": value for name, value in self_s.items()}
    metrics.update({
        "edgefile.read_rows_per_s":
            sum(counts("edgefile.read", "rows")) / self_s["edgefile.read"],
        "edgefile.bytes": sum(counts("edgefile.read", "bytes")),
        "engine.ingest_edges_per_s":
            sum(counts("engine.ingest", "edges")) / self_s["engine.ingest"],
        "engine.evicted_edges": sum(counts("engine.evict", "edges")),
        "engine.checkpoint_bytes_max":
            max(counts("engine.checkpoint_save", "bytes"), default=0),
        "engine.active_nodes_max": max(counts("engine.turn", "active_nodes"), default=0),
        "amplify.node_scores": sum(counts("amplify.score", "nodes")),
        "amplify.turns": len(turn_ms),
        "amplify.turn_score_ms_p50": float(np.percentile(turn_ms, 50)) if turn_ms else 0.0,
        "amplify.turn_score_ms_tail":
            float(np.percentile(turn_ms, tail_percentile(len(turn_ms)))) if turn_ms else 0.0,
        "detect.alerts": sum(counts("detect.alerts", "alerts")),
        "detect.alert_users": sum(counts("detect.alerts", "users")),
        "trace.total_s": total_s,
        "trace.unattributed_s": total_s - sum(self_s.values()),
    })
    return metrics
