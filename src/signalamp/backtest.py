"""Backtest metrics: precision, conditional recall, coverage, amplification.

User-level accounting is deliberately asymmetric: precision is measured
against everyone flagged, while recall is conditioned on the fraudsters
that ever carried the signal. Coverage reports how much of the cohort the
signal could have caught at all, and the unconditional recall is just the
product of the two. A user counts once per row no matter how many nodes
or days implicated them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

from .amplify import NodeScore
from .detect import (
    ActivationReport,
    IncidentSummary,
    compose_signals,
    flag_nodes,
)
from .engine import DayOutcome, ReplayResult, WindowConfig, replay_daily
from .errors import SignalAmpError
from .model import NodeId, SignalId, SignalRegistry, TransactionEdge, UserId
from .scenario import GroundTruth


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """User-level outcome of one (signal, threshold) adjudication.

    ``scr``, ``coverage`` and ``unconditional_recall`` are None when the
    ground truth cannot support them (no fraudsters, or no carriers).
    """

    threshold: float
    flagged_nodes: int
    flagged_users: int
    caught: int
    precision: float
    scr: float | None
    coverage: float | None
    unconditional_recall: float | None


def metrics_from_counts(
    threshold: float,
    flagged_nodes: int,
    flagged_users: int,
    caught: int,
    carriers: int,
    fraudsters: int,
) -> MetricsRow:
    """Pure arithmetic layer over already-tallied counts."""
    if min(flagged_nodes, flagged_users, caught, carriers, fraudsters) < 0:
        raise ValueError("metric counts must be non-negative")
    precision = caught / flagged_users if flagged_users else 0.0
    scr = caught / carriers if carriers else None
    coverage = carriers / fraudsters if fraudsters else None
    unconditional = scr * coverage if scr is not None and coverage is not None else None
    return MetricsRow(
        threshold=threshold,
        flagged_nodes=flagged_nodes,
        flagged_users=flagged_users,
        caught=caught,
        precision=precision,
        scr=scr,
        coverage=coverage,
        unconditional_recall=unconditional,
    )


def compute_metrics(
    flagged_users: AbstractSet[UserId],
    truth: GroundTruth,
    signal: SignalId,
    *,
    threshold: float = math.nan,
    flagged_nodes: int = 0,
) -> MetricsRow:
    """Score a flagged-user set against ground truth for one signal."""
    fraudsters = truth.sybil_users
    carriers = truth.carriers.get(signal, frozenset())
    caught = len(flagged_users & fraudsters)
    return metrics_from_counts(
        threshold=threshold,
        flagged_nodes=flagged_nodes,
        flagged_users=len(flagged_users),
        caught=caught,
        carriers=len(carriers),
        fraudsters=len(fraudsters),
    )


@dataclass(frozen=True, slots=True)
class RawSignalBaseline:
    """What flagging every hit-carrying user would achieve, no aggregation."""

    signal: SignalId
    carriers: int
    fraud_carriers: int
    precision: float | None


def raw_signal_baseline(
    edges: Iterable[TransactionEdge], truth: GroundTruth, signal: SignalId
) -> RawSignalBaseline:
    """Precision of the unaggregated signal: flag everyone who ever hit."""
    carriers: set[UserId] = set()
    for edge in edges:
        if edge.hits.get(signal):
            carriers.add(edge.user)
    fraud_carriers = len(carriers & truth.sybil_users)
    precision = fraud_carriers / len(carriers) if carriers else None
    return RawSignalBaseline(signal, len(carriers), fraud_carriers, precision)


def amplification_factor(
    amplified_precision: float, raw: RawSignalBaseline
) -> float | None:
    """How many times better adjudicated precision is than the raw signal."""
    if raw.precision is None or raw.precision == 0.0:
        return None
    return amplified_precision / raw.precision


def threshold_sweep(
    scores: Sequence[NodeScore],
    node_users: Mapping[NodeId, AbstractSet[UserId]],
    truth: GroundTruth,
    signal: SignalId,
    thresholds: Sequence[float],
) -> list[MetricsRow]:
    """One MetricsRow per threshold over a single scoring snapshot.

    ``node_users`` maps each node to its hit-carrying users in the same
    window the scores came from. Thresholds must be sorted ascending;
    flagged node and user counts are then non-increasing down the table.
    """
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    rows = []
    for threshold in thresholds:
        flagged = flag_nodes(scores, threshold)
        users: set[UserId] = set()
        for sc in flagged:
            users.update(node_users.get(sc.node, frozenset()))
        rows.append(
            compute_metrics(
                users, truth, signal,
                threshold=threshold, flagged_nodes=len(flagged),
            )
        )
    return rows


@dataclass(frozen=True, slots=True)
class SeriesRow:
    day: int
    signal: SignalId
    flagged_users: int
    cumulative_flagged: int
    cumulative_confirmed: int


def daily_series(
    outcomes: Sequence[DayOutcome], truth: GroundTruth
) -> list[SeriesRow]:
    """Per-day flag counts plus cumulative flagged and confirmed curves.

    Confirmed means flagged users that appear in the ground-truth sybil
    set. Both cumulative curves are non-decreasing by construction.
    """
    signals: list[SignalId] = []
    for outcome in outcomes:
        for signal in outcome.max_z:
            if signal not in signals:
                signals.append(signal)
    rows = []
    for signal in signals:
        seen: set[UserId] = set()
        confirmed: set[UserId] = set()
        for outcome in outcomes:
            today = outcome.flagged_users.get(signal, frozenset())
            seen.update(today)
            confirmed.update(today & truth.sybil_users)
            rows.append(
                SeriesRow(
                    day=outcome.day,
                    signal=signal,
                    flagged_users=len(today),
                    cumulative_flagged=len(seen),
                    cumulative_confirmed=len(confirmed),
                )
            )
    return rows


@dataclass(frozen=True, slots=True)
class SignalSummary:
    signal: SignalId
    max_z: float | None
    active: bool
    raw_carriers: int
    raw_fraud_carriers: int
    raw_precision: float | None
    amplified_precision: float
    amplification: float | None


@dataclass(slots=True)
class BacktestReport:
    """Everything one labeled run produces."""

    threshold: float
    replay: ReplayResult
    sweeps: dict[SignalId, list[MetricsRow]]
    final_metrics: dict[SignalId, MetricsRow]
    raw: dict[SignalId, RawSignalBaseline]
    summaries: list[SignalSummary]
    incident: IncidentSummary
    series: list[SeriesRow]

    @property
    def activation(self) -> ActivationReport:
        return self.incident.report


def run_backtest(
    edges: Sequence[TransactionEdge],
    registry: SignalRegistry,
    truth: GroundTruth,
    *,
    threshold: float,
    sweep_thresholds: Sequence[float] = (1.0, 5.0, 10.0, 40.0),
    window: WindowConfig | None = None,
) -> BacktestReport:
    """Replay a labeled edge stream and assemble the full report.

    The daily series reflects each day's scoring turn; the sweep and the
    summary are computed on the final window snapshot. Activation peaks
    are taken over the whole run.
    """
    replay = replay_daily(edges, registry, threshold=threshold, window=window)
    engine = replay.engine
    sweeps: dict[SignalId, list[MetricsRow]] = {}
    final_metrics: dict[SignalId, MetricsRow] = {}
    raw: dict[SignalId, RawSignalBaseline] = {}
    summaries: list[SignalSummary] = []
    max_z_by_signal: dict[SignalId, float | None] = {}
    alerts_by_signal = {}
    for signal in registry.ids():
        max_z_by_signal[signal] = replay.max_z_over_run(signal)
        alerts_by_signal[signal] = replay.alerts_for(signal)
        raw[signal] = raw_signal_baseline(edges, truth, signal)
        try:
            scores = engine.scores(signal)
        except SignalAmpError:
            scores = []
        node_users = engine.node_hit_users(signal)
        sweeps[signal] = threshold_sweep(
            scores, node_users, truth, signal, sorted(sweep_thresholds)
        )
        metrics = threshold_sweep(scores, node_users, truth, signal, [threshold])[0]
        final_metrics[signal] = metrics
        summaries.append(
            SignalSummary(
                signal=signal,
                max_z=max_z_by_signal[signal],
                active=(max_z_by_signal[signal] is not None
                        and max_z_by_signal[signal] >= threshold),
                raw_carriers=raw[signal].carriers,
                raw_fraud_carriers=raw[signal].fraud_carriers,
                raw_precision=raw[signal].precision,
                amplified_precision=metrics.precision,
                amplification=amplification_factor(metrics.precision, raw[signal]),
            )
        )
    incident = compose_signals(alerts_by_signal, max_z_by_signal, threshold)
    series = daily_series(replay.days, truth)
    return BacktestReport(
        threshold=threshold,
        replay=replay,
        sweeps=sweeps,
        final_metrics=final_metrics,
        raw=raw,
        summaries=summaries,
        incident=incident,
        series=series,
    )


# -- report files ----------------------------------------------------------

def format_float(value: float | None, places: int) -> str:
    """``value`` to ``places`` decimals, or ``n/a`` for a missing metric."""
    return "n/a" if value is None else f"{value:.{places}f}"


def write_sweep_csv(path: str | Path, rows: Sequence[MetricsRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "threshold", "flagged_nodes", "flagged_users", "caught",
            "precision", "scr", "coverage", "unconditional_recall",
        ])
        for row in rows:
            writer.writerow([
                format_float(row.threshold, 6), row.flagged_nodes,
                row.flagged_users, row.caught, format_float(row.precision, 6),
                format_float(row.scr, 6), format_float(row.coverage, 6),
                format_float(row.unconditional_recall, 6),
            ])


def write_series_csv(path: str | Path, rows: Sequence[SeriesRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "day", "signal", "flagged_users",
            "cumulative_flagged", "cumulative_confirmed",
        ])
        for row in rows:
            writer.writerow([
                row.day, row.signal, row.flagged_users,
                row.cumulative_flagged, row.cumulative_confirmed,
            ])


def write_summary_csv(path: str | Path, summaries: Sequence[SignalSummary]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "signal", "max_z", "active", "raw_carriers", "raw_fraud_carriers",
            "raw_precision", "amplified_precision", "amplification",
        ])
        for s in summaries:
            writer.writerow([
                s.signal, format_float(s.max_z, 6), int(s.active),
                s.raw_carriers, s.raw_fraud_carriers,
                format_float(s.raw_precision, 6),
                format_float(s.amplified_precision, 6),
                format_float(s.amplification, 6),
            ])


def write_report_files(report: BacktestReport, out_dir: str | Path) -> list[Path]:
    """One sweep file per signal, one daily series, one summary."""
    out = Path(out_dir)
    written = []
    for signal, rows in report.sweeps.items():
        path = out / f"sweep_{signal}.csv"
        write_sweep_csv(path, rows)
        written.append(path)
    series_path = out / "daily_series.csv"
    write_series_csv(series_path, report.series)
    written.append(series_path)
    summary_path = out / "summary.csv"
    write_summary_csv(summary_path, report.summaries)
    written.append(summary_path)
    return written


@dataclass(frozen=True, slots=True)
class AcceptanceBounds:
    """Optional pass/fail gates evaluated against one signal's summary."""

    signal: SignalId
    min_precision: float | None = None
    min_scr: float | None = None
    min_amplification: float | None = None
    max_flagged_users: int | None = None


def check_bounds(report: BacktestReport, bounds: AcceptanceBounds) -> list[str]:
    """Return human-readable failures; empty means every gate passed."""
    failures = []
    metrics = report.final_metrics.get(bounds.signal)
    if metrics is None:
        return [f"bounds name unknown signal {bounds.signal!r}"]
    summary = next(s for s in report.summaries if s.signal == bounds.signal)
    if bounds.min_precision is not None and metrics.precision < bounds.min_precision:
        failures.append(
            f"{bounds.signal}: precision {metrics.precision:.4f} "
            f"< required {bounds.min_precision:.4f}"
        )
    if bounds.min_scr is not None:
        if metrics.scr is None or metrics.scr < bounds.min_scr:
            failures.append(
                f"{bounds.signal}: scr {format_float(metrics.scr, 6)} "
                f"< required {bounds.min_scr:.4f}"
            )
    if bounds.min_amplification is not None:
        amp = summary.amplification
        if amp is None or amp < bounds.min_amplification:
            failures.append(
                f"{bounds.signal}: amplification {format_float(amp, 6)} "
                f"< required {bounds.min_amplification:.2f}"
            )
    if bounds.max_flagged_users is not None:
        if metrics.flagged_users > bounds.max_flagged_users:
            failures.append(
                f"{bounds.signal}: flagged_users {metrics.flagged_users} "
                f"> allowed {bounds.max_flagged_users}"
            )
    return failures
