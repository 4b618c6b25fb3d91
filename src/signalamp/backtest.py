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
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from .amplify import NodeScore
from .detect import flag_nodes
from .engine import DayOutcome, StreamEngine, WindowConfig, day_batches, replay_turns
from .errors import INACTIVE_SIGNAL
from .model import (
    EdgeColumns,
    NodeId,
    SignalId,
    SignalRegistry,
    TransactionEdge,
    UserId,
    replace_on_success,
)
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
    edges: EdgeColumns, truth: GroundTruth, signal: SignalId
) -> RawSignalBaseline:
    """Precision of the unaggregated signal: flag everyone who ever hit."""
    return _raw_baseline(signal, edges.users_with_hits(signal), truth)


def _raw_baseline(signal: SignalId, carriers: AbstractSet[UserId],
                  truth: GroundTruth) -> RawSignalBaseline:
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
    outcomes: Iterable[DayOutcome], truth: GroundTruth
) -> list[SeriesRow]:
    """Per-day flag counts plus cumulative flagged and confirmed curves.

    Confirmed means flagged users that appear in the ground-truth sybil
    set. Both cumulative curves are non-decreasing by construction.
    ``outcomes`` is read once, so it may be the generator of a running
    replay. The rows are signal-major, signals in the order their
    ``max_z`` keys first appear, with a row for every day; a signal has
    zero rows for the days before it first appears.
    """
    days: list[int] = []
    curves: dict[SignalId, tuple[list[SeriesRow], set[UserId], set[UserId]]] = {}
    for outcome in outcomes:
        for signal in outcome.max_z:
            if signal not in curves:
                curves[signal] = ([SeriesRow(day, signal, 0, 0, 0) for day in days],
                                  set(), set())
        days.append(outcome.day)
        for signal, (rows, seen, confirmed) in curves.items():
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
    return [row for rows, _, _ in curves.values() for row in rows]


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
    """Everything one labeled run produces: ``engine`` is the final window,
    and ``incident`` the users that any turn's alerts implicated."""

    threshold: float
    engine: StreamEngine
    sweeps: dict[SignalId, list[MetricsRow]]
    final_metrics: dict[SignalId, MetricsRow]
    raw: dict[SignalId, RawSignalBaseline]
    summaries: list[SignalSummary]
    incident: frozenset[UserId]
    series: list[SeriesRow]


DEFAULT_SWEEP = (1.0, 5.0, 10.0, 40.0)


def run_backtest(
    edges: EdgeColumns | Iterable[TransactionEdge],
    registry: SignalRegistry,
    truth: GroundTruth,
    *,
    threshold: float,
    sweep_thresholds: Sequence[float] = DEFAULT_SWEEP,
    window: WindowConfig | None = None,
) -> BacktestReport:
    """Replay a labeled, day-ordered edge stream and assemble the full
    report: ``backtest_turns`` over the input cut by ``day_batches``, as
    ``replay_daily`` runs ``replay_turns``. Out-of-order days raise
    ``UnsortedEdgesError`` before anything is ingested."""
    engine = StreamEngine(registry, window=window)
    return backtest_turns(day_batches(edges, engine), engine, truth,
                          threshold=threshold, sweep_thresholds=sweep_thresholds)


def backtest_turns(
    batches: Iterable[EdgeColumns],
    engine: StreamEngine,
    truth: GroundTruth,
    *,
    threshold: float,
    sweep_thresholds: Sequence[float] = DEFAULT_SWEEP,
) -> BacktestReport:
    """Run ``replay_turns`` over the one-day ``batches`` and fold each
    batch and each turn into running totals as they go by, then assemble
    the report; no batch or outcome is kept.

    The totals are each signal's raw carriers (the union of each batch's
    ``users_with_hits``), its peak z over the run, the daily series and
    the incident (the union of each turn's flagged users). The sweep and
    the summary are computed on the final window snapshot.
    """
    signals = engine.registry.ids()
    carriers: dict[SignalId, set[UserId]] = {signal: set() for signal in signals}
    peaks: dict[SignalId, float | None] = dict.fromkeys(signals)
    incident: set[UserId] = set()

    def carried(batches: Iterable[EdgeColumns]) -> Iterator[EdgeColumns]:
        for batch in batches:
            for signal in signals:
                carriers[signal] |= batch.users_with_hits(signal)
            yield batch

    def folded(outcomes: Iterable[DayOutcome]) -> Iterator[DayOutcome]:
        for outcome in outcomes:
            for signal, z in outcome.max_z.items():
                if z is not None and (peaks[signal] is None or z > peaks[signal]):
                    peaks[signal] = z
            incident.update(*outcome.flagged_users.values())
            yield outcome

    series = daily_series(folded(replay_turns(carried(batches), engine, threshold)),
                          truth)
    sweeps: dict[SignalId, list[MetricsRow]] = {}
    final_metrics: dict[SignalId, MetricsRow] = {}
    raw: dict[SignalId, RawSignalBaseline] = {}
    summaries: list[SignalSummary] = []
    for signal in signals:
        peak = peaks[signal]
        raw[signal] = _raw_baseline(signal, carriers[signal], truth)
        try:
            scores = engine.scores(signal)
        except INACTIVE_SIGNAL:
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
                max_z=peak,
                active=peak is not None and peak >= threshold,
                raw_carriers=raw[signal].carriers,
                raw_fraud_carriers=raw[signal].fraud_carriers,
                raw_precision=raw[signal].precision,
                amplified_precision=metrics.precision,
                amplification=amplification_factor(metrics.precision, raw[signal]),
            )
        )
    return BacktestReport(
        threshold=threshold,
        engine=engine,
        sweeps=sweeps,
        final_metrics=final_metrics,
        raw=raw,
        summaries=summaries,
        incident=frozenset(incident),
        series=series,
    )


# -- report files ----------------------------------------------------------

def format_float(value: float | None, places: int) -> str:
    """``value`` to ``places`` decimals, or ``n/a`` for a missing metric."""
    return "n/a" if value is None else f"{value:.{places}f}"


def write_csv(path: str | Path, row_type: type, rows: Iterable) -> None:
    """Write ``rows``, instances of the dataclass ``row_type``, under a
    header of its field names. A field typed ``float`` is written to six
    places, or ``n/a`` when it holds None, and a flag as 0 or 1."""
    names = [field.name for field in fields(row_type)]
    hints = typing.get_type_hints(row_type)
    floats = {name for name in names
              if float in (hints[name], *typing.get_args(hints[name]))}
    with replace_on_success(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_cell(getattr(row, name), name in floats) for name in names]
                         for row in rows)


def _cell(value, is_float: bool):
    if is_float:
        return format_float(value, 6)
    return int(value) if isinstance(value, bool) else value


def write_report_files(report: BacktestReport, out_dir: str | Path) -> list[Path]:
    """One sweep file per signal, one daily series, one summary."""
    out = Path(out_dir)
    files = [(out / f"sweep_{signal}.csv", MetricsRow, rows)
             for signal, rows in report.sweeps.items()]
    files += [(out / "daily_series.csv", SeriesRow, report.series),
              (out / "summary.csv", SignalSummary, report.summaries)]
    for path, row_type, rows in files:
        write_csv(path, row_type, rows)
    return [path for path, _, _ in files]


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
