"""Incremental scoring engine: O(1) per-edge ingest, daily scoring turns,
trailing or cumulative windows, and resumable checkpoints.

The engine keeps exactly the counters the batch pipeline would build, so
a stream run and a batch run over the same edges produce bit-identical
scores regardless of arrival order: every counter is an integer sum.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .amplify import NodeScore, build_scores, score_all, score_rows
from .detect import Alert, build_alerts, flag_nodes
from .errors import (
    CheckpointError,
    DegenerateBaselineError,
    NoBaselineError,
    UnknownNodeError,
    UnknownSignalError,
    UnsortedEdgesError,
)
from .model import (
    EdgeColumns,
    GlobalBaseline,
    NodeAccumulator,
    NodeId,
    SignalId,
    SignalRegistry,
    TransactionEdge,
    UserId,
)

CHECKPOINT_VERSION = 1

_INT64_MAX = 2**63 - 1

CUMULATIVE = "cumulative"
TRAILING = "trailing"


@dataclass(frozen=True, slots=True)
class WindowConfig:
    """Scoring window: everything so far, or only the last ``trailing_days``.

    Scoring cadence is one turn per day index in both modes.
    """

    mode: str = CUMULATIVE
    trailing_days: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (CUMULATIVE, TRAILING):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == TRAILING:
            days = self.trailing_days
            if type(days) is not int or days < 1:
                raise ValueError(
                    f"trailing window needs an integer trailing_days >= 1, got {days!r}"
                )
        elif self.trailing_days is not None:
            raise ValueError("cumulative window takes no trailing_days")

    @classmethod
    def cumulative(cls) -> "WindowConfig":
        return cls(CUMULATIVE, None)

    @classmethod
    def trailing(cls, days: int) -> "WindowConfig":
        return cls(TRAILING, days)


class StreamEngine:
    """Mutable scoring state over a window of the edge stream.

    Holds a ``NodeAccumulator`` per node and global totals for each
    signal. With ``track_users`` on, each tally also counts its
    hit-carrying users per signal, so alerts can name who to investigate.
    Global totals are maintained incrementally and always equal the sums
    over the node table.
    """

    def __init__(
        self,
        registry: SignalRegistry,
        window: WindowConfig | None = None,
        track_users: bool = True,
    ) -> None:
        self.registry = registry
        self.window = window or WindowConfig.cumulative()
        self.track_users = track_users
        self._signal_ids = set(registry.ids())
        self._nodes: dict[NodeId, NodeAccumulator] = {}
        self._total_trials = 0
        self._total_hits: dict[SignalId, int] = {s: 0 for s in registry.ids()}
        self._current_day: int | None = None
        # Trailing mode holds per-day deltas so old days can be subtracted
        # back out; a day at or below _evicted_through is gone for good.
        self._day_buffers: dict[int, dict[NodeId, NodeAccumulator]] = {}
        self._evicted_through = -1

    # -- properties ------------------------------------------------------

    @property
    def current_day(self) -> int | None:
        return self._current_day

    @property
    def total_transactions(self) -> int:
        return self._total_trials

    @property
    def active_node_count(self) -> int:
        return len(self._nodes)

    def total_hits(self, signal: SignalId) -> int:
        self.registry.require(signal)
        return self._total_hits[signal]

    def accumulators(self) -> Iterator[NodeAccumulator]:
        return iter(self._nodes.values())

    # -- ingest ----------------------------------------------------------

    def ingest(self, edge: TransactionEdge) -> None:
        """Fold one edge into the window. Constant work per edge."""
        day = edge.day
        if day <= self._evicted_through:
            raise self._precedes_window(day)
        hits = {}
        for signal, bit in edge.hits.items():
            if signal not in self._signal_ids:
                raise UnknownSignalError(
                    f"edge references unregistered signal {signal!r}"
                )
            if bit:
                hits[signal] = 1
        users = ({signal: {edge.user: 1} for signal in hits}
                 if self.track_users else {})
        self._apply(day, edge.node, 1, hits, users, 1)

    def ingest_columns(self, batch: EdgeColumns) -> None:
        """Fold a batch of edges into the window, in any order.

        Rows are grouped by (day, node), and each group is applied as one
        delta: the counters end up as if every edge had been ingested.
        """
        if not len(batch):
            return
        first = int(batch.day.min())
        if first <= self._evicted_through:
            raise self._precedes_window(first)
        signals = []
        for signal, bits in zip(batch.signals, batch.hits):
            if signal in self._signal_ids:
                signals.append((signal, bits))
            elif bits.any():
                raise UnknownSignalError(
                    f"edge references unregistered signal {signal!r}"
                )
        days, day_code = np.unique(batch.day, return_inverse=True)
        n_nodes = len(batch.nodes)
        keys, group = np.unique(day_code * n_nodes + batch.node_code,
                                return_inverse=True)
        trials = np.bincount(group, minlength=len(keys)).tolist()
        hits: list[dict] = [{} for _ in range(len(keys))]
        users: list[dict] = [{} for _ in range(len(keys))]
        user_ids = batch.users
        n_users = len(user_ids)
        for signal, bits in signals:
            hit_group = group[bits]
            counts = np.bincount(hit_group, minlength=len(keys))
            hit_groups = np.flatnonzero(counts)
            for g, count in zip(hit_groups.tolist(), counts[hit_groups].tolist()):
                hits[g][signal] = count
            if not self.track_users:
                continue
            pairs, per_pair = np.unique(
                hit_group * n_users + batch.user_code[bits], return_counts=True)
            for pair, count in zip(pairs.tolist(), per_pair.tolist()):
                g, user = divmod(pair, n_users)
                users[g].setdefault(signal, {})[user_ids[user]] = count
        group_day = days[keys // n_nodes].tolist()
        group_node = [batch.nodes[code] for code in (keys % n_nodes).tolist()]
        apply = self._apply
        for g, day in enumerate(group_day):
            apply(day, group_node[g], trials[g], hits[g], users[g], 1)

    def _precedes_window(self, day: int) -> UnsortedEdgesError:
        return UnsortedEdgesError(
            f"edge day {day} precedes the trailing window "
            f"(evicted through day {self._evicted_through})"
        )

    def _apply(
        self,
        day: int,
        node: NodeId,
        trials: int,
        hits: dict[SignalId, int],
        users: dict[SignalId, dict[UserId, int]],
        sign: int,
    ) -> None:
        """Add (``sign`` 1) or remove (``sign`` -1) one node's counts of one day.

        ``hits`` maps each signal to its hit count, ``users`` each signal
        to the hit count per user (empty when users are not tracked).
        Removing drops every count and user table that reaches zero, and
        the node once its trials do. Adding also records the counts in the
        day's buffer of a trailing window: the first counts of a (day, node)
        become its buffer entry, which then owns ``hits`` and ``users``, so
        the caller must pass dicts it built for this call alone and not
        touch them again; later counts are added into that entry. This is
        the engine's only fold.
        """
        acc = self._nodes.get(node)
        if acc is None:
            acc = self._nodes[node] = NodeAccumulator(node)
        _merge(acc, trials, hits, users, sign)
        self._total_trials += sign * trials
        if hits:
            for signal, count in hits.items():
                self._total_hits[signal] += sign * count
        if sign < 0:
            if not acc.trials:
                del self._nodes[node]
            return
        if self._current_day is None or day > self._current_day:
            self._current_day = day
        if self.window.mode == TRAILING:
            bucket = self._day_buffers.setdefault(day, {})
            entry = bucket.get(node)
            if entry is None:
                bucket[node] = NodeAccumulator(node, trials, hits, users)
            else:
                _merge(entry, trials, hits, users, 1)

    def advance_to(self, day: int) -> None:
        """Move the window forward to a scoring turn at ``day``.

        In trailing mode this drops every day at or before
        ``day - trailing_days``; cumulative windows never evict.
        """
        if self.window.mode != TRAILING:
            return
        horizon = day - self.window.trailing_days
        if horizon <= self._evicted_through:
            return
        for buffered_day in sorted(self._day_buffers):
            if buffered_day > horizon:
                continue
            for node, delta in self._day_buffers.pop(buffered_day).items():
                self._apply(buffered_day, node, delta.trials, delta.hits,
                            delta.users, -1)
        self._evicted_through = horizon

    # -- scoring ---------------------------------------------------------

    def baseline(self, signal: SignalId) -> GlobalBaseline:
        """Baseline from the engine's running totals; O(1)."""
        self.registry.require(signal)
        if self._total_trials == 0:
            raise NoBaselineError(f"window is empty for signal {signal!r}")
        return GlobalBaseline(
            signal, self._total_hits[signal], self._total_trials, len(self._nodes)
        )

    def scores(self, signal: SignalId) -> list[NodeScore]:
        """Score every node in the window, same ordering as the batch path."""
        return score_all(self._nodes.values(), self.baseline(signal))

    def flagged(
        self, signal: SignalId, threshold: float
    ) -> tuple[float, list[NodeScore]]:
        """Peak z over the window and the nodes with ``z >= threshold``.

        Equals ``scores()`` followed by ``flag_nodes``, and raises what
        ``scores()`` raises, but builds a ``NodeScore`` only for the
        flagged nodes.
        """
        columns = score_rows(self._nodes.values(), self.baseline(signal))
        z = columns[-1]
        rows = np.flatnonzero(z >= threshold)
        kept = build_scores(list(self._nodes.values()), signal, columns, rows)
        return float(z.max()), flag_nodes(kept, threshold)

    def query_score(self, node: NodeId, signal: SignalId) -> NodeScore:
        """Score one node on demand; equals the batch score over the window."""
        acc = self._nodes.get(node)
        if acc is None:
            raise UnknownNodeError(f"node {node!r} has no transactions in window")
        columns = score_rows([acc], self.baseline(signal))
        return build_scores([acc], signal, columns, np.arange(1))[0]

    def hit_users(self, node: NodeId, signal: SignalId) -> frozenset[UserId]:
        """Users that sent ``node`` a hit-carrying edge inside the window."""
        if not self.track_users:
            raise ValueError("engine was built with track_users=False")
        acc = self._nodes.get(node)
        if acc is None:
            return frozenset()
        return frozenset(acc.users.get(signal, ()))

    def node_hit_users(self, signal: SignalId) -> dict[NodeId, frozenset[UserId]]:
        if not self.track_users:
            raise ValueError("engine was built with track_users=False")
        out = {}
        for node, acc in self._nodes.items():
            users = acc.users.get(signal)
            if users:
                out[node] = frozenset(users)
        return out

    # -- checkpointing -----------------------------------------------------

    def checkpoint_payload(self) -> dict:
        """Serializable snapshot of configuration and every counter."""
        nodes = _table_payload(self._nodes, with_users=self.track_users)
        buffers = {str(day): _table_payload(bucket, with_users=True)
                   for day, bucket in self._day_buffers.items()}
        return {
            "format_version": CHECKPOINT_VERSION,
            "signals": [
                {"signal": d.signal, "description": d.description}
                for d in (self.registry.describe(s) for s in self.registry.ids())
            ],
            "window": {"mode": self.window.mode,
                       "trailing_days": self.window.trailing_days},
            "track_users": self.track_users,
            "current_day": self._current_day,
            "evicted_through": self._evicted_through,
            "totals": {
                "transactions": self._total_trials,
                "active_nodes": len(self._nodes),
                "hits": dict(self._total_hits),
            },
            "nodes": nodes,
            "day_buffers": buffers,
        }

    def save_checkpoint(self, path: str | Path) -> None:
        """Write a versioned snapshot; identical state gives identical bytes.

        The snapshot goes to a temporary file beside ``path`` that then
        replaces it, so a failed save leaves any previous file intact.
        """
        text = json.dumps(
            self.checkpoint_payload(), sort_keys=True, separators=(",", ":")
        ) + "\n"
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "StreamEngine":
        """Rebuild an engine from a snapshot, verifying counter consistency."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path} must hold a JSON object")
        version = payload.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        try:
            registry = SignalRegistry()
            for entry in payload["signals"]:
                registry.register(entry["signal"], entry.get("description", ""))
            window = WindowConfig(payload["window"]["mode"],
                                  payload["window"]["trailing_days"])
            engine = cls(registry, window, payload["track_users"])
            engine._current_day = payload["current_day"]
            engine._evicted_through = payload["evicted_through"]
            _check_days(path, engine)
            if engine._current_day is None and payload["nodes"]:
                raise CheckpointError(
                    f"checkpoint {path}: holds nodes but no current_day"
                )
            engine._nodes = engine._load_table(path, payload["nodes"], None)
            for key, bucket in payload["day_buffers"].items():
                day = _buffer_day(path, engine, key)
                engine._day_buffers[day] = engine._load_table(path, bucket, day)
            totals = payload["totals"]
            engine._total_trials = totals["transactions"]
            for signal, count in totals["hits"].items():
                registry.require(signal)
                engine._total_hits[signal] = count
            active_nodes = totals["active_nodes"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
        for name, value in [("transactions", engine._total_trials),
                            *engine._total_hits.items(),
                            ("active_nodes", active_nodes)]:
            if type(value) is not int:
                raise CheckpointError(
                    f"checkpoint {path}: total {name!r} is {value!r}; need an integer"
                )
        recomputed_trials = sum(a.trials for a in engine._nodes.values())
        if recomputed_trials != engine._total_trials:
            raise CheckpointError(
                "checkpoint totals disagree with the node table "
                f"({engine._total_trials} recorded, {recomputed_trials} recomputed)"
            )
        for signal in registry.ids():
            recomputed = sum(a.hits.get(signal, 0) for a in engine._nodes.values())
            if recomputed != engine._total_hits[signal]:
                raise CheckpointError(
                    f"checkpoint hit totals for {signal!r} disagree with node table"
                )
        if active_nodes != len(engine._nodes):
            raise CheckpointError("checkpoint active node count disagrees")
        if window.mode == TRAILING:
            engine._check_buffer_sums(path)
        return engine

    def _load_table(self, path, entries: dict,
                    day: int | None) -> dict[NodeId, NodeAccumulator]:
        """Check the checkpoint entries of the node table (``day`` None) or
        of one day buffer, and build their tallies. User tables are checked
        only when users are tracked, and ignored otherwise; empty
        per-signal tables are dropped."""
        signal_ids, track = self._signal_ids, self.track_users
        table = {}
        for node, entry in entries.items():
            trials, hits = entry["t"], entry["s"]
            _check_counts(path, signal_ids, node, day, trials, hits)
            users = {}
            if track:
                users = entry.get("users", {})
                _check_users(path, signal_ids, node, day, hits, users)
                if not all(users.values()):
                    users = {signal: per for signal, per in users.items() if per}
            table[node] = NodeAccumulator(node, trials, hits, users)
        return table

    def _check_buffer_sums(self, path) -> None:
        """A trailing window's day buffers must add up to the node table,
        user tables included, or eviction would leave wrong counts."""
        trials_sum: dict[NodeId, int] = {}
        hits_sum: dict[NodeId, dict] = {}
        users_sum: dict[NodeId, dict] = {}
        for bucket in self._day_buffers.values():
            for node, delta in bucket.items():
                trials_sum[node] = trials_sum.get(node, 0) + delta.trials
                if delta.hits:
                    _add_counts(hits_sum.setdefault(node, {}), delta.hits, 1)
                for signal, counts in delta.users.items():
                    table = users_sum.setdefault(node, {}).setdefault(signal, {})
                    for user, count in counts.items():
                        table[user] = table.get(user, 0) + count
        for node in self._nodes.keys() | trials_sum.keys():
            acc = self._nodes.get(node)
            if acc is None or trials_sum.get(node) != acc.trials or (
                hits_sum.get(node, {}) != {s: c for s, c in acc.hits.items() if c}
            ) or users_sum.get(node, {}) != acc.users:
                raise CheckpointError(
                    f"checkpoint {path}: the day buffers of node {node!r} do "
                    "not add up to its node-table entry"
                )


def _check_days(path, engine: StreamEngine) -> None:
    """``current_day`` is null or a day, ``evicted_through`` -1 or a day;
    a cumulative window has evicted nothing."""
    current, evicted = engine._current_day, engine._evicted_through
    if current is not None and not _is_count(current, 0, _INT64_MAX):
        raise CheckpointError(
            f"checkpoint {path}: current_day {current!r} is not null or an "
            "integer in [0, 2**63 - 1]"
        )
    if not _is_count(evicted, -1, _INT64_MAX):
        raise CheckpointError(
            f"checkpoint {path}: evicted_through {evicted!r} is not an "
            "integer in [-1, 2**63 - 1]"
        )
    if engine.window.mode == CUMULATIVE and evicted != -1:
        raise CheckpointError(
            f"checkpoint {path}: a cumulative window evicts nothing, but "
            f"evicted_through is {evicted}"
        )


def _buffer_day(path, engine: StreamEngine, key: str) -> int:
    """The day of a ``day_buffers`` key: a trailing window buffers only the
    days in ``(evicted_through, current_day]``."""
    if engine.window.mode == CUMULATIVE:
        raise CheckpointError(
            f"checkpoint {path}: a cumulative window keeps no day buffers, "
            f"found day {key!r}"
        )
    low, high = engine._evicted_through, engine._current_day
    day = int(key)
    if str(day) != key or high is None or not low < day <= high:
        raise CheckpointError(
            f"checkpoint {path}: day_buffers key {key!r} is not a day in "
            f"({low}, {high}]"
        )
    return day


def _table_payload(table: dict[NodeId, NodeAccumulator], with_users: bool) -> dict:
    """The node table or a day buffer as checkpoint format v1 writes it:
    buffer entries always carry ``users``, node entries only when tracked."""
    out = {}
    for node, acc in table.items():
        entry = out[node] = {"t": acc.trials, "s": dict(acc.hits)}
        if with_users:
            entry["users"] = {signal: dict(per) for signal, per in acc.users.items()}
    return out


def _merge(acc: NodeAccumulator, trials: int, hits: dict, users: dict,
           sign: int) -> None:
    """Add ``sign`` times one node's counts into ``acc``, dropping the
    counts and per-signal user tables that reach zero."""
    acc.trials += sign * trials
    if hits:
        _add_counts(acc.hits, hits, sign)
    for signal, counts in users.items():
        table = acc.users.setdefault(signal, {})
        _add_counts(table, counts, sign)
        if not table:
            del acc.users[signal]


def _add_counts(table: dict, counts: dict, sign: int) -> None:
    """Add ``sign`` times each count to ``table``; drop keys that reach 0."""
    for key, count in counts.items():
        value = table.get(key, 0) + sign * count
        if value:
            table[key] = value
        else:
            table.pop(key, None)


def _is_count(value: object, low: int, high: int) -> bool:
    return type(value) is int and low <= value <= high


def _entry(node: NodeId, day: int | None) -> str:
    """How a checkpoint error names a node-table (``day`` None) or buffer entry."""
    return f"node {node!r}" if day is None else f"day {day} buffer of node {node!r}"


def _check_counts(path, signal_ids: set, node: NodeId, day: int | None,
                  trials: object, hits: dict) -> None:
    """Every loaded tally must satisfy what scoring assumes:
    1 <= t < 2**63 and 0 <= s <= t per registered signal."""
    if not _is_count(trials, 1, _INT64_MAX):
        raise CheckpointError(
            f"checkpoint {path}: {_entry(node, day)} has trial count "
            f"{trials!r}; need an integer in [1, 2**63 - 1]"
        )
    for signal, count in hits.items():
        if signal not in signal_ids:
            raise CheckpointError(
                f"checkpoint {path}: {_entry(node, day)} counts hits for "
                f"unregistered signal {signal!r}"
            )
        if type(count) is not int or not 0 <= count <= trials:
            raise CheckpointError(
                f"checkpoint {path}: {_entry(node, day)} has hit count "
                f"{count!r} for {signal!r}; need an integer in [0, {trials}]"
            )


def _check_users(path, signal_ids: set, node: NodeId, day: int | None,
                 hits: dict, table: dict) -> None:
    """A per-user hit table may only name real hit senders: every count an
    integer >= 1, and per signal the counts sum to the hit count."""
    for signal, per_user in table.items():
        if signal not in signal_ids:
            raise CheckpointError(
                f"checkpoint {path}: {_entry(node, day)} names users for "
                f"unregistered signal {signal!r}"
            )
        named = 0
        for user, count in per_user.items():
            if type(count) is not int or count < 1:
                raise CheckpointError(
                    f"checkpoint {path}: {_entry(node, day)} has hit count "
                    f"{count!r} for user {user!r} on {signal!r}; need an "
                    "integer >= 1"
                )
            named += count
        _check_named(path, node, day, signal, named, hits.get(signal, 0))
    for signal, count in hits.items():
        if signal not in table:
            _check_named(path, node, day, signal, 0, count)


def _check_named(path, node: NodeId, day: int | None, signal: SignalId,
                 named: int, count: int) -> None:
    if named != count:
        raise CheckpointError(
            f"checkpoint {path}: {_entry(node, day)} names users with "
            f"{named} hits on {signal!r}, but its hit count is {count}"
        )


@dataclass(slots=True)
class DayOutcome:
    """Everything one scoring turn produced."""

    day: int
    alerts: dict[SignalId, list[Alert]]
    flagged_users: dict[SignalId, frozenset[UserId]]
    max_z: dict[SignalId, float | None]
    inactive_signals: tuple[SignalId, ...]


@dataclass(slots=True)
class ReplayResult:
    """Per-day outcomes plus the engine in its final state."""

    days: list[DayOutcome]
    engine: StreamEngine

    def max_z_over_run(self, signal: SignalId) -> float | None:
        peaks = [d.max_z[signal] for d in self.days if d.max_z.get(signal) is not None]
        return max(peaks) if peaks else None

    def alerts_for(self, signal: SignalId) -> list[Alert]:
        out: list[Alert] = []
        for day in self.days:
            out.extend(day.alerts.get(signal, ()))
        return out

    def flagged_users_over_run(self, signal: SignalId) -> frozenset[UserId]:
        users: set[UserId] = set()
        for day in self.days:
            users.update(day.flagged_users.get(signal, ()))
        return frozenset(users)


def _score_turn(engine: StreamEngine, day: int, threshold: float) -> DayOutcome:
    engine.advance_to(day)
    alerts: dict[SignalId, list[Alert]] = {}
    flagged_users: dict[SignalId, frozenset[UserId]] = {}
    max_z: dict[SignalId, float | None] = {}
    inactive: list[SignalId] = []
    for signal in engine.registry.ids():
        try:
            max_z[signal], flagged = engine.flagged(signal, threshold)
        except (NoBaselineError, DegenerateBaselineError):
            # A window where every bit agrees carries no evidence either way.
            alerts[signal] = []
            flagged_users[signal] = frozenset()
            max_z[signal] = None
            inactive.append(signal)
            continue
        day_alerts = build_alerts(
            flagged,
            {sc.node: engine.hit_users(sc.node, signal) for sc in flagged},
            day,
        )
        alerts[signal] = day_alerts
        users: set[UserId] = set()
        for alert in day_alerts:
            users.update(alert.suspicious_users)
        flagged_users[signal] = frozenset(users)
    return DayOutcome(day, alerts, flagged_users, max_z, tuple(inactive))


def replay_daily(
    edges: EdgeColumns | Iterable[TransactionEdge],
    registry: SignalRegistry | None = None,
    *,
    threshold: float,
    window: WindowConfig | None = None,
    engine: StreamEngine | None = None,
) -> ReplayResult:
    """Feed a day-ordered edge stream through daily scoring turns.

    The edges are converted to ``EdgeColumns`` once, before the first
    turn, so the whole input is held in memory; replay a long stream one
    slice of days at a time, passing each result's engine to the next
    call. Each day's edges are folded in one grouped pass
    (``ingest_columns``), then every signal is rescored over the
    configured window ending at that day. Gap days with
    no traffic still get a scoring turn. Out-of-order days raise
    ``UnsortedEdgesError`` before anything is ingested; callers holding an
    unordered stream sort it by day first.

    Pass ``engine`` to continue from checkpointed state; scoring then
    resumes on the day after the checkpoint's last.
    """
    if engine is None:
        if registry is None:
            raise ValueError("replay_daily needs a registry or an engine")
        engine = StreamEngine(registry, window=window)
    elif registry is not None or window is not None:
        raise ValueError("registry and window come from the engine when resuming")
    if not engine.track_users:
        raise ValueError("replay alerts need an engine with track_users=True")

    outcomes: list[DayOutcome] = []
    batch = EdgeColumns.from_edges(edges, engine.registry.ids())
    if not len(batch):
        return ReplayResult(outcomes, engine)
    day = batch.day
    pending = int(day[0]) if engine.current_day is None else engine.current_day + 1
    _check_sorted(day, pending)
    cuts = (np.flatnonzero(np.diff(day)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(day)]):
        today = int(day[lo])
        for gap_day in range(pending, today):
            outcomes.append(_score_turn(engine, gap_day, threshold))
        engine.ingest_columns(batch[lo:hi])
        outcomes.append(_score_turn(engine, today, threshold))
        pending = today + 1
    return ReplayResult(outcomes, engine)


def _check_sorted(day: np.ndarray, pending: int) -> None:
    """Raise on the first edge whose day is before a day already begun."""
    drops = np.flatnonzero(np.diff(day) < 0)
    if day[0] < pending:
        late, begun = day[0], pending
    elif drops.size:
        late, begun = day[drops[0] + 1], day[drops[0]]
    else:
        return
    raise UnsortedEdgesError(
        f"edge day {late} arrived after day {begun} began "
        "(sort the stream by day first)"
    )
