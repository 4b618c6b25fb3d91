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

from .amplify import NodeScore, build_scores, score_all, score_node, score_rows
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

    Holds per-node tallies, global totals for each signal, and (when
    ``track_users`` is on) the hit-carrying users per node per signal so
    alerts can name who to investigate. Global totals are maintained
    incrementally and always equal the sums over the node table.
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
        self._hit_users: dict[NodeId, dict[SignalId, dict[UserId, int]]] = {}
        self._total_trials = 0
        self._total_hits: dict[SignalId, int] = {s: 0 for s in registry.ids()}
        self._current_day: int | None = None
        # Trailing mode holds per-day deltas so old days can be subtracted
        # back out; a day at or below _evicted_through is gone for good.
        self._day_buffers: dict[int, dict[NodeId, list]] = {}
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
            raise UnsortedEdgesError(
                f"edge day {day} precedes the trailing window "
                f"(evicted through day {self._evicted_through})"
            )
        node = edge.node
        known = self._signal_ids
        acc = self._nodes.get(node)
        if acc is None:
            acc = NodeAccumulator(node)
            self._nodes[node] = acc
        acc.trials += 1
        self._total_trials += 1
        if self._current_day is None or day > self._current_day:
            self._current_day = day
        trailing = self.window.mode == TRAILING
        if trailing:
            bucket = self._day_buffers.setdefault(day, {})
            delta = bucket.get(node)
            if delta is None:
                delta = [0, {}, {}]
                bucket[node] = delta
            delta[0] += 1
        track = self.track_users
        acc_hits = acc.hits
        total_hits = self._total_hits
        for signal, bit in edge.hits.items():
            if signal not in known:
                raise UnknownSignalError(
                    f"edge references unregistered signal {signal!r}"
                )
            if not bit:
                continue
            acc_hits[signal] = acc_hits.get(signal, 0) + 1
            total_hits[signal] += 1
            if track:
                per_node = self._hit_users.get(node)
                if per_node is None:
                    per_node = {}
                    self._hit_users[node] = per_node
                per_sig = per_node.get(signal)
                if per_sig is None:
                    per_sig = {}
                    per_node[signal] = per_sig
                per_sig[edge.user] = per_sig.get(edge.user, 0) + 1
            if trailing:
                sig_delta = delta[1]
                sig_delta[signal] = sig_delta.get(signal, 0) + 1
                if track:
                    user_delta = delta[2].setdefault(signal, {})
                    user_delta[edge.user] = user_delta.get(edge.user, 0) + 1

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
            self._evict_day(buffered_day)
        self._evicted_through = horizon

    def _evict_day(self, day: int) -> None:
        bucket = self._day_buffers.pop(day)
        for node, (t_delta, sig_delta, user_delta) in bucket.items():
            acc = self._nodes[node]
            acc.trials -= t_delta
            self._total_trials -= t_delta
            for signal, count in sig_delta.items():
                remaining = acc.hits[signal] - count
                if remaining:
                    acc.hits[signal] = remaining
                else:
                    del acc.hits[signal]
                self._total_hits[signal] -= count
            if self.track_users:
                per_node = self._hit_users.get(node)
                if per_node:
                    for signal, users in user_delta.items():
                        per_sig = per_node[signal]
                        for user, count in users.items():
                            remaining = per_sig[user] - count
                            if remaining:
                                per_sig[user] = remaining
                            else:
                                del per_sig[user]
                        if not per_sig:
                            del per_node[signal]
                    if not per_node:
                        del self._hit_users[node]
            if acc.trials == 0:
                del self._nodes[node]

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
        return score_node(acc, self.baseline(signal))

    def hit_users(self, node: NodeId, signal: SignalId) -> frozenset[UserId]:
        """Users that sent ``node`` a hit-carrying edge inside the window."""
        if not self.track_users:
            raise ValueError("engine was built with track_users=False")
        per_node = self._hit_users.get(node)
        if not per_node:
            return frozenset()
        return frozenset(per_node.get(signal, ()))

    def node_hit_users(self, signal: SignalId) -> dict[NodeId, frozenset[UserId]]:
        if not self.track_users:
            raise ValueError("engine was built with track_users=False")
        out = {}
        for node, per_node in self._hit_users.items():
            users = per_node.get(signal)
            if users:
                out[node] = frozenset(users)
        return out

    # -- checkpointing -----------------------------------------------------

    def checkpoint_payload(self) -> dict:
        """Serializable snapshot of configuration and every counter."""
        nodes = {}
        for node, acc in self._nodes.items():
            entry: dict = {"t": acc.trials, "s": dict(acc.hits)}
            if self.track_users:
                per_node = self._hit_users.get(node, {})
                entry["users"] = {sig: dict(users) for sig, users in per_node.items()}
            nodes[node] = entry
        buffers = {
            str(day): {
                node: {"t": delta[0], "s": dict(delta[1]),
                       "users": {sig: dict(u) for sig, u in delta[2].items()}}
                for node, delta in bucket.items()
            }
            for day, bucket in self._day_buffers.items()
        }
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
            for node, entry in payload["nodes"].items():
                acc = NodeAccumulator(node, entry["t"], dict(entry["s"]))
                _check_counts(path, registry, acc)
                engine._nodes[node] = acc
                users = entry.get("users")
                if users:
                    engine._hit_users[node] = {
                        sig: dict(per) for sig, per in users.items() if per
                    }
            for day, bucket in payload["day_buffers"].items():
                engine._day_buffers[int(day)] = {
                    node: [d["t"], dict(d["s"]),
                           {sig: dict(u) for sig, u in d.get("users", {}).items()}]
                    for node, d in bucket.items()
                }
            totals = payload["totals"]
            engine._total_trials = totals["transactions"]
            for signal, count in totals["hits"].items():
                registry.require(signal)
                engine._total_hits[signal] = count
            active_nodes = totals["active_nodes"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
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
        return engine


def _is_count(value: object, low: int, high: int) -> bool:
    return type(value) is int and low <= value <= high


def _check_counts(path, registry: SignalRegistry, acc: NodeAccumulator) -> None:
    """Every loaded tally must satisfy what scoring assumes:
    1 <= t < 2**63 and 0 <= s <= t per registered signal."""
    if not _is_count(acc.trials, 1, _INT64_MAX):
        raise CheckpointError(
            f"checkpoint {path}: node {acc.node!r} has trial count "
            f"{acc.trials!r}; need an integer in [1, 2**63 - 1]"
        )
    for signal, hits in acc.hits.items():
        if signal not in registry:
            raise CheckpointError(
                f"checkpoint {path}: node {acc.node!r} counts hits for "
                f"unregistered signal {signal!r}"
            )
        if not _is_count(hits, 0, acc.trials):
            raise CheckpointError(
                f"checkpoint {path}: node {acc.node!r} has hit count {hits!r} "
                f"for {signal!r}; need an integer in [0, {acc.trials}]"
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
    edges: Iterable[TransactionEdge],
    registry: SignalRegistry | None = None,
    *,
    threshold: float,
    window: WindowConfig | None = None,
    engine: StreamEngine | None = None,
    track_users: bool = True,
) -> ReplayResult:
    """Feed a day-ordered edge stream through daily scoring turns.

    Each day's edges are ingested, then every signal is rescored over the
    configured window ending at that day. Gap days with no traffic still
    get a scoring turn. Out-of-order days raise ``UnsortedEdgesError``;
    callers holding an unordered stream sort it by day first.

    Pass ``engine`` to continue from checkpointed state; scoring then
    resumes on the day after the checkpoint's last.
    """
    if engine is None:
        if registry is None:
            raise ValueError("replay_daily needs a registry or an engine")
        engine = StreamEngine(registry, window=window, track_users=track_users)
    elif registry is not None or window is not None:
        raise ValueError("registry and window come from the engine when resuming")
    if not engine.track_users:
        raise ValueError("replay alerts need an engine with track_users=True")

    outcomes: list[DayOutcome] = []
    resumed = engine.current_day is not None
    pending_day: int | None = engine.current_day + 1 if resumed else None

    for edge in edges:
        if pending_day is None:
            pending_day = edge.day
        if edge.day < pending_day:
            raise UnsortedEdgesError(
                f"edge day {edge.day} arrived after day {pending_day} began "
                "(sort the stream by day first)"
            )
        while edge.day > pending_day:
            outcomes.append(_score_turn(engine, pending_day, threshold))
            pending_day += 1
        engine.ingest(edge)
    if pending_day is not None:
        last = engine.current_day
        if last is not None and last >= pending_day:
            for day in range(pending_day, last + 1):
                outcomes.append(_score_turn(engine, day, threshold))
    return ReplayResult(outcomes, engine)
