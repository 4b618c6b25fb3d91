"""Incremental scoring engine: int64 count columns folded in grouped numpy
passes, daily scoring turns, trailing or cumulative windows, and
resumable checkpoints.

The engine keeps exactly the counters the batch pipeline would build, so
a stream run and a batch run over the same edges produce bit-identical
scores regardless of arrival order: every counter is an integer sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .amplify import NodeScore, rank_columns, score_columns
from .detect import Alert, build_alerts
from .errors import (
    INACTIVE_SIGNAL,
    CheckpointError,
    DuplicateSignalError,
    NoBaselineError,
    UnsortedEdgesError,
)
from .model import (
    INT64_MAX,
    EdgeColumns,
    GlobalBaseline,
    IdCodes,
    NodeId,
    SignalId,
    SignalRegistry,
    TransactionEdge,
    UserId,
    append_edge,
    read_json_object,
    replace_on_success,
    runs,
)

CHECKPOINT_VERSION = 2

# Hit-user rows (node code, signal, user code, count) of an empty table.
_NO_ROWS = np.zeros((4, 0), np.int64)
_NO_ROWS.setflags(write=False)

# Per-edge ``ingest`` queues edges and folds the queue through
# ``ingest_columns`` once it holds this many, which bounds its memory.
_QUEUE_EDGES = 1 << 16

# Checkpoint checks: a ufunc reduction skips ``.any``'s per-call overhead.
_ANY = np.logical_or.reduce
_RISE = np.array([4, 2, 1])

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

    Per node code the engine holds an int64 trial count and an int64 hit
    count per signal; a node is active while its trial count is positive.
    Per-user hit counts let alerts name who to investigate. The node and
    user id tables grow with every distinct id the engine has seen; a
    checkpoint round trip keeps only the active nodes.
    """

    def __init__(
        self,
        registry: SignalRegistry,
        window: WindowConfig | None = None,
    ) -> None:
        self.registry = registry
        self.window = window or WindowConfig.cumulative()
        self._signals = registry.ids()
        self._column = {signal: k for k, signal in enumerate(self._signals)}
        # Per-edge ingest queues each edge's user, node, day and
        # (signal, row) hit pairs, the arguments of EdgeColumns.from_rows.
        self._queue: tuple[list, list, list, list] = ([], [], [], [])
        self._node_ids = IdCodes()
        self._user_ids = IdCodes()
        self._trials = np.zeros(0, np.int64)
        self._hits = np.zeros((len(self._signals), 0), np.int64)
        self._current_day: int | None = None
        # Per day, an int64 [2 + K, m] delta of (node code, trials, hits per
        # signal) holding each node code once; trailing windows only. A day
        # at or below _evicted_through is gone for good.
        self._deltas: dict[int, np.ndarray] = {}
        # Per day, int64 [4, r] hit-user rows of (node code, signal, user
        # code, count) holding each (node, signal, user) once, with the
        # rows of one (node, signal) next to each other.
        self._user_rows: dict[int, np.ndarray] = {}
        self._evicted_through = -1

    # -- properties ------------------------------------------------------

    @property
    def current_day(self) -> int | None:
        self._flush()
        return self._current_day

    @property
    def total_transactions(self) -> int:
        self._flush()
        return int(self._trials.sum())

    @property
    def active_node_count(self) -> int:
        self._flush()
        return int(np.count_nonzero(self._trials))

    def total_hits(self, signal: SignalId) -> int:
        self.registry.describe(signal)  # raises UnknownSignalError if unregistered
        self._flush()
        return int(self._hits[self._column[signal]].sum())

    def _node_table(self) -> np.ndarray:
        """The active nodes as one delta."""
        active = np.flatnonzero(self._trials > 0)
        return np.vstack([active, self._trials[active], self._hits[:, active]])

    # -- ingest ----------------------------------------------------------

    def ingest(self, edge: TransactionEdge) -> None:
        """Fold one edge into the window.

        The window and signal checks run at once. The edge's fields are
        then queued, and the queue goes through ``ingest_columns`` once it
        holds ``_QUEUE_EDGES`` edges, or before anything reads the engine.
        Queueing builds no object per edge, only a small tuple per hit bit,
        so the garbage collector's work stays flat as the stream grows.
        """
        if edge.day <= self._evicted_through:
            raise self._precedes_window(edge.day)
        append_edge(self._queue, edge, self._column)
        if len(self._queue[2]) >= _QUEUE_EDGES:
            self._flush()

    def _flush(self) -> None:
        if self._queue[2]:
            queue, self._queue = self._queue, ([], [], [], [])
            self.ingest_columns(EdgeColumns.from_rows(self._signals, *queue))

    def ingest_columns(self, batch: EdgeColumns) -> None:
        """Fold a batch of edges into the window, in any order.

        Each day's rows are grouped by node and added as one delta: the
        counters end up as if every edge had been ingested.
        """
        if not len(batch):
            return
        first = int(batch.day.min())
        if first <= self._evicted_through:
            raise self._precedes_window(first)
        hits = batch.hits_under(self._signals)
        # Every count is at most the total, so no int64 counter can wrap.
        if int(self._trials.sum()) + len(batch) > INT64_MAX:
            raise OverflowError("a window holds at most 2**63 - 1 transactions")
        order = np.argsort(batch.day, kind="stable")
        day = batch.day[order]
        for lo, hi in runs(day):
            self._fold(int(day[lo]), batch, order[lo:hi], hits[:, order[lo:hi]])
        if self._current_day is None or day[-1] > self._current_day:
            self._current_day = int(day[-1])

    def _precedes_window(self, day: int) -> UnsortedEdgesError:
        return UnsortedEdgesError(
            f"edge day {day} precedes the trailing window "
            f"(evicted through day {self._evicted_through})"
        )

    def _fold(self, day: int, batch: EdgeColumns, rows: np.ndarray,
              hits: np.ndarray) -> None:
        """Add the edges ``rows`` of ``batch``, all on ``day``, with their
        ``hits`` in registry order, as one delta plus its hit-user rows."""
        local, group = np.unique(batch.node_code[rows], return_inverse=True)
        m = len(local)
        delta = np.empty((2 + len(hits), m), np.int64)
        delta[0] = self._node_codes([batch.nodes[code] for code in local.tolist()])
        delta[1] = np.bincount(group, minlength=m)
        for k, bits in enumerate(hits):
            delta[2 + k] = np.bincount(group[bits], minlength=m)
        self._count(delta, 1)
        if self.window.mode == TRAILING:
            _accumulate(self._deltas, day, delta, 1)
        signal, edge = np.nonzero(hits)
        # Each distinct hit user of the day is looked up once.
        distinct, user = np.unique(batch.user_code[rows[edge]], return_inverse=True)
        user = self._user_ids.encode(
            list(map(batch.users.__getitem__, distinct.tolist())))[user]
        n_users = len(self._user_ids)
        keys, counts = np.unique((signal * m + group[edge]) * n_users + user,
                                 return_counts=True)
        pair, user = np.divmod(keys, n_users)
        signal, node = np.divmod(pair, m)
        rows = np.stack([delta[0, node], signal, user, counts])
        _accumulate(self._user_rows, day, rows, 3)

    def _node_codes(self, nodes: list[NodeId]) -> np.ndarray:
        """Codes of ``nodes``; the count columns grow to cover new ones."""
        codes = self._node_ids.encode(nodes)
        grow = len(self._node_ids) - len(self._trials)
        if grow:
            self._trials = np.concatenate([self._trials, np.zeros(grow, np.int64)])
            self._hits = np.hstack([self._hits, np.zeros((len(self._signals), grow),
                                                         np.int64)])
        return codes

    def _count(self, delta: np.ndarray, sign: int) -> None:
        """Add (``sign`` 1) or remove (``sign`` -1) a delta's counts."""
        self._trials[delta[0]] += sign * delta[1]
        self._hits[:, delta[0]] += sign * delta[2:]

    def advance_to(self, day: int) -> None:
        """Move the window forward to a scoring turn at ``day``.

        In trailing mode this drops every day at or before
        ``day - trailing_days``; cumulative windows never evict.
        """
        self._flush()
        if self.window.mode != TRAILING:
            return
        horizon = day - self.window.trailing_days
        if horizon <= self._evicted_through:
            return
        for old in [buffered for buffered in self._deltas if buffered <= horizon]:
            self._count(self._deltas.pop(old), -1)
            self._user_rows.pop(old, None)
        self._evicted_through = horizon

    # -- scoring ---------------------------------------------------------

    def baseline(self, signal: SignalId) -> GlobalBaseline:
        """Baseline from the sums of the engine's count columns."""
        hits, trials = self.total_hits(signal), self.total_transactions
        if trials == 0:
            raise NoBaselineError(f"window is empty for signal {signal!r}")
        return GlobalBaseline(signal, hits, trials, self.active_node_count)

    def scores(self, signal: SignalId) -> list[NodeScore]:
        """Score every node in the window, same ordering as the batch path."""
        active, trials, hits, baseline = self._window_columns(signal)
        return rank_columns(self._node_names(active), trials, hits, baseline)

    def _window_columns(self, signal: SignalId) -> tuple:
        """Code, trials and hits on ``signal`` of every active node, and the
        baseline."""
        baseline = self.baseline(signal)
        active = np.flatnonzero(self._trials > 0)
        return (active, self._trials[active], self._hits[self._column[signal], active],
                baseline)

    def _node_names(self, codes: np.ndarray) -> list[NodeId]:
        """The node ids of ``codes``."""
        return list(map(self._node_ids.ids().__getitem__, codes.tolist()))

    def flagged(
        self, signal: SignalId, threshold: float
    ) -> tuple[float, list[NodeScore]]:
        """Peak z over the window and the nodes with ``z >= threshold``.

        Equals ``scores()`` followed by ``flag_nodes``, and raises what
        both raise, but names and ranks only the flagged nodes.
        """
        active, trials, hits, baseline = self._window_columns(signal)
        z = score_columns(trials, hits, baseline)[-1]
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        rows = np.flatnonzero(z >= threshold)
        # rank_columns orders by (-z, node), as flag_nodes does.
        return float(z.max()), rank_columns(self._node_names(active[rows]), trials[rows],
                                            hits[rows], baseline)

    def hit_users(self, node: NodeId, signal: SignalId) -> frozenset[UserId]:
        """Users that sent ``node`` a hit-carrying edge inside the window."""
        return self._hit_users(signal, [node]).get(node, frozenset())

    def node_hit_users(self, signal: SignalId) -> dict[NodeId, frozenset[UserId]]:
        """``hit_users`` of every node with a hit on ``signal`` in the window."""
        return self._hit_users(signal, None)

    def _hit_users(self, signal: SignalId,
                   nodes: list[NodeId] | None) -> dict[NodeId, frozenset[UserId]]:
        """Hit users on ``signal`` of each node of ``nodes`` (every node if
        None) that has any, gathered from the hit-user rows in one grouped
        pass."""
        self._flush()
        codes = None if nodes is None else [
            code for code in map(self._node_ids.code, nodes) if code is not None]
        if signal not in self._column or (codes is not None and not codes):
            return {}
        days = [_NO_ROWS, *self._user_rows.values()]
        keep = [rows[1] == self._column[signal] for rows in days]
        if codes is not None:
            wanted = np.zeros(len(self._trials), bool)
            wanted[codes] = True
            keep = [mask & wanted[rows[0]] for rows, mask in zip(days, keep)]
        # The code columns are built one at a time and freed before the
        # sets, which keeps the peak memory of a turn low; a frozenset
        # copied from a set is sized to fit.
        node = np.concatenate([rows[0, mask] for rows, mask in zip(days, keep)])
        order = np.argsort(node, kind="stable")
        node = node[order]
        user = np.concatenate([rows[2, mask] for rows, mask in zip(days, keep)])[order]
        del keep, order
        user = list(map(self._user_ids.ids().__getitem__, user.tolist()))
        node_ids = self._node_ids.ids()
        spans = [(node_ids[node[lo]], lo, hi) for lo, hi in runs(node)]
        del node
        return {node: frozenset(set(user[lo:hi])) for node, lo, hi in spans}

    # -- checkpointing -----------------------------------------------------

    def checkpoint_payload(self) -> dict:
        """Serializable snapshot of configuration and every counter, in
        checkpoint format v2 (see the README): sorted id tables, so a window
        gives the same payload whatever order its ids arrived in, and per
        day, or once for a cumulative window, flat int lists of its delta
        and hit-user rows."""
        self._flush()
        days = {d: (delta, self._user_rows[d]) for d, delta in self._deltas.items()}
        if self.window.mode == CUMULATIVE and self._current_day is not None:
            rows = np.hstack([_NO_ROWS, *self._user_rows.values()])
            days = {self._current_day: (self._node_table(), rows)}
        nodes, node_at = _sorted_ids(self._node_ids.ids(), np.flatnonzero(self._trials))
        users, user_at = _sorted_ids(self._user_ids.ids(), np.unique(
            np.concatenate([_NO_ROWS[2], *(rows[2] for _, rows in days.values())])))
        entries = {}
        for day, (delta, rows) in days.items():
            delta = delta[:, np.argsort(node_at[delta[0]])]
            delta[0] = node_at[delta[0]]
            rows = _collapse(np.stack(
                [node_at[rows[0]], rows[1], user_at[rows[2]], rows[3]]), 3)
            entries[str(day)] = {"counts": delta.ravel().tolist(),
                                 "users": rows.ravel().tolist()}
        return {
            "format_version": CHECKPOINT_VERSION,
            "signals": [
                {"signal": d.signal, "description": d.description}
                for d in (self.registry.describe(s) for s in self._signals)
            ],
            "window": {"mode": self.window.mode,
                       "trailing_days": self.window.trailing_days},
            "current_day": self._current_day,
            "evicted_through": self._evicted_through,
            "nodes": nodes,
            "users": users,
            "days": entries,
        }

    def save_checkpoint(self, path: str | Path) -> None:
        """Write a versioned snapshot; identical state gives identical bytes.

        The snapshot goes through ``replace_on_success``, so a failed save
        leaves any previous file intact.
        """
        text = json.dumps(
            self.checkpoint_payload(), sort_keys=True, separators=(",", ":")
        ) + "\n"
        with replace_on_success(path) as fh:
            fh.write(text)

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "StreamEngine":
        """Rebuild an engine from a snapshot, checking every count.

        A format v1 file is reshaped as v2 first, and its node table and
        totals must equal what the engine folds from its days; the next
        save writes v2.
        """
        payload = read_json_object(path, "checkpoint", CheckpointError)
        version = payload.get("format_version")
        if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(
                f"checkpoint {path}: format version {version!r} is not "
                f"supported (expected 1 or {CHECKPOINT_VERSION})"
            )
        try:
            registry = SignalRegistry()
            for entry in payload["signals"]:
                registry.register(entry["signal"], entry.get("description", ""))
            window = WindowConfig(payload["window"]["mode"],
                                  payload["window"]["trailing_days"])
            engine = cls(registry, window)
            engine._current_day = payload["current_day"]
            engine._evicted_through = payload["evicted_through"]
            if version == 1:
                payload = _from_v1(path, engine, payload)
            nodes = _check_ids(path, "node", payload["nodes"])
            users = _check_ids(path, "user", payload["users"])
            days = dict(zip(_days(path, engine, payload["days"]), (
                _check_entry(path, f"day {key}", entry, nodes, users, engine._signals)
                for key, entry in payload["days"].items())))
        except (AttributeError, KeyError, TypeError, ValueError,
                DuplicateSignalError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
        # Exact, so that no int64 sum of the window's counts can wrap.
        trials = sum(sum(delta[1].tolist()) for delta, _ in days.values())
        if trials > INT64_MAX:
            raise CheckpointError(f"checkpoint {path}: its days hold {trials} "
                                  "transactions; a window holds at most 2**63 - 1")
        engine._node_codes(nodes)
        engine._user_ids.encode(users)
        for day, (delta, rows) in days.items():
            engine._count(delta, 1)
            if window.mode == TRAILING:
                engine._deltas[day] = delta
            engine._user_rows[day] = rows
        if version == 1:
            _match_v1(path, engine, payload, nodes, users)
        return engine


def _sorted_ids(ids: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids of ``codes`` sorted by value, and an array that maps each of
    ``codes`` to its position in that list."""
    order = sorted(codes.tolist(), key=ids.__getitem__)
    position = np.zeros(len(ids), np.int64)
    position[order] = np.arange(len(order))
    return [ids[code] for code in order], position


def _check_ids(path, kind: str, ids: object) -> list[str]:
    """A node or user id table: distinct non-empty strings, sorted."""
    if type(ids) is list and {str}.issuperset(map(type, ids)) \
            and all(map(str.__lt__, ["", *ids], ids)):
        return ids
    raise CheckpointError(f"checkpoint {path}: the {kind} ids must be distinct "
                          f"non-empty strings in sorted order, not {ids!r:.80}")


def _check_entry(path, where: str, entry: dict, nodes: list[NodeId],
                 users: list[UserId], signals: list[SignalId]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A checkpoint entry as its delta and hit-user rows, checked whole-array
    as each error below says; an error names the first bad column or row."""
    delta = _int_rows(path, where, "counts", entry["counts"], 2 + len(signals), nodes)
    rows = _int_rows(path, where, "users", entry["users"], 4, nodes)
    code, trials, hits = delta[0], delta[1], delta[2:]
    # Read as uint64, a negative value exceeds every bound. Keys rise where
    # the signs of their steps, weighted (node, signal, user) by _RISE, sum
    # above 0; a step can only wrap next to a value that is out of range.
    wide = delta.view(np.uint64)
    bad = (wide[0] >= len(nodes)) | (trials < 1) | _ANY(wide[2:] > wide[1], axis=0)
    bad[1:] |= code[1:] <= code[:-1]
    node, signal, user, count = rows
    column = code.searchsorted(node)
    bounds = np.array([[len(nodes)], [len(signals)], [len(users)]], np.uint64)
    bad_row = (np.concatenate([code, [-1]])[column] != node) | (count < 1)
    bad_row |= _ANY(rows[:3].view(np.uint64) >= bounds, axis=0)
    bad_row[1:] |= np.sign(rows[:3, 1:] - rows[:3, :-1]).T @ _RISE <= 0
    for name, records, wrong, need in (
            ("counts", delta, bad, "node codes in range and rising, t >= 1, "
             "0 <= s <= t"),
            ("user row", rows, bad_row, "a node the entry counts, codes in range, "
             "count >= 1, rows rising by (node, signal, user)")):
        if np.count_nonzero(wrong):
            j = int(wrong.argmax())
            node = _node(int(records[0, j]), nodes)
            raise CheckpointError(f"checkpoint {path}: {where}: {node} has {name} "
                                  f"{records[:, j].tolist()}; need {need}")
    named = np.zeros(hits.shape, np.int64)
    np.add.at(named, (signal, column), count)
    # The exact totals rule out per-node sums that only match after wrapping.
    if np.count_nonzero(named != hits) \
            or sum(count.tolist()) != sum(hits.ravel().tolist()):
        wrong = _ANY(named != hits, axis=0)
        node = _node(int(code[wrong.argmax()]), nodes) if wrong.any() else "its nodes"
        raise CheckpointError(f"checkpoint {path}: {where}: the user rows of "
                              f"{node} do not add up to the hit counts")
    return delta, rows


def _int_rows(path, where: str, name: str, flat: object, width: int,
              nodes: list[NodeId]) -> np.ndarray:
    """``flat`` as an int64 ``[width, n]`` array, read row-major, whose first
    row holds node codes. The type check runs on the decoded values, as
    ``np.array`` would turn 1.5 or True into 1."""
    if type(flat) is not list or len(flat) % width:
        raise CheckpointError(f"checkpoint {path}: {where}: {name} is not a flat "
                              f"list of {width} equal rows")
    try:
        if {int}.issuperset(map(type, flat)):
            return np.array(flat, np.int64).reshape(width, -1)
    except OverflowError:
        pass
    at = next(i for i, value in enumerate(flat)
              if not _is_count(value, -INT64_MAX - 1, INT64_MAX))
    node = _node(flat[at % (len(flat) // width)], nodes)
    raise CheckpointError(f"checkpoint {path}: {where}: {node} has {name} value "
                          f"{flat[at]!r}; need an integer in [-2**63, 2**63 - 1]")


def _node(code: object, nodes: list[NodeId]) -> str:
    """How a checkpoint error names the node of ``code``."""
    named = _is_count(code, 0, len(nodes) - 1)
    return f"node {nodes[code]!r}" if named else f"node code {code!r}"


def _from_v1(path, engine: StreamEngine, payload: dict) -> dict:
    """A format v1 payload reshaped as v2, once user tables are present and
    a cumulative window, whose node table is its one day, keeps no day
    buffers; values stay as decoded. For ``_match_v1``, ``table`` holds a
    trailing window's node table as a v2 entry and ``totals`` the totals."""
    table, buffers, totals = payload["nodes"], payload["day_buffers"], payload["totals"]
    column, signals = engine._column, engine._signals
    cumulative = engine.window.mode == CUMULATIVE
    for wrong, problem in (
            (payload["track_users"] is not True,
             f"track_users is {payload['track_users']!r}; only a file with user "
             "tables (true) can name alert users"),
            (cumulative and buffers, "a cumulative window keeps no day buffers"),
            (not totals["hits"].keys() <= column.keys(),
             "totals count hits for an unregistered signal")):
        if wrong:
            raise CheckpointError(f"checkpoint {path}: {problem}")
    if cumulative:
        buffers = {str(engine._current_day): table} if table else {}
    tables = [table, *buffers.values()]
    nodes = sorted({node for held in tables for node in held})
    users = sorted({user for held in tables for entry in held.values()
                    for named in entry.get("users", {}).values() for user in named})
    node_at, user_at = ({id_: i for i, id_ in enumerate(ids)} for ids in (nodes, users))

    def convert(where: str, held: dict) -> dict:
        # An empty per-signal user table leaves no row.
        counts, rows = [], []
        for node, entry in sorted(held.items()):
            code, hits, named = node_at[node], entry["s"], entry.get("users", {})
            if not hits.keys() | named.keys() <= column.keys():
                raise CheckpointError(f"checkpoint {path}: {where}: node {node!r} "
                                      "counts hits or users of an unregistered signal")
            counts.append([code, entry["t"], *map(hits.get, column, repeat(0))])
            for signal in sorted(named, key=column.get):
                rows += ([code, column[signal], user_at[user], count]
                         for user, count in sorted(named[signal].items()))
        return {"counts": [value for row in zip(*counts) for value in row],
                "users": [value for row in zip(*rows) for value in row]}

    return {"nodes": nodes, "users": users,
            "days": {key: convert(f"day {key}", day) for key, day in buffers.items()},
            "table": None if cumulative else convert("node table", table),
            "totals": [("transactions", totals["transactions"]),
                       *((signal, totals["hits"].get(signal, 0)) for signal in signals),
                       ("active_nodes", totals["active_nodes"])]}


def _match_v1(path, engine: StreamEngine, payload: dict, nodes: list[NodeId],
              users: list[UserId]) -> None:
    """Check the node table and totals of the ``_from_v1`` payload against
    the counts and hit-user rows ``engine`` folded from its days."""
    if payload["table"] is not None:
        delta, rows = _check_entry(path, "node table", payload["table"], nodes, users,
                                   engine._signals)
        table = np.zeros((1 + len(engine._signals), len(nodes)), np.int64)
        table[:, delta[0]] = delta[1:]
        wrong = _ANY(table != np.vstack([engine._trials, engine._hits]), axis=0)
        # The days' hit-user rows minus the table's; the exact trial total
        # the loader checked rules out a wrap.
        rows[3] *= -1
        summed = _collapse(np.hstack([*engine._user_rows.values(), rows]), 3)
        wrong[summed[0, summed[3] != 0]] = True
        if wrong.any():
            raise CheckpointError(f"checkpoint {path}: the day buffers of node "
                                  f"{nodes[wrong.argmax()]!r} do not add up to its "
                                  "node table")
    folded = [engine.total_transactions, *map(engine.total_hits, engine._signals),
              engine.active_node_count]
    for (name, value), computed in zip(payload["totals"], folded):
        if not _is_count(value, 0, INT64_MAX) or value != computed:
            raise CheckpointError(f"checkpoint {path}: total {name!r} is {value!r}; "
                                  f"need the node table's sum, {computed}")


def _accumulate(by_day: dict[int, np.ndarray], day: int, records: np.ndarray,
                keys: int) -> None:
    """Add ``records`` to the day's records in ``by_day``, summing the ones
    that agree on their first ``keys`` fields."""
    held = by_day.get(day)
    if held is not None:
        records = _collapse(np.hstack([held, records]), keys)
    by_day[day] = records


def _collapse(records: np.ndarray, keys: int) -> np.ndarray:
    """``records``, one per column, with those that agree on their first
    ``keys`` fields summed into one, sorted by those fields."""
    if not records.shape[1]:
        return records
    records = records[:, np.lexsort(records[keys - 1::-1])]
    starts = np.flatnonzero(np.concatenate(
        [[True], (records[:keys, 1:] != records[:keys, :-1]).any(axis=0)]))
    out = records[:, starts]
    out[keys:] = np.add.reduceat(records[keys:], starts, axis=1)
    return out


def _days(path, engine: StreamEngine, keys: Iterable[str]) -> list[int]:
    """The days of ``days`` keys, once ``current_day`` is null or a day and
    ``evicted_through`` -1 or a day (-1 in a cumulative window). A trailing
    window keeps the days in ``(evicted_through, current_day]``, a
    cumulative one only ``current_day``."""
    low, high = engine._evicted_through, engine._current_day
    cumulative = engine.window.mode == CUMULATIVE
    if not (high is None or _is_count(high, 0, INT64_MAX)) \
            or not _is_count(low, -1, -1 if cumulative else INT64_MAX):
        raise CheckpointError(
            f"checkpoint {path}: current_day {high!r} must be null or a day in "
            f"[0, 2**63 - 1], and evicted_through {low!r} -1 or a day; a "
            "cumulative window evicts nothing"
        )
    low = high - 1 if cumulative and high is not None else low
    for key in keys:
        if str(int(key)) != key or high is None or not low < int(key) <= high:
            raise CheckpointError(
                f"checkpoint {path}: day {key!r} is not a day in ({low}, {high}]")
    return [int(key) for key in keys]


def _is_count(value: object, low: int, high: int) -> bool:
    return type(value) is int and low <= value <= high


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
    """Per-day outcomes plus the engine in its final state.

    No package code calls ``max_z_over_run`` or ``alerts_for`` any more
    (``backtest_turns`` folds the same figures as the turns go by);
    ``benchmarks/replica.py`` keeps them until ROADMAP item 2 deletes the
    replica."""

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


def _score_turn(engine: StreamEngine, day: int, threshold: float) -> DayOutcome:
    engine.advance_to(day)
    alerts: dict[SignalId, list[Alert]] = {}
    flagged_users: dict[SignalId, frozenset[UserId]] = {}
    max_z: dict[SignalId, float | None] = {}
    inactive: list[SignalId] = []
    for signal in engine.registry.ids():
        try:
            max_z[signal], flagged = engine.flagged(signal, threshold)
        except INACTIVE_SIGNAL:
            # A window where every bit agrees carries no evidence either way.
            max_z[signal], flagged = None, []
            inactive.append(signal)
        node_users = engine._hit_users(signal, [sc.node for sc in flagged])
        alerts[signal] = build_alerts(flagged, node_users, day)
        flagged_users[signal] = frozenset().union(*node_users.values())
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

    The whole input is taken at once: ``day_batches`` converts the edges
    to ``EdgeColumns``, checks their day order and cuts them into days,
    ``replay_turns`` runs them, and every turn's ``DayOutcome`` is kept.
    Out-of-order days raise ``UnsortedEdgesError`` before anything is
    ingested; callers holding an unordered stream sort it by day first.
    To hold only a day at a time, feed ``replay_turns`` one day's batch at
    a time instead, as the ``stream`` and ``backtest`` commands do with
    ``edgefile.read_edge_days``.

    Pass ``engine`` to continue from checkpointed state; scoring then
    resumes on the day after the checkpoint's last.
    """
    if engine is None:
        if registry is None:
            raise ValueError("replay_daily needs a registry or an engine")
        engine = StreamEngine(registry, window=window)
    elif registry is not None or window is not None:
        raise ValueError("registry and window come from the engine when resuming")

    return ReplayResult(list(replay_turns(day_batches(edges, engine), engine, threshold)),
                        engine)


def day_batches(edges: EdgeColumns | Iterable[TransactionEdge],
                engine: StreamEngine) -> Iterator[EdgeColumns]:
    """``edges`` as columns under ``engine``'s signals, cut into the
    one-day batches ``replay_turns`` takes. Out-of-order days, also a day
    at or before the engine's ``current_day``, raise ``UnsortedEdgesError``
    here, before any batch is folded."""
    batch = EdgeColumns.from_edges(edges, engine.registry.ids())
    day = batch.day
    if len(batch):
        _check_sorted(day, int(day[0]) if engine.current_day is None
                      else engine.current_day + 1)
    return (batch[lo:hi] for lo, hi in runs(day))


def replay_turns(batches: Iterable[EdgeColumns], engine: StreamEngine,
                 threshold: float) -> Iterator[DayOutcome]:
    """Fold each batch into ``engine`` and yield the scoring turn of its day.

    Each batch holds the edges of one day, later than the day of the batch
    before; an empty batch is skipped. Gap days with no traffic still get
    a scoring turn. Scoring starts on the first batch's day, or on the day
    after the engine's ``current_day`` when it has one. A batch on a day
    already begun raises ``UnsortedEdgesError`` before it is folded.
    """
    pending = None if engine.current_day is None else engine.current_day + 1
    begun = pending
    for batch in batches:
        if not len(batch):
            continue
        today = int(batch.day[0])
        if np.count_nonzero(batch.day != today):
            raise ValueError("a batch must hold the edges of one day")
        if pending is None:
            pending = today
        if today < pending:
            raise _unsorted(today, begun)
        for gap_day in range(pending, today):
            yield _score_turn(engine, gap_day, threshold)
        engine.ingest_columns(batch)
        yield _score_turn(engine, today, threshold)
        pending, begun = today + 1, today


def _check_sorted(day: np.ndarray, pending: int) -> None:
    """Raise on the first edge whose day is before a day already begun."""
    drops = np.flatnonzero(np.diff(day) < 0)
    if day[0] < pending:
        raise _unsorted(day[0], pending)
    if drops.size:
        raise _unsorted(day[drops[0] + 1], day[drops[0]])


def _unsorted(late: int, begun: int) -> UnsortedEdgesError:
    return UnsortedEdgesError(
        f"edge day {late} arrived after day {begun} began "
        "(sort the stream by day first)"
    )
