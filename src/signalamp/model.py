"""Domain types for the bipartite transaction graph.

Traffic is a stream of edges from users to convergence nodes (merchants,
drivers, payout accounts). Each edge carries one cheap binary feature per
registered signal. Per-node tallies of those bits are the only state the
scoring math ever needs.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DuplicateSignalError, SignalAmpError, UnknownSignalError

UserId = str
NodeId = str
SignalId = str

# The highest edge day, and the most transactions a window may hold, so
# that no int64 day or counter wraps.
INT64_MAX = 2**63 - 1


def read_json_object(path: str | Path, what: str, error: type[SignalAmpError]) -> dict:
    """The JSON object that the UTF-8 file ``path`` holds. A file that
    cannot be read, is not JSON or holds another value raises ``error``,
    naming the file as ``what``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


def output_target(path: str | Path, what: str | None = None) -> Path:
    """The file that a write of ``what`` to ``path`` replaces: ``path`` with
    its symlinks followed, so that a link stays and its target is rewritten.
    Its directory must exist and be writable, and an existing target must be
    a regular file, not a FIFO, a device or a directory; else
    ``SignalAmpError``, before anything is written. With ``what`` None,
    ``path`` is an output directory that must exist."""
    path = Path(path)
    if what is None:
        if not path.is_dir():
            raise SignalAmpError(f"output directory {path} does not exist")
        return path
    target = Path(os.path.realpath(path)) if path.is_symlink() else path
    if not target.parent.is_dir():
        problem = f"output directory {target.parent} does not exist"
    elif not os.access(target.parent, os.W_OK | os.X_OK):
        problem = f"output directory {target.parent} is not writable"
    elif target.exists() and not target.is_file():
        problem = "it is not a regular file"
    else:
        return target
    raise SignalAmpError(f"cannot write {what} to {path}: {problem}")


@contextmanager
def replace_on_success(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file, opened with ``newline=""``, that replaces the
    ``output_target`` of ``path`` once the block succeeds: it is written as
    ``.<name>.<pid>.tmp`` beside it, renamed over it at the end of the block
    and removed if the block or the rename raises, so a failed write leaves
    the target as it was. Every file the package writes goes through here."""
    path = output_target(path, "output")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True, slots=True)
class SignalDef:
    """A registered weak signal: a named per-transaction binary feature."""

    signal: SignalId
    description: str = ""


class SignalRegistry:
    """Ordered collection of registered signals.

    Registration order matters: it fixes the column order of edge files
    and the per-signal ordering of reports.
    """

    def __init__(self, signals: Iterable[SignalId] = ()) -> None:
        self._defs: dict[SignalId, SignalDef] = {}
        for signal in signals:
            self.register(signal)

    def register(self, signal: SignalId, description: str = "") -> SignalDef:
        if not isinstance(signal, str) or not signal:
            raise ValueError(f"signal id must be a non-empty string, got {signal!r}")
        if signal in self._defs:
            raise DuplicateSignalError(f"signal {signal!r} is already registered")
        entry = SignalDef(signal, description)
        self._defs[signal] = entry
        return entry

    def ids(self) -> tuple[SignalId, ...]:
        return tuple(self._defs)

    def describe(self, signal: SignalId) -> SignalDef:
        try:
            return self._defs[signal]
        except KeyError:
            raise UnknownSignalError(f"signal {signal!r} is not registered") from None

    def __contains__(self, signal: object) -> bool:
        return signal in self._defs


@dataclass(slots=True)
class TransactionEdge:
    """One transaction: user -> node on a given day, with per-signal hit bits.

    A missing signal key means the bit is 0. The ids and the day, an
    integer in ``[0, 2**63 - 1]``, are checked at construction; signal
    membership is checked at ingestion surfaces, to keep the hot path cheap.
    """

    user: UserId
    node: NodeId
    day: int
    hits: dict[SignalId, int]

    def __post_init__(self) -> None:
        if not self.user or not self.node:
            raise ValueError("edge user and node ids must be non-empty")
        day = self.day
        if type(day) is not int and not isinstance(day, np.integer) \
                or not 0 <= day <= INT64_MAX:
            raise ValueError(
                f"edge day must be an integer in [0, 2**63 - 1], got {day!r}")


def append_edge(queue: tuple[list, list, list, list], edge: TransactionEdge,
                column: dict[SignalId, int]) -> None:
    """Append ``edge`` to ``queue``: the users, nodes, days and (signal
    index, row) hit pairs that ``EdgeColumns.from_rows`` takes, ``column``
    giving each signal's index. A hit key outside ``column`` raises
    ``UnknownSignalError``, whatever its bit, before anything is added."""
    users, nodes, days, hit_at = queue
    hits = edge.hits
    if hits:
        if not hits.keys() <= column.keys():
            unknown = next(signal for signal in hits if signal not in column)
            raise UnknownSignalError(f"edge references unregistered signal {unknown!r}")
        for signal, bit in hits.items():
            if bit:
                hit_at.append((column[signal], len(days)))
    users.append(edge.user)
    nodes.append(edge.node)
    days.append(edge.day)


def row_part(n_signals: int, users: list[UserId], nodes: list[NodeId],
             days: list[int], hit_at: list[tuple[int, int]]) -> tuple:
    """Rows given as lists of their ``users``, ``nodes`` and ``days``, with
    a (signal index, row) pair per hit bit, as (users, nodes, int64 days,
    bool ``[n_signals, n]`` hits)."""
    hits = np.zeros((n_signals, len(days)), bool)
    if hit_at:
        hits[tuple(np.array(hit_at).T)] = True
    return users, nodes, np.array(days, np.int64), hits


def runs(values: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal ``values``."""
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    return [(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, len(values)]) if lo < hi]


class IdCodes:
    """Distinct ids in first-seen order, each coded by its position."""

    def __init__(self) -> None:
        # A missing id takes the next code on lookup.
        self._index: defaultdict[str, int] = defaultdict(count().__next__)
        self._ids: list[str] = []

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, ids: list[str]) -> np.ndarray:
        """Int64 codes of ``ids``, adding the ids not seen before."""
        codes = np.fromiter(map(self._index.__getitem__, ids), np.int64, len(ids))
        new = len(self._index) - len(self._ids)
        if new:
            # The index keeps insertion order, so the new ids are its last keys.
            self._ids += reversed(list(islice(reversed(self._index), new)))
        return codes

    def code(self, id_: str) -> int | None:
        """The code of ``id_``, or None if it was never added."""
        return self._index.get(id_)

    def ids(self) -> list[str]:
        """The ids by code. The list is the table's own and grows with it;
        callers must not change it."""
        return self._ids


class EdgeColumns(Sequence):
    """A batch of edges held as columns.

    ``users`` and ``nodes`` list each distinct id once; ``user_code`` and
    ``node_code`` index them per edge. An id table may also list ids that
    no edge uses, such as ``generate``'s full name tables. A row may have
    no user, coded -1: ``edgefile.read_edge_days`` codes the users of the
    rows that carry a hit only, as the method names no other user.
    ``day`` is an int64 column and ``hits`` a bool ``[len(signals), n]``
    matrix. Indexing and iteration build ``TransactionEdge`` objects on
    demand, carrying a 1 for each hit signal, and raise ``ValueError`` on
    a row without a user; slices are ``EdgeColumns`` views that share the
    id lists.
    """

    __slots__ = ("signals", "users", "user_code", "nodes", "node_code", "day", "hits")

    def __init__(
        self,
        signals: Sequence[SignalId],
        users: list[UserId],
        user_code: np.ndarray,
        nodes: list[NodeId],
        node_code: np.ndarray,
        day: np.ndarray,
        hits: np.ndarray,
    ) -> None:
        self.signals = tuple(signals)
        self.users = users
        self.user_code = user_code
        self.nodes = nodes
        self.node_code = node_code
        self.day = day
        self.hits = hits

    @classmethod
    def from_edges(
        cls, edges: Iterable[TransactionEdge], signals: Sequence[SignalId]
    ) -> "EdgeColumns":
        """Columns of ``edges`` under ``signals``; an ``EdgeColumns`` is
        returned as it is. A hit key outside ``signals`` raises
        ``UnknownSignalError``, whatever its bit."""
        if isinstance(edges, EdgeColumns):
            return edges
        column = {signal: k for k, signal in enumerate(signals)}
        queue: tuple[list, list, list, list] = ([], [], [], [])
        for edge in edges:
            append_edge(queue, edge, column)
        return cls.from_rows(signals, *queue)

    @classmethod
    def from_rows(cls, signals: Sequence[SignalId], users: list[UserId],
                  nodes: list[NodeId], days: list[int],
                  hit_at: list[tuple[int, int]]) -> "EdgeColumns":
        """Columns of edges given as lists of their ``users``, ``nodes``
        and ``days``, with a (signal index, row) pair per hit bit."""
        users, nodes, day, hits = row_part(len(signals), users, nodes, days, hit_at)
        user_ids, node_ids = IdCodes(), IdCodes()
        return cls(signals, user_ids.ids(), user_ids.encode(users), node_ids.ids(),
                   node_ids.encode(nodes), day, hits)

    def __len__(self) -> int:
        return len(self.day)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EdgeColumns(
                self.signals, self.users, self.user_code[index], self.nodes,
                self.node_code[index], self.day[index], self.hits[:, index],
            )
        row = range(len(self))[index]
        return next(iter(self[row:row + 1]))

    def __iter__(self) -> Iterator[TransactionEdge]:
        for start in range(0, len(self), 4096):
            part = self[start:start + 4096]
            yield from map(self._edge, self._row_users(part.user_code),
                           part.node_code.tolist(), part.day.tolist(),
                           part.hits.T.tolist())

    def _edge(self, user: UserId, node: int, day: int, bits: list) -> TransactionEdge:
        return TransactionEdge(
            user, self.nodes[node], day,
            {signal: 1 for signal, bit in zip(self.signals, bits) if bit},
        )

    def _row_users(self, codes: np.ndarray) -> list[UserId]:
        """The user id of each of ``codes``; a row without a user (code -1)
        raises ``ValueError`` rather than being named."""
        if len(codes) and codes.min() < 0:
            raise ValueError("edge row has no user id: read_edge_days codes "
                             "the users of rows that carry a hit only")
        return list(map(self.users.__getitem__, codes.tolist()))

    def hits_under(self, signals: Sequence[SignalId]) -> np.ndarray:
        """The hit matrix with one row per signal of ``signals``, in that
        order; a signal the batch lacks has no hits. A hit on a batch
        signal outside ``signals`` raises ``UnknownSignalError``."""
        hits = np.zeros((len(signals), len(self)), bool)
        row = {signal: k for k, signal in enumerate(signals)}
        for signal, bits in zip(self.signals, self.hits):
            if signal in row:
                hits[row[signal]] = bits
            elif bits.any():
                raise UnknownSignalError(
                    f"edge references unregistered signal {signal!r}"
                )
        return hits

    def users_with_hits(self, signal: SignalId) -> set[UserId]:
        """Distinct users of the edges that hit ``signal``."""
        if signal not in self.signals:
            return set()
        rows = self.hits[self.signals.index(signal)]
        return set(map(self.users.__getitem__, self.user_code[rows].tolist()))


@dataclass(slots=True)
class NodeAccumulator:
    """Per-node tally: shared transaction count plus one hit count per signal.

    ``trials`` counts every edge touching the node; ``hits[signal]`` counts
    the subset whose bit for that signal was 1. Missing keys mean zero.
    It is the input of ``compute_baseline`` and ``score_all``;
    ``StreamEngine.accumulators()`` builds one per active node on demand.
    """

    node: NodeId
    trials: int = 0
    hits: dict[SignalId, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class GlobalBaseline:
    """Window-wide totals for one signal and the derived prior.

    ``rate`` is the population hit rate used as the null hypothesis.
    ``prior_strength`` is the mean transaction volume per active node; it
    sets how many observations a node needs before its own rate starts to
    outweigh the prior.
    """

    signal: SignalId
    hits: int
    transactions: int
    active_nodes: int

    def __post_init__(self) -> None:
        if self.transactions < 1:
            raise ValueError("baseline requires at least one transaction")
        if not 0 <= self.hits <= self.transactions:
            raise ValueError(
                f"baseline hits {self.hits} outside [0, {self.transactions}]"
            )
        if self.active_nodes < 1:
            raise ValueError("baseline requires at least one active node")

    @property
    def rate(self) -> float:
        return self.hits / self.transactions

    @property
    def prior_strength(self) -> float:
        return self.transactions / self.active_nodes
