"""Domain types for the bipartite transaction graph.

Traffic is a stream of edges from users to convergence nodes (merchants,
drivers, payout accounts). Each edge carries one cheap binary feature per
registered signal. Per-node tallies of those bits are the only state the
scoring math ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DuplicateSignalError, UnknownSignalError

UserId = str
NodeId = str
SignalId = str


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
        if not signal:
            raise ValueError("signal id must be a non-empty string")
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

    def require(self, signal: SignalId) -> None:
        if signal not in self._defs:
            raise UnknownSignalError(f"signal {signal!r} is not registered")

    def __contains__(self, signal: object) -> bool:
        return signal in self._defs

    def __iter__(self) -> Iterator[SignalId]:
        return iter(self._defs)

    def __len__(self) -> int:
        return len(self._defs)


@dataclass(slots=True)
class TransactionEdge:
    """One transaction: user -> node on a given day, with per-signal hit bits.

    A missing signal key means the bit is 0. Signal membership is checked
    at ingestion surfaces, not at construction, to keep the hot path cheap.
    """

    user: UserId
    node: NodeId
    day: int
    hits: dict[SignalId, int]

    def __post_init__(self) -> None:
        if not self.user or not self.node:
            raise ValueError("edge user and node ids must be non-empty")
        if self.day < 0:
            raise ValueError(f"edge day must be >= 0, got {self.day}")


@dataclass(slots=True)
class NodeAccumulator:
    """Per-node tally: shared transaction count plus one hit count per signal.

    ``trials`` counts every edge touching the node; ``hits[signal]`` counts
    the subset whose bit for that signal was 1. Missing keys mean zero.
    ``StreamEngine.ingest`` is the only code that folds edges into a tally.
    """

    node: NodeId
    trials: int = 0
    hits: dict[SignalId, int] = field(default_factory=dict)

    def hit_count(self, signal: SignalId) -> int:
        return self.hits.get(signal, 0)


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

    @property
    def is_degenerate(self) -> bool:
        """True when every edge hit, or none did; the z-test is undefined."""
        return self.hits == 0 or self.hits == self.transactions
