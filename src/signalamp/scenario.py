"""Seeded synthetic traffic with optional planted attacks and labeled truth.

Background users transact with background nodes under configurable
popularity skew, emitting hit bits at low per-signal rates. An attack
plants a sybil cohort that funnels traffic into a handful of cash-out
nodes with elevated hit rates. Generation is deterministic for a given
seed and config.

Randomness comes from numpy's Philox bit generator (counter based,
stream stable for a fixed numpy version), keyed per day with
(seed, day_index), so any day's block can be regenerated independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleScenarioError
from .model import EdgeColumns, NodeId, SignalId, UserId

_MASK64 = (1 << 64) - 1
_SETUP_STREAM = _MASK64  # never collides with a day index

# The highest mean number of transactions a user or a sybil may make per
# day. A day's edge count is a Poisson draw with the rate times the head
# count as its mean; a NaN rate would draw no edges, and an infinite or huge
# one fails inside numpy or asks for unbounded memory.
MAX_TXN_PER_DAY = 1_000.0


@dataclass(frozen=True)
class AttackConfig:
    """A sybil cohort funneling transactions into planted cash-out nodes.

    ``sybil_rates`` gives the per-edge hit probability each signal shows on
    attack traffic; ``cashout_mix`` is the fraction of sybil edges aimed at
    the cash-out nodes, the rest blending into background nodes.
    ``camouflage_txn_per_sybil_per_day`` adds innocent-looking sybil
    traffic at background rates.
    """

    n_sybil: int
    k_cashout: int
    start_day: int
    end_day: int
    txn_per_sybil_per_day: float
    sybil_rates: dict[SignalId, float]
    cashout_mix: float = 1.0
    camouflage_txn_per_sybil_per_day: float = 0.0
    cashout_from_background: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic world.

    ``background_rates`` fixes the signal set and its registry order.
    ``popularity_skew`` shapes background node choice, weight (rank+1)^-skew;
    0 means uniform. The transaction rates, ``background_txn_per_user_per_day``
    and the attack's ``txn_per_sybil_per_day`` and
    ``camouflage_txn_per_sybil_per_day``, are mean counts per user or sybil
    per day in ``[0, MAX_TXN_PER_DAY]``.
    """

    seed: int
    days: int
    n_users: int
    n_nodes: int
    background_txn_per_user_per_day: float
    background_rates: dict[SignalId, float]
    attack: AttackConfig | None = None
    popularity_skew: float = 1.0

    def __post_init__(self) -> None:
        atk = self.attack
        _check_types(self, ("seed", "days", "n_users", "n_nodes"), "background_rates")
        if atk is not None:
            _check_types(atk, ("n_sybil", "k_cashout", "start_day", "end_day"),
                         "sybil_rates")
        if self.days < 1:
            raise InfeasibleScenarioError("days must be >= 1")
        if self.n_users < 1 or self.n_nodes < 1:
            raise InfeasibleScenarioError("need at least one user and one node")
        _check_txn_rate(self, "background_txn_per_user_per_day")
        if not self.popularity_skew >= 0:
            raise InfeasibleScenarioError(
                f"popularity_skew must be >= 0, got {self.popularity_skew!r}"
            )
        if not self.background_rates:
            raise InfeasibleScenarioError("at least one signal is required")
        for signal, rate in self.background_rates.items():
            if not isinstance(signal, str) or not signal:
                raise InfeasibleScenarioError(
                    f"signal ids must be non-empty strings, got {signal!r}"
                )
            if not 0.0 <= rate <= 1.0:
                raise InfeasibleScenarioError(
                    f"background rate for {signal!r} outside [0, 1]: {rate}"
                )
        if atk is None or atk.n_sybil == 0:
            return
        if atk.n_sybil < 0:
            raise InfeasibleScenarioError("n_sybil must be >= 0")
        if atk.k_cashout < 1:
            raise InfeasibleScenarioError("an attack needs at least one cash-out node")
        if atk.k_cashout > self.n_nodes:
            raise InfeasibleScenarioError(
                f"k_cashout {atk.k_cashout} exceeds n_nodes {self.n_nodes}"
            )
        if not 0 <= atk.start_day <= atk.end_day < self.days:
            raise InfeasibleScenarioError(
                f"attack window [{atk.start_day}, {atk.end_day}] must fit in "
                f"[0, {self.days - 1}]"
            )
        _check_txn_rate(atk, "txn_per_sybil_per_day")
        _check_txn_rate(atk, "camouflage_txn_per_sybil_per_day")
        if not 0.0 <= atk.cashout_mix <= 1.0:
            raise InfeasibleScenarioError("cashout_mix must lie in [0, 1]")
        if set(atk.sybil_rates) != set(self.background_rates):
            raise InfeasibleScenarioError(
                "sybil_rates must cover exactly the configured signals"
            )
        for signal, rate in atk.sybil_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise InfeasibleScenarioError(
                    f"sybil rate for {signal!r} outside [0, 1]: {rate}"
                )

    @property
    def signals(self) -> tuple[SignalId, ...]:
        return tuple(self.background_rates)


def _check_types(config: object, ints: tuple[str, ...], rates: str) -> None:
    for name in ints:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InfeasibleScenarioError(f"{name} must be an integer, got {value!r}")
    if not isinstance(getattr(config, rates), dict):
        raise InfeasibleScenarioError(f"{rates} must map signal ids to rates")


def _check_txn_rate(config: object, name: str) -> None:
    value = getattr(config, name)
    if not 0.0 <= value <= MAX_TXN_PER_DAY:
        raise InfeasibleScenarioError(
            f"{name} must lie in [0, {MAX_TXN_PER_DAY:g}], got {value!r}"
        )


@dataclass(frozen=True)
class GroundTruth:
    """Labels for a generated run: who the sybils are, where they cash out,
    and which sybils ever carried each signal."""

    sybil_users: frozenset[UserId]
    cashout_nodes: frozenset[NodeId]
    carriers: dict[SignalId, frozenset[UserId]]


def _day_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _zero_pad_names(prefix: str, count: int) -> list[str]:
    width = len(str(max(count - 1, 0)))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def _node_sampler(n_nodes: int, skew: float
                  ) -> Callable[[np.random.Generator, int], np.ndarray]:
    """A draw of background node indices, Zipf-like or uniform."""
    if skew == 0.0:
        return lambda rng, size: rng.integers(0, n_nodes, size=size)
    weights = np.arange(1, n_nodes + 1, dtype=np.float64) ** -skew
    weights /= weights.sum()
    return lambda rng, size: rng.choice(n_nodes, size=size, p=weights)


def generate(config: ScenarioConfig) -> tuple[EdgeColumns, GroundTruth]:
    """Produce the full edge stream (day ordered) and its ground truth.

    Within a day the block order is fixed: background, then camouflage,
    then attack traffic. The edges code users and nodes into the full
    zero-padded name tables, sybils and planted cash-out nodes after the
    background ones. Two calls with the same config yield identical edges.
    """
    signals = config.signals
    users = _zero_pad_names("u", config.n_users)
    nodes = _zero_pad_names("m", config.n_nodes)
    draw_nodes = _node_sampler(config.n_nodes, config.popularity_skew)

    atk = config.attack if (config.attack and config.attack.n_sybil > 0) else None
    sybil_names: list[str] = []
    cash_code = np.empty(0, np.int64)
    if atk is not None:
        sybil_names = _zero_pad_names("s", atk.n_sybil)
        users += sybil_names
        if atk.cashout_from_background:
            setup_rng = _day_rng(config.seed, _SETUP_STREAM)
            picked = setup_rng.choice(config.n_nodes, size=atk.k_cashout, replace=False)
            cash_code = np.sort(picked)
        else:
            cash_code = config.n_nodes + np.arange(atk.k_cashout)
            nodes += _zero_pad_names("c", atk.k_cashout)

    bg_rates = [config.background_rates[s] for s in signals]
    # (day, user codes, node codes, [K, n] hits) per block, after an empty one.
    no_edges = np.empty(0, np.int64)
    blocks = [(0, no_edges, no_edges, np.empty((len(signals), 0), bool))]

    def draw(rng: np.random.Generator, day: int, heads: int, txn_per_head: float,
             first_user: int, rates: list[float], cashout_mix: float | None = None
             ) -> None:
        """Append a block of about ``heads * txn_per_head`` edges from users
        ``first_user`` on; with ``cashout_mix``, that share goes to the
        cash-out nodes."""
        mean = heads * txn_per_head
        size = int(rng.poisson(mean)) if mean > 0 else 0
        if not size:
            return
        user_idx = first_user + rng.integers(0, heads, size=size)
        if cashout_mix is not None:
            to_cashout = rng.random(size) < cashout_mix
            cash_idx = rng.integers(0, atk.k_cashout, size=size)
        node_idx = draw_nodes(rng, size)
        if cashout_mix is not None:
            node_idx = np.where(to_cashout, cash_code[cash_idx], node_idx)
        blocks.append((day, user_idx, node_idx,
                       np.array([rng.random(size) < rate for rate in rates])))

    for day in range(config.days):
        rng = _day_rng(config.seed, day)
        draw(rng, day, config.n_users, config.background_txn_per_user_per_day, 0,
             bg_rates)
        if atk is not None and atk.start_day <= day <= atk.end_day:
            draw(rng, day, atk.n_sybil, atk.camouflage_txn_per_sybil_per_day,
                 config.n_users, bg_rates)
            draw(rng, day, atk.n_sybil, atk.txn_per_sybil_per_day, config.n_users,
                 [atk.sybil_rates[s] for s in signals], atk.cashout_mix)

    days, user_code, node_code, hits = zip(*blocks)
    edges = EdgeColumns(
        signals, users, np.concatenate(user_code), nodes, np.concatenate(node_code),
        np.repeat(np.array(days, np.int64), [len(codes) for codes in user_code]),
        np.concatenate(hits, axis=1),
    )
    sybils = frozenset(sybil_names)
    carriers = {s: sybils & edges.users_with_hits(s) for s in signals}
    cashout = frozenset(nodes[code] for code in cash_code.tolist())
    return edges, GroundTruth(sybils, cashout, carriers)


# -- shipped presets -------------------------------------------------------

def case1_desk(seed: int = 7) -> ScenarioConfig:
    """Desk-scale promo-abuse shape.

    Tuned so the raw weak signal alone is nearly useless while node-level
    aggregation is decisive: about 16 percent of promo carriers are sybils
    (target band 0.12 to 0.20), a 50:1 sybil to cash-out ratio, and
    cash-out nodes that clear a z threshold of 40 with margin.
    """
    return ScenarioConfig(
        seed=seed,
        days=30,
        n_users=50_000,
        n_nodes=2_000,
        background_txn_per_user_per_day=0.3,
        background_rates={"use_promo": 0.04, "device_spoofing": 0.01},
        attack=AttackConfig(
            n_sybil=3_000,
            k_cashout=60,
            start_day=5,
            end_day=25,
            txn_per_sybil_per_day=1.0,
            sybil_rates={"use_promo": 0.9, "device_spoofing": 0.01},
            cashout_mix=0.95,
        ),
        popularity_skew=1.0,
    )


def case2_desk(seed: int = 11) -> ScenarioConfig:
    """Desk-scale cross-modal shape: a tiny merchant ring and a signal only
    about 56 percent of sybils ever carry. Coverage stays partial while
    merchant-level concentration is still unmistakable."""
    return ScenarioConfig(
        seed=seed,
        days=30,
        n_users=20_000,
        n_nodes=1_000,
        background_txn_per_user_per_day=0.25,
        background_rates={"device_spoofing": 0.01, "foreign_ip": 0.03},
        attack=AttackConfig(
            n_sybil=1_500,
            k_cashout=5,
            start_day=10,
            end_day=19,
            txn_per_sybil_per_day=0.2,
            sybil_rates={"device_spoofing": 0.41, "foreign_ip": 0.03},
            cashout_mix=1.0,
        ),
        popularity_skew=1.0,
    )


def calm(seed: int = 3) -> ScenarioConfig:
    """Background traffic only; ground truth is empty."""
    return ScenarioConfig(
        seed=seed,
        days=30,
        n_users=20_000,
        n_nodes=1_500,
        background_txn_per_user_per_day=0.2,
        background_rates={"use_promo": 0.05, "device_spoofing": 0.01},
        attack=None,
        popularity_skew=1.0,
    )


PRESETS: dict[str, Callable[..., ScenarioConfig]] = {
    "case1-desk": case1_desk,
    "case2-desk": case2_desk,
    "calm": calm,
}


def preset(name: str, seed: int | None = None) -> ScenarioConfig:
    if not isinstance(name, str) or name not in PRESETS:
        raise InfeasibleScenarioError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    builder = PRESETS[name]
    return builder() if seed is None else builder(seed=seed)


# -- config blocks of declarative run files --------------------------------

def scenario_from_dict(data: dict) -> ScenarioConfig:
    """The config of a scenario block, the inverse of ``dataclasses.asdict``;
    an unknown or missing key raises ``InfeasibleScenarioError``, as do the
    constructors' checks."""
    if not isinstance(data, dict):
        raise InfeasibleScenarioError(f"scenario config must be an object: {data!r}")
    try:
        attack = data.get("attack")
        if attack is not None:
            attack = AttackConfig(**attack)
        return ScenarioConfig(**{**data, "attack": attack})
    except TypeError as exc:
        raise InfeasibleScenarioError(f"bad scenario config: {exc}") from exc
