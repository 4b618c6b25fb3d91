"""Scoring core: baseline estimation, shrinkage, and the rate-deviation z-test.

A node with a handful of transactions can post an extreme hit rate by
luck. Shrinkage pulls every node's observed rate toward the population
rate with a weight equal to the mean per-node volume, then a one-sided
proportion test asks how many standard errors the stabilized rate sits
above the population rate. Low-volume flukes shrink back to the prior;
high-volume concentrations survive and score high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateBaselineError
from .model import GlobalBaseline, NodeId, SignalId


def _require_variance(rate: float) -> None:
    """Raise ``DegenerateBaselineError`` unless 0 < rate < 1."""
    if not 0.0 < rate < 1.0:
        raise DegenerateBaselineError(
            f"baseline rate {rate} admits no variance; signal inactive"
        )


def shrink(hits: int, trials: int, global_rate: float, prior_strength: float) -> float:
    """Stabilized hit rate: (hits + strength * rate) / (trials + strength).

    Behaves like prepending ``prior_strength`` phantom transactions at the
    population rate. With zero trials the result is exactly the prior;
    as trials grow the observed rate dominates.
    """
    if trials < 0 or hits < 0 or hits > trials:
        raise ValueError(f"need 0 <= hits <= trials, got hits={hits} trials={trials}")
    if not 0.0 <= global_rate <= 1.0:
        raise ValueError(f"global_rate must lie in [0, 1], got {global_rate}")
    if not prior_strength > 0.0 or not math.isfinite(prior_strength):
        raise ValueError(f"prior_strength must be positive, got {prior_strength}")
    return (hits + prior_strength * global_rate) / (trials + prior_strength)


def z_score(shrunk_rate: float, global_rate: float, trials: int) -> float:
    """Deviation of the stabilized rate from the population rate, in
    standard errors of a proportion observed over ``trials`` transactions.
    """
    _require_variance(global_rate)
    if trials < 1:
        raise ValueError("a node needs at least one transaction to be scored")
    stderr = math.sqrt(global_rate * (1.0 - global_rate) / trials)
    return (shrunk_rate - global_rate) / stderr


@dataclass(frozen=True, slots=True)
class NodeScore:
    """One node's standing against the baseline for one signal."""

    node: NodeId
    signal: SignalId
    hits: int
    trials: int
    raw_rate: float
    shrunk_rate: float
    z: float


def score_columns(
    trials: np.ndarray, hits: np.ndarray, baseline: GlobalBaseline
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw rate, shrunk rate and z for int64 columns of node tallies.

    Makes the checks ``shrink`` and ``z_score`` make and applies their
    IEEE operations in the same order, so each row is bit-identical to
    the scalar path for counts below 2**53.
    """
    rate = baseline.rate
    _require_variance(rate)
    prior = baseline.prior_strength
    if not prior > 0.0 or not math.isfinite(prior):
        raise ValueError(f"prior_strength must be positive, got {prior}")
    if trials.size and trials.min() < 1:
        raise ValueError("a node needs at least one transaction to be scored")
    bad = np.flatnonzero((hits < 0) | (hits > trials))
    if bad.size:
        row = bad[0]
        raise ValueError(
            f"need 0 <= hits <= trials, got hits={hits[row]} trials={trials[row]}"
        )
    t = trials.astype(np.float64)
    s = hits.astype(np.float64)
    shrunk = (s + prior * rate) / (t + prior)
    z = (shrunk - rate) / np.sqrt(rate * (1.0 - rate) / t)
    return s / t, shrunk, z


def rank_columns(
    nodes: Sequence[NodeId],
    trials: np.ndarray,
    hits: np.ndarray,
    baseline: GlobalBaseline,
) -> list[NodeScore]:
    """Score int64 columns of node tallies, ``nodes`` naming each row.

    Returns scores ordered by z descending, node id ascending on ties, so
    identical inputs always yield an identical ranking.
    """
    # Node ids are ordered in Python: a numpy string array would drop
    # trailing NUL characters and could break ties differently.
    by_node = np.array(sorted(range(len(nodes)), key=nodes.__getitem__), np.int64)
    trials, hits = trials[by_node], hits[by_node]
    columns = (trials, hits, *score_columns(trials, hits, baseline))
    order = np.argsort(-columns[-1], kind="stable")
    picked = [column[order].tolist() for column in columns]
    return [
        NodeScore(nodes[row], baseline.signal, s, t, raw, shrunk, z)
        for row, t, s, raw, shrunk, z in zip(by_node[order].tolist(), *picked)
    ]

