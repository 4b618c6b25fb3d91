"""Thresholding, alert assembly, and multi-signal composition.

Adjudication happens at nodes; enforcement targets users. A flagged node
implicates exactly the users that sent it a hit-carrying transaction
inside the window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, AbstractSet

from .amplify import NodeScore
from .model import NodeId, SignalId, UserId


@dataclass(frozen=True, slots=True)
class Alert:
    """One flagged node for one signal, with the implicated users."""

    node: NodeId
    signal: SignalId
    day: int
    z: float
    hits: int
    trials: int
    suspicious_users: frozenset[UserId]


def flag_nodes(scores: Iterable[NodeScore], threshold: float) -> list[NodeScore]:
    """Keep scores with z >= threshold, ordered by z desc then node id."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    kept = [sc for sc in scores if sc.z >= threshold]
    kept.sort(key=lambda sc: (-sc.z, sc.node))
    return kept


def build_alerts(
    flagged: Sequence[NodeScore],
    node_users: Mapping[NodeId, AbstractSet[UserId]],
    day: int,
) -> list[Alert]:
    """Attach implicated users to flagged scores, preserving score order."""
    alerts = []
    for sc in flagged:
        users = frozenset(node_users.get(sc.node, frozenset()))
        alerts.append(
            Alert(
                node=sc.node,
                signal=sc.signal,
                day=day,
                z=sc.z,
                hits=sc.hits,
                trials=sc.trials,
                suspicious_users=users,
            )
        )
    return alerts


def serialize_alert(alert: Alert) -> str:
    """One JSON record per alert with a stable field order.

    Identical alerts serialize to identical bytes: users are sorted and key
    order is fixed.
    """
    record = {
        "day": alert.day,
        "signal": alert.signal,
        "node": alert.node,
        "z": alert.z,
        "s": alert.hits,
        "t": alert.trials,
        "user_count": len(alert.suspicious_users),
        "users": sorted(alert.suspicious_users),
    }
    return json.dumps(record, separators=(",", ":"))


def compose_signals(
    alerts_by_signal: Mapping[SignalId, Sequence[Alert]],
    max_z_by_signal: Mapping[SignalId, float | None],
    threshold: float,
) -> frozenset[UserId]:
    """The users implicated by the alerts of each signal ``max_z_by_signal``
    names. ``threshold`` is unused, activation being ``SignalSummary.active``.
    No package code calls it any more (``BacktestReport.incident`` is the
    running union of each turn's ``flagged_users``); ``benchmarks/replica.py``
    passes all three until ROADMAP item 2 deletes the replica, after which
    item 4 deletes this function."""
    users: set[UserId] = set()
    for signal in max_z_by_signal:
        for alert in alerts_by_signal.get(signal, ()):
            users.update(alert.suspicious_users)
    return frozenset(users)
