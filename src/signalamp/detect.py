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


@dataclass(frozen=True, slots=True)
class SignalActivation:
    signal: SignalId
    max_z: float | None
    active: bool


@dataclass(frozen=True, slots=True)
class ActivationReport:
    """Which signals crossed the threshold anywhere in the window."""

    threshold: float
    activations: tuple[SignalActivation, ...]

    def activation_for(self, signal: SignalId) -> SignalActivation:
        for entry in self.activations:
            if entry.signal == signal:
                return entry
        raise KeyError(signal)


@dataclass(frozen=True, slots=True)
class IncidentSummary:
    """Union of implicated users across signals plus the activation report."""

    flagged_users: frozenset[UserId]
    report: ActivationReport


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
) -> IncidentSummary:
    """Merge per-signal alert sets into one incident view.

    A signal is active when its peak z over the window reached the
    threshold; signals the attack never touched stay inactive and
    contribute no users. ``max_z_by_signal`` fixes the report order and
    must cover every signal of interest, including those with no alerts.
    """
    users: set[UserId] = set()
    activations = []
    for signal, max_z in max_z_by_signal.items():
        for alert in alerts_by_signal.get(signal, ()):
            users.update(alert.suspicious_users)
        active = max_z is not None and max_z >= threshold
        activations.append(SignalActivation(signal, max_z, active))
    report = ActivationReport(threshold, tuple(activations))
    return IncidentSummary(frozenset(users), report)
