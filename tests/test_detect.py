"""Detector tests: thresholding, user attachment, serialization, composition."""

import numpy as np
import pytest

from signalamp.amplify import NodeScore
from signalamp.detect import (
    Alert,
    build_alerts,
    compose_signals,
    flag_nodes,
    serialize_alert,
)
from signalamp.engine import StreamEngine
from signalamp.model import SignalRegistry, TransactionEdge


def make_score(node, z, signal="sig", hits=5, trials=10):
    return NodeScore(
        node=node, signal=signal, hits=hits, trials=trials,
        raw_rate=hits / trials, shrunk_rate=hits / trials, z=z,
    )


class TestFlagNodes:
    def test_keeps_only_scores_at_or_above_threshold(self):
        scores = [make_score("a", 50.0), make_score("b", 40.0), make_score("c", 39.9)]
        flagged = flag_nodes(scores, 40.0)
        assert [s.node for s in flagged] == ["a", "b"]

    def test_threshold_is_inclusive(self):
        scores = [make_score("a", 40.0)]
        assert len(flag_nodes(scores, 40.0)) == 1

    def test_output_sorted_by_z_then_node(self):
        scores = [
            make_score("b", 41.0),
            make_score("a", 41.0),
            make_score("z", 90.0),
        ]
        flagged = flag_nodes(scores, 40.0)
        assert [s.node for s in flagged] == ["z", "a", "b"]

    def test_nonfinite_threshold_rejected(self):
        with pytest.raises(ValueError):
            flag_nodes([], float("nan"))
        with pytest.raises(ValueError):
            flag_nodes([], float("inf"))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        scores = [make_score(f"n{i:03d}", float(z)) for i, z in
                  enumerate(rng.normal(0, 20, size=200))]
        sizes = [len(flag_nodes(scores, t)) for t in (-50, -10, 0, 10, 30, 60)]
        assert sizes == sorted(sizes, reverse=True)


class TestAttachUsers:
    """Alerts name the users the engine saw send a hit to the flagged node."""

    def _engine(self, edges=None):
        engine = StreamEngine(SignalRegistry(["sig"]))
        for edge in edges if edges is not None else self._edges():
            engine.ingest(edge)
        return engine

    def _edges(self):
        return [
            TransactionEdge(user="u1", node="n1", day=2, hits={"sig": 1}),
            TransactionEdge(user="u1", node="n1", day=2, hits={"sig": 1}),
            TransactionEdge(user="u2", node="n1", day=2, hits={}),
            TransactionEdge(user="u3", node="n1", day=2, hits={"sig": 1}),
            TransactionEdge(user="u4", node="n2", day=2, hits={"sig": 1}),
        ]

    def _alerts(self, flagged, day, engine=None):
        engine = engine or self._engine()
        users = {sc.node: engine.hit_users(sc.node, "sig") for sc in flagged}
        return build_alerts(flagged, users, day)

    def test_only_hit_carrying_users_attached_once(self):
        alerts = self._alerts([make_score("n1", 44.0)], day=2)
        assert len(alerts) == 1
        assert alerts[0].suspicious_users == frozenset({"u1", "u3"})

    def test_alert_copies_score_fields(self):
        alert = self._alerts([make_score("n1", 44.0, hits=3, trials=9)], day=5)[0]
        assert alert.node == "n1"
        assert alert.signal == "sig"
        assert alert.day == 5
        assert alert.z == 44.0
        assert alert.hits == 3
        assert alert.trials == 9

    def test_node_without_hits_gets_empty_user_set(self):
        engine = self._engine([TransactionEdge(user="u9", node="n9", day=0, hits={})])
        alerts = self._alerts([make_score("n9", 41.0)], day=0, engine=engine)
        assert alerts[0].suspicious_users == frozenset()

    def test_node_hit_users_groups_by_node(self):
        mapping = self._engine().node_hit_users("sig")
        assert mapping == {"n1": {"u1", "u3"}, "n2": {"u4"}}

    def test_alert_order_follows_flagged_order(self):
        alerts = self._alerts([make_score("n2", 50.0), make_score("n1", 45.0)], day=2)
        assert [a.node for a in alerts] == ["n2", "n1"]


class TestSerialization:
    def _alert(self):
        return Alert(
            node="n1", signal="sig", day=3, z=41.25, hits=8, trials=20,
            suspicious_users=frozenset({"u2", "u1"}),
        )

    def test_stable_field_order_and_sorted_users(self):
        line = serialize_alert(self._alert())
        assert line == (
            '{"day":3,"signal":"sig","node":"n1","z":41.25,"s":8,"t":20,'
            '"user_count":2,"users":["u1","u2"]}'
        )

    def test_identical_alerts_identical_bytes(self):
        a = "\n".join(serialize_alert(x) for x in [self._alert(), self._alert()])
        b = "\n".join(serialize_alert(x) for x in [self._alert(), self._alert()])
        assert a.encode() == b.encode()

    def test_set_iteration_order_cannot_leak(self):
        users_one = frozenset(["u%d" % i for i in range(50)])
        users_two = frozenset(sorted(users_one, reverse=True))
        one = serialize_alert(Alert("n", "s", 0, 1.0, 1, 2, users_one))
        two = serialize_alert(Alert("n", "s", 0, 1.0, 1, 2, users_two))
        assert one == two


class TestComposeSignals:
    def _alert(self, signal, users):
        return Alert(
            node="n1", signal=signal, day=0, z=50.0, hits=1, trials=2,
            suspicious_users=frozenset(users),
        )

    def test_union_of_users_across_signals(self):
        users = compose_signals(
            {"a": [self._alert("a", {"u1", "u2"})], "b": [self._alert("b", {"u2", "u3"})]},
            {"a": 50.0, "b": 50.0},
            threshold=40.0,
        )
        assert users == frozenset({"u1", "u2", "u3"})

    def test_signal_with_no_alerts_contributes_no_users(self):
        users = compose_signals(
            {"a": [self._alert("a", {"u1"})], "b": []},
            {"a": 50.0, "b": 39.0},
            threshold=40.0,
        )
        assert users == frozenset({"u1"})

    def test_build_alerts_uses_provided_mapping(self):
        flagged = [make_score("n1", 44.0), make_score("n2", 42.0)]
        alerts = build_alerts(flagged, {"n1": {"u1"}}, day=7)
        assert alerts[0].suspicious_users == frozenset({"u1"})
        assert alerts[1].suspicious_users == frozenset()
        assert all(a.day == 7 for a in alerts)
