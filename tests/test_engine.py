"""Stream engine tests: counter conservation, equivalence with the batch
pipeline, trailing-window eviction, checkpointing, and replay semantics.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalamp.amplify import compute_baseline
from signalamp.detect import build_alerts, flag_nodes, serialize_alert
from signalamp import engine as engine_module
from signalamp.edgefile import read_edge_days, write_edge_file
from signalamp.engine import StreamEngine, WindowConfig, replay_daily, replay_turns
from signalamp.errors import (
    CheckpointError,
    DegenerateBaselineError,
    NoBaselineError,
    UnknownSignalError,
    UnsortedEdgesError,
)
from signalamp.model import EdgeColumns, SignalRegistry, TransactionEdge

from reference import (crash_mid_write, reference_fold, reference_scores,
                       reference_users, v1_payload)


def random_edges(n, seed, n_users=200, n_nodes=25, days=10, hit_rate=0.2,
                 signals=("sig",)):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(n):
        hits = {s: 1 for s in signals if rng.random() < hit_rate}
        edges.append(
            TransactionEdge(
                user=f"u{rng.integers(0, n_users):04d}",
                node=f"n{rng.integers(0, n_nodes):03d}",
                day=int(rng.integers(0, days)),
                hits=hits,
            )
        )
    edges.sort(key=lambda e: e.day)
    return edges


def batch_scores(edges, signal):
    nodes = reference_fold(edges)
    return reference_scores(nodes.values(), compute_baseline(nodes.values(), signal))


def composed_turns(edges, registry, window, threshold):
    """Each daily turn as per-edge ``ingest``, then ``scores()`` ->
    ``flag_nodes`` -> ``build_alerts``: per day and signal, (max z, alerts,
    flagged users). Returns the turns and the engine."""
    engine = StreamEngine(registry, window=window)
    by_day = {}
    for edge in edges:
        by_day.setdefault(edge.day, []).append(edge)
    turns = []
    for day in range(edges[0].day, edges[-1].day + 1):
        for edge in by_day.get(day, ()):
            engine.ingest(edge)
        engine.advance_to(day)
        turn = {}
        for signal in registry.ids():
            try:
                scores = engine.scores(signal)
            except (NoBaselineError, DegenerateBaselineError):
                turn[signal] = (None, [], frozenset())
                continue
            flagged = flag_nodes(scores, threshold)
            alerts = build_alerts(
                flagged,
                {sc.node: engine.hit_users(sc.node, signal) for sc in flagged},
                day,
            )
            users = frozenset(u for alert in alerts for u in alert.suspicious_users)
            turn[signal] = (scores[0].z, alerts, users)
        turns.append((day, turn))
    return turns, engine


def assert_outcomes_equal(outcomes, turns):
    assert [d.day for d in outcomes] == [day for day, _ in turns]
    for outcome, (_, turn) in zip(outcomes, turns):
        for signal, (max_z, alerts, users) in turn.items():
            assert outcome.max_z[signal] == max_z
            assert outcome.alerts[signal] == alerts
            assert outcome.flagged_users[signal] == users
        assert outcome.inactive_signals == tuple(
            signal for signal, (max_z, _, _) in turn.items() if max_z is None
        )


class TestIngest:
    def test_first_edge_creates_node_and_counts(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u1", node="n1", day=0, hits={"sig": 1}))
        assert engine.total_transactions == 1
        assert engine.active_node_count == 1
        assert engine.total_hits("sig") == 1
        assert engine.current_day == 0

    def test_same_node_does_not_grow_active_count(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        for _ in range(5):
            engine.ingest(TransactionEdge(user="u1", node="n1", day=0, hits={}))
        assert engine.active_node_count == 1
        assert engine.total_transactions == 5

    def test_unregistered_signal_rejected(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        with pytest.raises(UnknownSignalError):
            engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"o": 1}))

    def test_conservation_after_every_ingest(self):
        """Global totals must equal the node-table sums at every step."""
        registry = SignalRegistry(["a", "b"])
        engine = StreamEngine(registry)
        for edge in random_edges(400, seed=3, signals=("a", "b")):
            engine.ingest(edge)
            accs = list(engine.accumulators())
            assert engine.total_transactions == sum(x.trials for x in accs)
            for signal in ("a", "b"):
                assert engine.total_hits(signal) == sum(
                    x.hits.get(signal, 0) for x in accs
                )
            assert engine.active_node_count == len(accs)


@st.composite
def cut_days(draw):
    """A day's edges as (user, node, hit bits) rows, and the same rows
    permuted and cut into pieces, each coded in id tables of its own in
    any order, with unused ids, and with the users of rows without a hit
    coded -1 or not, as ``read_edge_days`` does."""
    rows = draw(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]),
                                   st.sampled_from(["n1", "n2", "n3"]),
                                   st.tuples(st.booleans(), st.booleans())),
                         min_size=1, max_size=24))
    order = draw(st.permutations(range(len(rows))))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    pieces = []
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        piece = [rows[k] for k in order[lo:hi]]
        users = draw(st.permutations(sorted({u for u, _, _ in piece} | {"u9"})))
        nodes = draw(st.permutations(sorted({v for _, v, _ in piece} | {"n9"})))
        uncoded = draw(st.booleans())
        pieces.append(EdgeColumns(
            ["a", "b"], users,
            np.array([-1 if uncoded and not any(bits) else users.index(u)
                      for u, _, bits in piece], np.int64),
            nodes, np.array([nodes.index(v) for _, v, _ in piece], np.int64),
            np.full(len(piece), 4, np.int64),
            np.array([bits for _, _, bits in piece], bool).reshape(-1, 2).T))
    return rows, pieces


@settings(max_examples=200)
@given(day=cut_days(), window=st.sampled_from([None, WindowConfig.trailing(2)]))
def test_ingest_merges_a_day_in_any_order(tmp_path, day, window):
    """``ingest_columns`` over any cut and permutation of a day's edges,
    and any code order of their id tables, gives the counters, hit users
    and checkpoint bytes of the day ingested whole."""
    rows, pieces = day
    whole = EdgeColumns.from_rows(
        ["a", "b"], [u for u, _, _ in rows], [v for _, v, _ in rows], [4] * len(rows),
        [(k, row) for row, (_, _, bits) in enumerate(rows) for k, bit in enumerate(bits)
         if bit])
    engines = [StreamEngine(SignalRegistry(["a", "b"]), window=window) for _ in "wp"]
    engines[0].ingest_columns(whole)
    for piece in pieces:
        engines[1].ingest_columns(piece)
    for k, engine in enumerate(engines):
        engine.save_checkpoint(tmp_path / f"{k}.json")
    want, got = engines
    assert sorted(got.accumulators(), key=lambda acc: acc.node) == sorted(
        want.accumulators(), key=lambda acc: acc.node)
    for signal in ("a", "b"):
        assert got.node_hit_users(signal) == want.node_hit_users(signal)
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "0.json").read_bytes()


class TestStreamEqualsBatch:
    def test_bit_exact_scores_after_full_stream(self):
        registry = SignalRegistry(["sig"])
        edges = random_edges(3000, seed=11)
        engine = StreamEngine(registry)
        for edge in edges:
            engine.ingest(edge)
        assert engine.scores("sig") == batch_scores(edges, "sig")

    def test_ingest_order_cannot_matter(self):
        """Counters are integer sums, so any interleaving gives the same z."""
        registry = SignalRegistry(["sig"])
        edges = random_edges(1500, seed=12)
        rng = np.random.default_rng(99)
        baseline_scores = None
        for _ in range(3):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            engine = StreamEngine(registry)
            for edge in shuffled:
                engine.ingest(edge)
            scores = engine.scores("sig")
            if baseline_scores is None:
                baseline_scores = scores
            else:
                assert scores == baseline_scores

    def test_query_score_matches_batch(self):
        """Each node's score, looked up in ``scores()``, and its on-demand
        tally equal the batch path's."""
        registry = SignalRegistry(["sig"])
        edges = random_edges(800, seed=13)
        engine = StreamEngine(registry)
        for edge in edges:
            engine.ingest(edge)
        by_node = {s.node: s for s in engine.scores("sig")}
        for node, want in {s.node: s for s in batch_scores(edges, "sig")}.items():
            assert by_node[node] == want
        assert {acc.node: (acc.trials, acc.hits) for acc in engine.accumulators()} \
            == {node: (acc.trials, acc.hits)
                for node, acc in reference_fold(edges).items()}

    def test_unknown_node_rejected(self):
        """A read about a node the engine has never seen finds nothing and
        adds nothing."""
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"sig": 1}))
        before = engine.checkpoint_payload()
        assert engine.hit_users("ghost", "sig") == frozenset()
        assert engine.hit_users("n", "sig") == frozenset({"u"})
        assert engine.checkpoint_payload() == before

    def test_single_all_hit_edge_leaves_signal_inactive(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"sig": 1}))
        with pytest.raises(DegenerateBaselineError):
            engine.scores("sig")
        with pytest.raises(DegenerateBaselineError):
            engine.flagged("sig", 1.0)


class TestTrailingWindow:
    def test_eviction_matches_fresh_engine_over_window(self):
        """After advancing, state must equal an engine fed only the window."""
        registry = SignalRegistry(["sig"])
        edges = random_edges(2500, seed=21, days=12)
        for width in (1, 3, 5):
            engine = StreamEngine(registry, WindowConfig.trailing(width))
            for edge in edges:
                engine.ingest(edge)
            last_day = max(e.day for e in edges)
            engine.advance_to(last_day)
            window_edges = [e for e in edges if last_day - width < e.day <= last_day]
            fresh = StreamEngine(registry, WindowConfig.trailing(width))
            for edge in window_edges:
                fresh.ingest(edge)
            assert engine.total_transactions == fresh.total_transactions
            assert engine.active_node_count == fresh.active_node_count
            assert engine.scores("sig") == fresh.scores("sig")

    def test_conservation_survives_eviction(self):
        registry = SignalRegistry(["sig"])
        engine = StreamEngine(registry, WindowConfig.trailing(2))
        for edge in random_edges(1200, seed=22, days=9):
            engine.ingest(edge)
        for day in range(10):
            engine.advance_to(day)
            accs = list(engine.accumulators())
            assert engine.total_transactions == sum(x.trials for x in accs)
            assert engine.total_hits("sig") == sum(x.hits.get("sig", 0) for x in accs)

    def test_hit_users_evicted_with_their_days(self):
        registry = SignalRegistry(["sig"])
        engine = StreamEngine(registry, WindowConfig.trailing(1))
        engine.ingest(TransactionEdge(user="old", node="n", day=0, hits={"sig": 1}))
        engine.ingest(TransactionEdge(user="new", node="n", day=1, hits={"sig": 1}))
        engine.advance_to(1)
        assert engine.hit_users("n", "sig") == frozenset({"new"})

    def test_edge_below_eviction_horizon_rejected(self):
        registry = SignalRegistry(["sig"])
        engine = StreamEngine(registry, WindowConfig.trailing(1))
        engine.ingest(TransactionEdge(user="u", node="n", day=5, hits={}))
        engine.advance_to(5)
        with pytest.raises(UnsortedEdgesError):
            engine.ingest(TransactionEdge(user="u", node="n", day=3, hits={}))

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig("trailing", None)
        with pytest.raises(ValueError):
            WindowConfig("cumulative", 5)
        with pytest.raises(ValueError):
            WindowConfig("sliding", 5)
        for days in (0, 2.5, True, "3"):
            with pytest.raises(ValueError):
                WindowConfig("trailing", days)


class TestReplayDaily:
    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(3)],
                             ids=["cumulative", "trailing3"])
    def test_turns_over_the_day_reader_equal_per_edge_turns(self, tmp_path, window):
        """``replay_turns`` fed one day at a time by ``read_edge_days``, gap
        days included, gives every turn of per-edge ingest and scoring."""
        registry = SignalRegistry(["a", "b"])
        edges = [e for e in random_edges(3000, seed=61, days=12, signals=("a", "b"))
                 if e.day not in (4, 5)]
        path = tmp_path / "edges.csv"
        write_edge_file(path, edges, registry.ids())
        signals, days = read_edge_days(path)
        engine = StreamEngine(SignalRegistry(signals), window)
        outcomes = list(replay_turns(days, engine, threshold=2.0))
        turns, reference = composed_turns(edges, registry, window, 2.0)
        assert_outcomes_equal(outcomes, turns)
        assert engine.checkpoint_payload() == reference.checkpoint_payload()

    def test_turns_check_each_batch_as_they_reach_it(self, tmp_path):
        """The turn generator scores the days before a batch that is out of
        order, then raises ``replay_daily``'s error text; a batch of more
        than one day is refused."""
        first = replay_daily(random_edges(100, 75, days=3), SignalRegistry(["sig"]),
                             threshold=5.0)
        path = tmp_path / "state.json"
        first.engine.save_checkpoint(path)

        def batch(*days):
            return EdgeColumns.from_edges(
                [TransactionEdge(user="u", node="n", day=d, hits={}) for d in days], ["sig"])

        for days, scored, message in [
            ([3, 5, 4], [3, 4, 5], "edge day 4 arrived after day 5 began"),
            ([2, 3], [], "edge day 2 arrived after day 3 began"),
        ]:
            seen = []
            with pytest.raises(UnsortedEdgesError, match=message):
                for outcome in replay_turns(map(batch, days),
                                            StreamEngine.load_checkpoint(path), 5.0):
                    seen.append(outcome.day)
            assert seen == scored
        with pytest.raises(ValueError, match="one day"):
            list(replay_turns([batch(3, 4)], StreamEngine.load_checkpoint(path), 5.0))

    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(3)],
                             ids=["cumulative", "trailing3"])
    def test_replay_in_day_slices_equals_one_replay(self, window):
        """A long stream can be replayed a slice of days at a time, each
        call continuing the previous call's engine in memory."""
        registry = SignalRegistry(["sig"])
        edges = random_edges(2000, seed=57, days=9)
        whole = replay_daily(iter(edges), registry, threshold=3.0, window=window)
        engine, days = StreamEngine(registry, window=window), []
        for day in range(0, 9, 2):
            part = replay_daily((e for e in edges if day <= e.day < day + 2),
                                engine=engine, threshold=3.0)
            engine, days = part.engine, days + part.days
        assert days == whole.days
        assert engine.checkpoint_payload() == whole.engine.checkpoint_payload()

    def _attack_edges(self):
        """Quiet background plus a three-day burst into one node."""
        rng = np.random.default_rng(31)
        edges = []
        for day in range(8):
            for _ in range(300):
                hits = {"sig": 1} if rng.random() < 0.05 else {}
                edges.append(
                    TransactionEdge(
                        user=f"u{rng.integers(0, 150):03d}",
                        node=f"n{rng.integers(0, 20):02d}",
                        day=day,
                        hits=hits,
                    )
                )
            if 3 <= day <= 5:
                for _ in range(120):
                    edges.append(
                        TransactionEdge(
                            user=f"s{rng.integers(0, 40):02d}",
                            node="hot",
                            day=day,
                            hits={"sig": 1} if rng.random() < 0.9 else {},
                        )
                    )
        return edges

    def test_one_outcome_per_day_including_gaps(self):
        registry = SignalRegistry(["sig"])
        edges = [
            TransactionEdge(user="u1", node="n1", day=0, hits={"sig": 1}),
            TransactionEdge(user="u2", node="n1", day=0, hits={}),
            TransactionEdge(user="u3", node="n2", day=4, hits={}),
        ]
        result = replay_daily(edges, registry, threshold=40.0)
        assert [d.day for d in result.days] == [0, 1, 2, 3, 4]

    def test_unsorted_stream_rejected_without_sort_flag(self):
        registry = SignalRegistry(["sig"])
        edges = [
            TransactionEdge(user="u1", node="n1", day=3, hits={}),
            TransactionEdge(user="u2", node="n1", day=1, hits={}),
        ]
        with pytest.raises(UnsortedEdgesError):
            replay_daily(edges, registry, threshold=40.0)

    def test_sort_flag_orders_the_stream(self):
        registry = SignalRegistry(["sig"])
        edges = [
            TransactionEdge(user="u1", node="n1", day=3, hits={"sig": 1}),
            TransactionEdge(user="u2", node="n1", day=1, hits={}),
            TransactionEdge(user="u3", node="n1", day=1, hits={}),
        ]
        result = replay_daily(
            sorted(edges, key=lambda e: e.day), registry, threshold=40.0
        )
        assert [d.day for d in result.days] == [1, 2, 3]

    def test_burst_flags_only_during_burst_under_tight_window(self):
        """With a one-day window, daily flags track the attack's support."""
        registry = SignalRegistry(["sig"])
        result = replay_daily(
            self._attack_edges(), registry,
            threshold=10.0, window=WindowConfig.trailing(1),
        )
        flagged_days = [
            d.day for d in result.days if d.flagged_users.get("sig")
        ]
        assert flagged_days, "the burst must be caught"
        assert set(flagged_days) <= {3, 4, 5}

    def test_burst_users_attached_to_hot_node(self):
        registry = SignalRegistry(["sig"])
        result = replay_daily(
            self._attack_edges(), registry,
            threshold=10.0, window=WindowConfig.trailing(1),
        )
        users = set().union(*(d.flagged_users.get("sig", ()) for d in result.days))
        assert users
        assert all(u.startswith("s") for u in users)

    def test_cumulative_flags_persist_after_burst(self):
        """Cumulative windows never forget: counts stay flagged post-attack."""
        registry = SignalRegistry(["sig"])
        result = replay_daily(self._attack_edges(), registry, threshold=10.0)
        last = result.days[-1]
        assert last.day == 7
        assert last.flagged_users["sig"]

    def test_max_z_reported_per_day(self):
        registry = SignalRegistry(["sig"])
        result = replay_daily(self._attack_edges(), registry, threshold=10.0)
        burst_peak = max(d.max_z["sig"] for d in result.days if d.day >= 3)
        early = max(d.max_z["sig"] for d in result.days if d.day < 3)
        assert burst_peak >= 10.0
        assert early < 10.0

    def test_replay_single_day_equals_direct_scoring(self):
        registry = SignalRegistry(["sig"])
        edges = random_edges(500, seed=41, days=1)
        result = replay_daily(edges, registry, threshold=-100.0)
        assert len(result.days) == 1
        direct = batch_scores(edges, "sig")
        flagged_direct = frozenset(
            u for sc in direct for u in
            result.engine.node_hit_users("sig").get(sc.node, frozenset())
        )
        assert result.days[0].flagged_users["sig"] == flagged_direct

    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(3)],
                             ids=["cumulative", "trailing3"])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_turns_equal_scores_then_flag_nodes(self, window, seed):
        registry = SignalRegistry(["a", "b", "never"])
        edges = random_edges(2500, seed, n_nodes=40, days=9, hit_rate=0.15,
                             signals=("a", "b"))
        peaks = sorted(
            z for _, turn in composed_turns(edges, registry, window, 0.0)[0]
            for z, _, _ in turn.values() if z is not None
        )
        # Below every z, exactly some turn's peak (the >= edge), above all.
        for threshold in (-1e9, peaks[len(peaks) // 2], peaks[-1] + 1.0):
            expected, _ = composed_turns(edges, registry, window, threshold)
            result = replay_daily(edges, registry, threshold=threshold, window=window)
            assert_outcomes_equal(result.days, expected)
            flagged = [a for d in result.days for a in d.alerts["a"] + d.alerts["b"]]
            if threshold < 0:
                assert all(d.alerts["a"] and d.alerts["b"] for d in result.days)
            elif threshold > peaks[-1]:
                assert flagged == []
            else:
                assert any(a.z == threshold for a in flagged)

    def test_flagged_raises_what_scores_raises(self):
        engine = StreamEngine(SignalRegistry(["sig", "never"]))
        for call in (engine.scores, lambda s: engine.flagged(s, 1.0)):
            with pytest.raises(NoBaselineError):
                call("sig")
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"sig": 1}))
        for call in (engine.scores, lambda s: engine.flagged(s, 1.0)):
            with pytest.raises(DegenerateBaselineError):
                call("never")
            with pytest.raises(UnknownSignalError):
                call("ghost")

    def test_replay_needs_an_engine_that_tracks_users(self, tmp_path):
        """Every engine keeps per-user hit counts. A format v1 file saved
        without them cannot become an engine, so it cannot resume a replay."""
        path = tmp_path / "state.json"
        path.write_text(UNTRACKED_V1, encoding="utf-8")
        with pytest.raises(CheckpointError, match=f"{path}: track_users is False"):
            StreamEngine.load_checkpoint(path)

    def test_degenerate_day_reported_inactive(self):
        registry = SignalRegistry(["sig"])
        edges = [TransactionEdge(user="u1", node="n1", day=0, hits={"sig": 1})]
        result = replay_daily(edges, registry, threshold=40.0)
        outcome = result.days[0]
        assert outcome.inactive_signals == ("sig",)
        assert outcome.max_z["sig"] is None
        assert outcome.alerts["sig"] == []


def window_hit_users(edges, day, window_days):
    """Per signal and node, the users of the hit edges in the window that
    ends at ``day``, built from every edge: the oracle of the gathers."""
    users = {}
    for edge in edges:
        if edge.day <= day and (window_days is None or edge.day > day - window_days):
            for signal, bit in edge.hits.items():
                if bit:
                    users.setdefault(signal, {}).setdefault(edge.node, set()).add(edge.user)
    return users


class TestHitUserGather:
    """``hit_users``, ``node_hit_users`` and each turn's alert users equal
    the sets built from every edge in the window, across trailing
    evictions and checkpoint resumes."""

    SIGNALS = ("a", "b")

    def edges(self):
        # Few users, so the same user hits a node on many days.
        return random_edges(2400, seed=91, n_users=40, n_nodes=12, days=10,
                            hit_rate=0.3, signals=self.SIGNALS)

    @pytest.mark.parametrize("window_days", [None, 3], ids=["cumulative", "trailing3"])
    def test_reads_after_every_turn(self, tmp_path, window_days):
        edges = self.edges()
        window = WindowConfig("trailing", window_days) if window_days else None
        engine = StreamEngine(SignalRegistry(self.SIGNALS), window)
        nodes = sorted({edge.node for edge in edges}) + ["ghost"]
        for day in range(10):
            if day in (4, 7):
                engine.save_checkpoint(tmp_path / "state.json")
                engine = StreamEngine.load_checkpoint(tmp_path / "state.json")
            engine.ingest_columns(EdgeColumns.from_edges(
                [edge for edge in edges if edge.day == day], self.SIGNALS))
            engine.advance_to(day)
            want = window_hit_users(edges, day, window_days)
            for signal in (*self.SIGNALS, "unregistered"):
                assert engine.node_hit_users(signal) == want.get(signal, {})
                for node in nodes:
                    assert engine.hit_users(node, signal) \
                        == want.get(signal, {}).get(node, set())

    @pytest.mark.parametrize("window_days", [None, 3], ids=["cumulative", "trailing3"])
    def test_turn_alert_users(self, tmp_path, window_days):
        edges = self.edges()
        window = WindowConfig("trailing", window_days) if window_days else None
        head = replay_daily([edge for edge in edges if edge.day < 5],
                            SignalRegistry(self.SIGNALS), threshold=0.5, window=window)
        head.engine.save_checkpoint(tmp_path / "state.json")
        tail = replay_daily([edge for edge in edges if edge.day >= 5], threshold=0.5,
                            engine=StreamEngine.load_checkpoint(tmp_path / "state.json"))
        alerts = 0
        for outcome in head.days + tail.days:
            want = window_hit_users(edges, outcome.day, window_days)
            for signal in self.SIGNALS:
                for alert in outcome.alerts[signal]:
                    assert alert.suspicious_users == want[signal][alert.node]
                alerts += len(outcome.alerts[signal])
                assert outcome.flagged_users[signal] == {
                    user for alert in outcome.alerts[signal]
                    for user in alert.suspicious_users}
        assert alerts >= 20

    def test_unseen_node_adds_nothing(self, tmp_path):
        """A lookup of a node the engine never saw finds no users and adds
        no id, so the next checkpoint is byte-equal to one saved before."""
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"sig": 1}))
        engine.save_checkpoint(tmp_path / "before.json")
        for _ in range(2):
            assert engine.hit_users("ghost", "sig") == frozenset()
        assert engine._node_ids.ids() == ["n"]
        engine.save_checkpoint(tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() \
            == (tmp_path / "before.json").read_bytes()


def alert_bytes(alert_lists):
    return "\n".join(serialize_alert(a) for alerts in alert_lists for a in alerts)


class TestColumnsEqualPerEdge:
    """``replay_daily`` folds each day's columns in one grouped pass; it
    must end where per-edge ``ingest`` ends, across checkpoint splits."""

    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(3)],
                             ids=["cumulative", "trailing3"])
    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_replay_over_columns_equals_per_edge_ingest(self, tmp_path, window, seed):
        registry = SignalRegistry(["a", "b", "never"])
        edges = random_edges(2000, seed, n_users=60, n_nodes=30, days=9,
                             hit_rate=0.15, signals=("a", "b"))
        peaks = sorted(
            z for _, turn in composed_turns(edges, registry, window, 0.0)[0]
            for z, _, _ in turn.values() if z is not None
        )
        threshold = peaks[len(peaks) // 2]
        turns, per_edge = composed_turns(edges, registry, window, threshold)
        want = per_edge.checkpoint_payload()
        want_alerts = alert_bytes(
            alerts for _, turn in turns for _, alerts, _ in turn.values())
        assert want_alerts

        last = edges[-1].day
        inside = [e for e in edges if window is None or e.day > last - 3]
        reference = reference_fold(inside)
        nodes = v1_payload(want)["nodes"]
        assert {node: (e["t"], e["s"]) for node, e in nodes.items()} \
            == {node: (acc.trials, acc.hits) for node, acc in reference.items()}

        columns = EdgeColumns.from_edges(edges, registry.ids())
        days = [e.day for e in edges]
        for cut_day in (edges[0].day, 1, 4, last, last + 1):
            cut = days.index(cut_day) if cut_day <= last else len(edges)
            head = replay_daily(columns[:cut], registry, threshold=threshold,
                                window=window)
            path = tmp_path / f"cut{cut_day}.json"
            head.engine.save_checkpoint(path)
            resumed = StreamEngine.load_checkpoint(path)
            tail = replay_daily(columns[cut:], engine=resumed, threshold=threshold)
            outcomes = head.days + tail.days
            assert tail.engine.checkpoint_payload() == want
            assert_outcomes_equal(outcomes, turns)
            assert alert_bytes(
                alerts for d in outcomes for alerts in d.alerts.values()) == want_alerts

    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(2)],
                             ids=["cumulative", "trailing2"])
    def test_ingest_columns_in_any_order_equals_ingest(self, window):
        registry = SignalRegistry(["a", "b"])
        edges = random_edges(1500, 74, n_users=50, days=6, signals=("a", "b"))
        rng = np.random.default_rng(5)
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        one_by_one = StreamEngine(registry, window=window)
        for edge in edges:
            one_by_one.ingest(edge)
        grouped = StreamEngine(registry, window=window)
        grouped.ingest_columns(EdgeColumns.from_edges(shuffled[:700], ["a", "b"]))
        grouped.ingest_columns(EdgeColumns.from_edges(shuffled[700:], ["b", "a"]))
        assert grouped.checkpoint_payload() == one_by_one.checkpoint_payload()
        for engine in (grouped, one_by_one):
            engine.advance_to(5)
        assert grouped.scores("a") == one_by_one.scores("a")

        # More edges than per-edge ingest queues before a fold, fed through
        # ingest and ingest_columns in turn with reads in between.
        n = engine_module._QUEUE_EDGES + 5000
        rng = np.random.default_rng(6)
        many = [TransactionEdge(user=f"u{u}", node=f"n{v:02d}", day=d,
                                hits={s: 1 for s, on in (("a", a), ("b", b)) if on})
                for u, v, d, a, b in zip(*(column.tolist() for column in (
                    rng.integers(0, 300, n), rng.integers(0, 40, n),
                    rng.integers(6, 9, n), rng.random(n) < 0.1,
                    rng.random(n) < 0.03)))]
        whole = StreamEngine(registry, window=window)
        whole.ingest_columns(EdgeColumns.from_edges(many, ["a", "b"]))
        mixed = StreamEngine(registry, window=window)
        cuts = [0, 100, 3000, 4000, n - 900, n]
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if i % 2:
                mixed.ingest_columns(EdgeColumns.from_edges(many[lo:hi], ["b", "a"]))
            else:
                for edge in many[lo:hi]:
                    mixed.ingest(edge)
            assert mixed.total_transactions == hi
            assert mixed.hit_users(many[0].node, "a") == {
                e.user for e in many[:hi] if e.node == many[0].node and e.hits.get("a")}
        want = whole.checkpoint_payload()
        assert mixed.checkpoint_payload() == want
        nodes = v1_payload(want)["nodes"]
        assert {node: (e["t"], e["s"]) for node, e in nodes.items()} == {
            node: (acc.trials, acc.hits) for node, acc in reference_fold(many).items()}
        assert {node: e["users"] for node, e in nodes.items()} == {
            node: reference_users(many).get(node, {}) for node in nodes}
        for engine in (mixed, whole):
            engine.advance_to(8)
        assert mixed.scores("b") == whole.scores("b")

    def test_day_buffer_folds_and_evicts_like_one_call(self):
        """Folding more columns and single edges into a trailing day that
        already holds a delta, and then evicting it, must match one call
        and the reference at every step, and leave nothing behind."""
        registry = SignalRegistry(["a", "b"])
        window = WindowConfig.trailing(3)

        def one_call(edges):
            engine = StreamEngine(registry, window)
            engine.ingest_columns(EdgeColumns.from_edges(edges, ["a", "b"]))
            return engine

        edges = random_edges(300, 76, n_users=20, n_nodes=6, days=1,
                             signals=("a", "b"))
        late = [TransactionEdge(user="late", node=node, day=0, hits=hits)
                for node in (edges[0].node, "fresh") for hits in ({}, {"a": 1})]
        engine = StreamEngine(registry, window)
        seen = []
        for step in (edges[:150], edges[150:], *([edge] for edge in late)):
            if len(step) == 1:
                engine.ingest(step[0])
            else:
                engine.ingest_columns(EdgeColumns.from_edges(step, ["a", "b"]))
            seen += step
            got = engine.checkpoint_payload()
            assert got == one_call(seen).checkpoint_payload()
            got = v1_payload(got)
            nodes = got["nodes"]
            assert {node: (e["t"], e["s"]) for node, e in nodes.items()} == {
                node: (acc.trials, acc.hits)
                for node, acc in reference_fold(seen).items()}
            assert got["day_buffers"] == {
                "0": {node: {"users": {}, **e} for node, e in nodes.items()}}
            users = reference_users(seen)
            assert {node: e["users"] for node, e in nodes.items()} == {
                node: users.get(node, {}) for node in nodes}
        evicted = one_call(seen)
        for each in (engine, evicted):
            each.advance_to(3)
        got = engine.checkpoint_payload()
        assert got == evicted.checkpoint_payload()
        assert (got["nodes"], got["users"], got["days"]) == ([], [], {})
        got = v1_payload(got)
        assert (got["nodes"], got["day_buffers"], got["totals"]) == (
            {}, {}, {"active_nodes": 0, "hits": {"a": 0, "b": 0}, "transactions": 0})

    def test_ingest_columns_checks_what_ingest_checks(self):
        engine = StreamEngine(SignalRegistry(["a"]), WindowConfig.trailing(1))
        quiet = TransactionEdge(user="u", node="n", day=0, hits={})
        engine.ingest_columns(EdgeColumns.from_edges([quiet], ["a", "ghost"]))
        loud = TransactionEdge(user="u", node="n", day=0, hits={"ghost": 1})
        with pytest.raises(UnknownSignalError):
            engine.ingest_columns(EdgeColumns.from_edges([loud], ["a", "ghost"]))
        engine.advance_to(3)
        with pytest.raises(UnsortedEdgesError, match="edge day 2 precedes"):
            late = [TransactionEdge(user="u", node="n", day=day, hits={})
                    for day in (4, 2)]
            engine.ingest_columns(EdgeColumns.from_edges(late, ["a"]))
        assert engine.total_transactions == 0

    def test_unsorted_replay_rejected_before_ingest(self, tmp_path):
        registry = SignalRegistry(["sig"])
        first = replay_daily(random_edges(100, 75, days=3), registry, threshold=5.0)
        path = tmp_path / "state.json"
        first.engine.save_checkpoint(path)
        cases = [
            ([3, 5, 4], "edge day 4 arrived after day 5 began"),
            ([2, 3], "edge day 2 arrived after day 3 began"),
        ]
        for days, message in cases:
            engine = StreamEngine.load_checkpoint(path)
            edges = [TransactionEdge(user="u", node="n", day=d, hits={}) for d in days]
            with pytest.raises(UnsortedEdgesError, match=message):
                replay_daily(edges, engine=engine, threshold=5.0)
            assert engine.checkpoint_payload() == first.engine.checkpoint_payload()


# Thirty edges on days 0..3: "b" hits every other edge, "a" every seventh,
# three users over four nodes, so user tables hold counts above 1 and some
# node and buffer entries hold no hits at all.
GOLDEN_EDGES = [
    TransactionEdge(user=f"u{i % 3}", node=f"n{i % 4}", day=i // 8,
                    hits={s: 1 for s, on in (("a", i % 7 == 3), ("b", i % 2 == 0))
                          if on})
    for i in range(30)
]

# The golden engines' checkpoints as format v1 wrote them.
GOLDEN_CHECKPOINTS = {
    "trailing3": (
        '{"current_day":3,"day_buffers":{"1":{"n0":{"s":{"b":2},"t":2,"user'
        's":{"b":{"u0":1,"u2":1}}},"n1":{"s":{},"t":2,"users":{}},"n2":{"s"'
        ':{"a":1,"b":2},"t":2,"users":{"a":{"u1":1},"b":{"u1":1,"u2":1}}},"'
        'n3":{"s":{},"t":2,"users":{}}},"2":{"n0":{"s":{"b":2},"t":2,"users'
        '":{"b":{"u1":1,"u2":1}}},"n1":{"s":{"a":1},"t":2,"users":{"a":{"u2'
        '":1}}},"n2":{"s":{"b":2},"t":2,"users":{"b":{"u0":1,"u1":1}}},"n3"'
        ':{"s":{},"t":2,"users":{}}},"3":{"n0":{"s":{"a":1,"b":2},"t":2,"us'
        'ers":{"a":{"u0":1},"b":{"u0":1,"u1":1}}},"n1":{"s":{},"t":2,"users'
        '":{}},"n2":{"s":{"b":1},"t":1,"users":{"b":{"u2":1}}},"n3":{"s":{}'
        ',"t":1,"users":{}}}},"evicted_through":0,"format_version":1,"nodes'
        '":{"n0":{"s":{"a":1,"b":6},"t":6,"users":{"a":{"u0":1},"b":{"u0":2'
        ',"u1":2,"u2":2}}},"n1":{"s":{"a":1},"t":6,"users":{"a":{"u2":1}}},'
        '"n2":{"s":{"a":1,"b":5},"t":5,"users":{"a":{"u1":1},"b":{"u0":1,"u'
        '1":2,"u2":2}}},"n3":{"s":{},"t":5,"users":{}}},"signals":[{"descri'
        'ption":"","signal":"a"},{"description":"","signal":"b"}],"totals":'
        '{"active_nodes":4,"hits":{"a":3,"b":11},"transactions":22},"track_'
        'users":true,"window":{"mode":"trailing","trailing_days":3}}\n'
    ),
    "cumulative": (
        '{"current_day":3,"day_buffers":{},"evicted_through":-1,"format_ver'
        'sion":1,"nodes":{"n0":{"s":{"a":1,"b":8},"t":8,"users":{"a":{"u0":'
        '1},"b":{"u0":3,"u1":3,"u2":2}}},"n1":{"s":{"a":1},"t":8,"users":{"'
        'a":{"u2":1}}},"n2":{"s":{"a":1,"b":7},"t":7,"users":{"a":{"u1":1},'
        '"b":{"u0":2,"u1":2,"u2":3}}},"n3":{"s":{"a":1},"t":7,"users":{"a":'
        '{"u0":1}}}},"signals":[{"description":"","signal":"a"},{"descripti'
        'on":"","signal":"b"}],"totals":{"active_nodes":4,"hits":{"a":4,"b"'
        ':15},"transactions":30},"track_users":true,"window":{"mode":"cumul'
        'ative","trailing_days":null}}\n'
    ),
}

# The same states as format v2 writes them.
GOLDEN_V2 = {
    "cumulative": (
        '{"current_day":3,"days":{"3":{"counts":[0,1,2,3,8,8,7,7,1,1,1,1,8,'
        '0,7,0],"users":[0,0,0,0,1,2,2,2,2,3,0,1,1,1,0,0,1,1,1,0,0,0,1,2,2,'
        '1,0,1,2,0,1,3,3,2,1,1,2,2,3,1]}},"evicted_through":-1,"format_vers'
        'ion":2,"nodes":["n0","n1","n2","n3"],"signals":[{"description":"",'
        '"signal":"a"},{"description":"","signal":"b"}],"users":["u0","u1",'
        '"u2"],"window":{"mode":"cumulative","trailing_days":null}}\n'
    ),
    "trailing3": (
        '{"current_day":3,"days":{"1":{"counts":[0,1,2,3,2,2,2,2,0,0,1,0,2,'
        '0,2,0],"users":[0,0,2,2,2,1,1,0,1,1,0,2,1,1,2,1,1,1,1,1]},"2":{"co'
        'unts":[0,1,2,3,2,2,2,2,0,1,0,0,2,0,2,0],"users":[0,0,1,2,2,1,1,0,1'
        ',1,1,2,2,0,1,1,1,1,1,1]},"3":{"counts":[0,1,2,3,2,2,1,1,1,0,0,0,2,'
        '0,1,0],"users":[0,0,0,2,0,1,1,1,0,0,1,2,1,1,1,1]}},"evicted_throug'
        'h":0,"format_version":2,"nodes":["n0","n1","n2","n3"],"signals":[{'
        '"description":"","signal":"a"},{"description":"","signal":"b"}],"u'
        'sers":["u0","u1","u2"],"window":{"mode":"trailing","trailing_days"'
        ':3}}\n'
    ),
}

# The trailing3 state as format v1 wrote it for an engine that kept no
# per-user hit tables; it must not load.
UNTRACKED_V1 = (
    '{"current_day":3,"day_buffers":{"1":{"n0":{"s":{"b":2},"t":2,"user'
    's":{}},"n1":{"s":{},"t":2,"users":{}},"n2":{"s":{"a":1,"b":2},"t":'
    '2,"users":{}},"n3":{"s":{},"t":2,"users":{}}},"2":{"n0":{"s":{"b":'
    '2},"t":2,"users":{}},"n1":{"s":{"a":1},"t":2,"users":{}},"n2":{"s"'
    ':{"b":2},"t":2,"users":{}},"n3":{"s":{},"t":2,"users":{}}},"3":{"n'
    '0":{"s":{"a":1,"b":2},"t":2,"users":{}},"n1":{"s":{},"t":2,"users"'
    ':{}},"n2":{"s":{"b":1},"t":1,"users":{}},"n3":{"s":{},"t":1,"users'
    '":{}}}},"evicted_through":0,"format_version":1,"nodes":{"n0":{"s":'
    '{"a":1,"b":6},"t":6},"n1":{"s":{"a":1},"t":6},"n2":{"s":{"a":1,"b"'
    ':5},"t":5},"n3":{"s":{},"t":5}},"signals":[{"description":"","sign'
    'al":"a"},{"description":"","signal":"b"}],"totals":{"active_nodes"'
    ':4,"hits":{"a":3,"b":11},"transactions":22},"track_users":false,"w'
    'indow":{"mode":"trailing","trailing_days":3}}\n'
)


def golden_engines():
    """The engines whose checkpoints ``GOLDEN_CHECKPOINTS`` holds."""
    tracked = StreamEngine(SignalRegistry(["a", "b"]), WindowConfig.trailing(3))
    cumulative = StreamEngine(SignalRegistry(["a", "b"]))
    for edge in GOLDEN_EDGES:
        tracked.ingest(edge)
        cumulative.ingest(edge)
    tracked.advance_to(3)
    return {"trailing3": tracked, "cumulative": cumulative}


class TestCheckpointFormat:
    """Format v2 pinned to literal bytes: a change to what the engine holds
    must not change what it writes, nor what it reads back. Format v1
    still loads, and its next save writes v2."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_V2))
    def test_save_writes_the_v2_bytes(self, tmp_path, name):
        path = tmp_path / "state.json"
        golden_engines()[name].save_checkpoint(path)
        assert path.read_text(encoding="utf-8") == GOLDEN_V2[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_V2))
    def test_load_then_save_keeps_the_v2_bytes(self, tmp_path, name):
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        first.write_text(GOLDEN_V2[name], encoding="utf-8")
        StreamEngine.load_checkpoint(first).save_checkpoint(second)
        assert second.read_text(encoding="utf-8") == GOLDEN_V2[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHECKPOINTS))
    def test_v1_load_then_save_writes_the_v2_bytes(self, tmp_path, name):
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        first.write_text(GOLDEN_CHECKPOINTS[name], encoding="utf-8")
        StreamEngine.load_checkpoint(first).save_checkpoint(second)
        assert second.read_text(encoding="utf-8") == GOLDEN_V2[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHECKPOINTS))
    def test_reference_v1_writer_writes_the_v1_bytes(self, name):
        """The v1 tamper tests build their files with ``v1_payload``."""
        text = json.dumps(v1_payload(json.loads(GOLDEN_V2[name])),
                          sort_keys=True, separators=(",", ":"))
        assert text + "\n" == GOLDEN_CHECKPOINTS[name]


def _records(flat, width):
    """A flat row-major checkpoint list as its records, one per column."""
    n = len(flat) // width
    return [list(record) for record in zip(*(flat[i * n:(i + 1) * n]
                                             for i in range(width)))]


def _edit(field, change, day="3"):
    """A tamper that applies ``change`` to the records of ``field`` in a day
    entry of the golden trailing3 checkpoint. With two signals, counts and
    user rows both have four fields."""

    def tamper(payload):
        entry = payload["days"][day]
        records = _records(entry[field], 4)
        change(records)
        entry[field] = [value for row in zip(*records) for value in row]
    return tamper


def _set(field, record, index, value):
    def change(records):
        records[record][index] = value
    return _edit(field, change)


def _rename_day(old, new):
    def tamper(payload):
        payload["days"][new] = payload["days"].pop(old)
    return tamper


def _absent_node(payload):
    """Drop n3, which has no user rows, from day 3; then point n2's user
    row at it."""
    _edit("counts", lambda records: records.pop(3))(payload)
    _set("users", 3, 0, 3)(payload)


def _huge_window(payload):
    """Every count in range, but n0's trials over three days pass 2**63 - 1."""
    for day in "123":
        _edit("counts", lambda records: records[0].__setitem__(1, 2**62),
              day)(payload)


# Day 3 of trailing3 holds counts (node code, t, s_a, s_b) [0, 2, 1, 2],
# [1, 2, 0, 0], [2, 1, 0, 1], [3, 1, 0, 0] and user rows (node code,
# signal code, user code, count) [0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 1],
# [2, 1, 2, 1]; nodes n0..n3, users u0..u2.
T3 = "trailing3"
V2_TAMPERS = {
    "nodes-unsorted": (T3, lambda p: p["nodes"].reverse(), ["node ids must be"]),
    "nodes-repeated": (T3, lambda p: p["nodes"].__setitem__(1, "n0"),
                       ["node ids must be"]),
    "users-empty": (T3, lambda p: p["users"].__setitem__(0, ""), ["user ids must be"]),
    "nodes-not-strings": (T3, lambda p: p["nodes"].__setitem__(0, 0),
                          ["node ids must be"]),
    "counts-ragged": (T3, lambda p: p["days"]["3"]["counts"].pop(),
                      ["day 3", "counts is not a flat list"]),
    "users-ragged": (T3, lambda p: p["days"]["3"]["users"].append(1),
                     ["day 3", "users is not a flat list"]),
    "bool-count": (T3, _set("counts", 2, 1, True), ["day 3", "node 'n2'", "True"]),
    "float-count": (T3, _set("counts", 2, 3, 1.0), ["day 3", "node 'n2'", "1.0"]),
    "count-beyond-int64": (T3, _set("counts", 1, 1, 2**63),
                           ["day 3", "node 'n1'", str(2**63)]),
    "node-code-out-of-range": (T3, _set("counts", 3, 0, 4), ["day 3", "node code 4"]),
    "node-code-repeated": (T3, _set("counts", 1, 0, 0), ["day 3", "node 'n0'"]),
    "zero-trials": (T3, _set("counts", 1, 1, 0), ["day 3", "node 'n1'"]),
    "hits-above-trials": (T3, _set("counts", 3, 3, 2), ["day 3", "node 'n3'"]),
    "negative-hits": (T3, _set("counts", 1, 2, -1), ["day 3", "node 'n1'"]),
    "user-row-of-absent-node": (T3, _absent_node, ["day 3", "node 'n3'"]),
    "user-rows-out-of-order": (T3, _edit("users", lambda r: r.insert(1, r.pop(2))),
                               ["day 3", "node 'n0'"]),
    "user-row-repeated": (T3, _edit("users", lambda r: r.insert(1, list(r[1]))),
                          ["day 3", "node 'n0'"]),
    "user-count-zero": (T3, _set("users", 3, 3, 0), ["day 3", "node 'n2'"]),
    "user-counts-off-hits": (T3, _set("users", 3, 3, 2),
                             ["day 3", "node 'n2'", "do not add up"]),
    "user-code-out-of-range": (T3, _set("users", 3, 2, 3), ["day 3", "node 'n2'"]),
    "signal-code-out-of-range": (T3, _set("users", 3, 1, 2), ["day 3", "node 'n2'"]),
    "day-evicted": (T3, _rename_day("1", "0"), ["day '0'"]),
    "day-after-current": (T3, _rename_day("3", "4"), ["day '4'"]),
    "day-not-canonical": (T3, _rename_day("3", "03"), ["day '03'"]),
    "cumulative-day-not-current": ("cumulative", _rename_day("3", "2"), ["day '2'"]),
    "window-beyond-int64": (T3, _huge_window, ["2**63 - 1"]),
}


class TestCheckpoint:
    def _engine(self, window=None):
        registry = SignalRegistry(["a", "b"])
        engine = StreamEngine(registry, window=window)
        for edge in random_edges(600, seed=51, signals=("a", "b"), days=6):
            engine.ingest(edge)
        return engine

    def test_round_trip_preserves_scores(self, tmp_path):
        engine = self._engine()
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        restored = StreamEngine.load_checkpoint(path)
        assert restored.scores("a") == engine.scores("a")
        assert restored.scores("b") == engine.scores("b")
        assert restored.current_day == engine.current_day

    def test_round_trip_is_byte_stable(self, tmp_path):
        engine = self._engine(window=WindowConfig.trailing(3))
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        engine.save_checkpoint(first)
        StreamEngine.load_checkpoint(first).save_checkpoint(second)
        assert first.read_bytes() == second.read_bytes()

    def test_resume_equals_uninterrupted_run(self, tmp_path):
        registry = SignalRegistry(["sig"])
        edges = random_edges(2000, seed=52, days=10)
        whole = replay_daily(edges, registry, threshold=5.0)

        cut = next(i for i, e in enumerate(edges) if e.day >= 5)
        first_half, second_half = edges[:cut], edges[cut:]
        part_one = replay_daily(first_half, registry, threshold=5.0)
        path = tmp_path / "mid.json"
        part_one.engine.save_checkpoint(path)
        resumed = StreamEngine.load_checkpoint(path)
        part_two = replay_daily(second_half, engine=resumed, threshold=5.0)

        stitched = part_one.days + part_two.days
        assert [d.day for d in stitched] == [d.day for d in whole.days]
        for ours, theirs in zip(stitched, whole.days):
            assert ours.max_z == theirs.max_z
            assert ours.flagged_users == theirs.flagged_users
        assert part_two.engine.scores("sig") == whole.engine.scores("sig")

    def test_resume_preserves_trailing_eviction(self, tmp_path):
        registry = SignalRegistry(["sig"])
        edges = random_edges(2000, seed=53, days=10)
        window = WindowConfig.trailing(2)
        whole = replay_daily(edges, registry, threshold=5.0, window=window)

        cut = next(i for i, e in enumerate(edges) if e.day >= 4)
        part_one = replay_daily(edges[:cut], registry, threshold=5.0, window=window)
        path = tmp_path / "mid.json"
        part_one.engine.save_checkpoint(path)
        part_two = replay_daily(
            edges[cut:], engine=StreamEngine.load_checkpoint(path), threshold=5.0
        )
        assert part_two.engine.scores("sig") == whole.engine.scores("sig")

    def test_tampered_counters_detected(self, tmp_path):
        payload = v1_payload(self._engine().checkpoint_payload())
        assert payload["totals"]["transactions"] == 600
        payload["totals"]["transactions"] = 601
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            StreamEngine.load_checkpoint(path)

    @pytest.mark.parametrize("tamper", [
        {"t": 1.5}, {"t": True}, {"t": 0}, {"t": 2**63, "s": {}},
        {"s": {"a": -1}}, {"s": {"a": 10**6}}, {"s": {"a": False}},
        {"s": {"ghost": 1}},
    ], ids=["float-t", "bool-t", "zero-t", "t-beyond-int64", "negative-s",
            "s-above-t", "bool-s", "unregistered-signal"])
    def test_bad_node_counts_rejected(self, tmp_path, tamper):
        path = tmp_path / "state.json"
        payload = v1_payload(self._engine().checkpoint_payload())
        payload["nodes"]["n000"].update(tamper)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="node 'n000'"):
            StreamEngine.load_checkpoint(path)

    def _small_payload(self, tmp_path, window=None):
        """20 edges on days 0..3: exactly one hit on "a", seven on "b".
        Saved to the returned path as v2, returned as the v1 payload."""
        engine = StreamEngine(SignalRegistry(["a", "b"]), window=window)
        for i in range(20):
            hits = {"a": 1} if i == 7 else {"b": 1} if i % 3 == 0 else {}
            engine.ingest(TransactionEdge(user=f"u{i % 3}", node=f"n{i % 4}",
                                          day=i // 5, hits=hits))
        if window is not None:
            engine.advance_to(3)
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        return path, v1_payload(json.loads(path.read_text()))

    def _load_tampered(self, path, payload):
        path.write_text(json.dumps(payload))
        return StreamEngine.load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [
        ("transactions", 20.0), ("transactions", "20"), ("a", True), ("a", 1.0),
        ("active_nodes", 4.0), ("active_nodes", True),
    ])
    def test_totals_must_be_integers(self, tmp_path, name, value):
        """Each tampered total equals the node-table sum as a number."""
        path, payload = self._small_payload(tmp_path)
        totals = payload["totals"]
        assert (totals["transactions"], totals["hits"]["a"], totals["active_nodes"]) \
            == (20, 1, 4)
        if name in totals:
            totals[name] = value
        else:
            totals["hits"][name] = value
        with pytest.raises(CheckpointError, match=f"total '{name}' is"):
            self._load_tampered(path, payload)

    @pytest.mark.parametrize("window", [None, WindowConfig.trailing(2)],
                             ids=["cumulative", "trailing2"])
    @pytest.mark.parametrize("field, value", [
        ("current_day", True), ("current_day", "3"), ("current_day", 2.0),
        ("current_day", -1), ("current_day", 2**63), ("current_day", None),
        ("evicted_through", True), ("evicted_through", -2), ("evicted_through", 1.0),
    ])
    def test_day_fields_checked(self, tmp_path, window, field, value):
        path, payload = self._small_payload(tmp_path, window)
        payload[field] = value
        with pytest.raises(CheckpointError):
            self._load_tampered(path, payload)

    def test_cumulative_window_evicts_nothing(self, tmp_path):
        path, payload = self._small_payload(tmp_path)
        with pytest.raises(CheckpointError, match="evicts nothing"):
            self._load_tampered(path, {**payload, "evicted_through": 0})
        _, trailing = self._small_payload(tmp_path, WindowConfig.trailing(2))
        buffers = {**payload, "day_buffers": trailing["day_buffers"]}
        with pytest.raises(CheckpointError, match="keeps no day buffers"):
            self._load_tampered(path, buffers)

    @pytest.mark.parametrize("key", ["1", "4", "03", "+3", " 3", "x"])
    def test_buffer_days_lie_inside_the_window(self, tmp_path, key):
        path, payload = self._small_payload(tmp_path, WindowConfig.trailing(2))
        assert (payload["evicted_through"], payload["current_day"]) == (1, 3)
        assert sorted(payload["day_buffers"]) == ["2", "3"]
        payload["day_buffers"][key] = payload["day_buffers"].pop("3")
        with pytest.raises(CheckpointError):
            self._load_tampered(path, payload)

    def test_corrupted_buffer_cannot_drive_totals_negative(self, tmp_path):
        """A buffer that claims 4 more trials than its node holds used to
        load, and evicting it drove ``total_transactions`` to -4."""
        path, payload = self._small_payload(tmp_path, WindowConfig.trailing(2))
        for node, delta in payload["day_buffers"]["2"].items():
            delta["t"] += 4
            break
        with pytest.raises(CheckpointError, match=f"day buffers of node '{node}'"):
            self._load_tampered(path, payload)

    @pytest.mark.parametrize("tamper", [
        "t-plus-one", "s-plus-one", "drop-buffer-entry", "ghost-buffer-node",
        "user-renamed", "user-moved-between-days",
    ])
    def test_buffers_must_add_up_to_the_node_table(self, tmp_path, tamper):
        path, payload = self._small_payload(tmp_path, WindowConfig.trailing(2))
        day2, day3 = payload["day_buffers"]["2"], payload["day_buffers"]["3"]
        node = next(n for n, d in day2.items() if d["s"].get("b") and n in day3)
        delta = day2[node]
        user = next(iter(delta["users"]["b"]))
        if tamper == "t-plus-one":
            delta["t"] += 1
        elif tamper == "s-plus-one":
            delta["s"]["b"] += 1
            delta["users"]["b"][user] += 1
        elif tamper == "drop-buffer-entry":
            del day2[node]
        elif tamper == "ghost-buffer-node":
            day2["ghost"] = {"t": 1, "s": {}, "users": {}}
        elif tamper == "user-renamed":
            delta["users"]["b"]["stranger"] = delta["users"]["b"].pop(user)
        else:
            count = delta["users"]["b"].pop(user)
            moved = day3[node]["users"].setdefault("b", {})
            moved[user] = moved.get(user, 0) + count
            day3[node]["s"]["b"] = day3[node]["s"].get("b", 0) + count
            day3[node]["t"] += count
            delta["s"]["b"] -= count
            delta["t"] -= count
            if not delta["users"]["b"]:
                del delta["users"]["b"]
                del delta["s"]["b"]
        with pytest.raises(CheckpointError):
            self._load_tampered(path, payload)

    @pytest.mark.parametrize("where", ["node", "buffer"])
    @pytest.mark.parametrize("tamper", [
        "zero", "negative", "float", "bool", "fabricated-user", "missing-users",
        "unregistered-signal",
    ])
    def test_user_tables_checked(self, tmp_path, where, tamper):
        path, payload = self._small_payload(tmp_path, WindowConfig.trailing(2))
        if where == "node":
            entry = next(e for e in payload["nodes"].values() if e["s"].get("b"))
        else:
            entry = next(d for d in payload["day_buffers"]["3"].values()
                         if d["s"].get("b"))
        table = entry["users"]["b"]
        user = next(iter(table))
        if tamper == "fabricated-user":
            table["stranger"] = 1
        elif tamper == "missing-users":
            del entry["users"]["b"]
        elif tamper == "unregistered-signal":
            entry["users"]["ghost"] = {}
        else:
            table[user] = {"zero": 0, "negative": -1, "float": float(table[user]),
                           "bool": True}[tamper]
        with pytest.raises(CheckpointError, match="(users|user|hit count)"):
            self._load_tampered(path, payload)

    @pytest.mark.parametrize("where", ["node", "buffer"])
    def test_empty_user_tables_dropped_on_load(self, tmp_path, where):
        """A signal without hits may hold an empty user table; it loads,
        and is not written back."""
        path, payload = self._small_payload(tmp_path, WindowConfig.trailing(2))
        saved = path.read_text()
        entries = (payload["nodes"] if where == "node"
                   else payload["day_buffers"]["3"]).values()
        entry = next(e for e in entries if not e["s"].get("a"))
        entry["users"]["a"] = {}
        self._load_tampered(path, payload).save_checkpoint(path)
        assert path.read_text() == saved

    @pytest.mark.parametrize("case", sorted(V2_TAMPERS))
    def test_v2_tampering_rejected(self, tmp_path, case):
        """Each v2 tamper fails with an error naming the file and, where
        there is one, the day and the node."""
        name, tamper, parts = V2_TAMPERS[case]
        payload = json.loads(GOLDEN_V2[name])
        tamper(payload)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as raised:
            StreamEngine.load_checkpoint(path)
        for part in (str(path), *parts):
            assert part in str(raised.value)

    def test_unsupported_version_rejected(self, tmp_path):
        engine = self._engine()
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        version = f'"format_version":{engine_module.CHECKPOINT_VERSION}'
        payload = path.read_text().replace(version, '"format_version":99')
        path.write_text(payload)
        with pytest.raises(CheckpointError):
            StreamEngine.load_checkpoint(path)

    @pytest.mark.parametrize("failure", ["mid-write", "replace"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, failure):
        engine = self._engine()
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        before = path.read_bytes()
        engine.ingest(TransactionEdge(user="u", node="n", day=9, hits={"a": 1}))

        def crash(*args, **kwargs):
            raise OSError("simulated crash")

        if failure == "mid-write":
            crash_mid_write(monkeypatch)
        else:
            monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            engine.save_checkpoint(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError):
            StreamEngine.load_checkpoint(path)
