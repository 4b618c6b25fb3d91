"""Stream engine tests: counter conservation, equivalence with the batch
pipeline, trailing-window eviction, checkpointing, and replay semantics.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from signalamp.amplify import compute_baseline, score_all
from signalamp.engine import StreamEngine, WindowConfig, replay_daily
from signalamp.errors import (
    CheckpointError,
    DegenerateBaselineError,
    UnknownNodeError,
    UnknownSignalError,
    UnsortedEdgesError,
)
from signalamp.model import SignalRegistry, TransactionEdge

from reference import reference_fold


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
    return score_all(nodes.values(), compute_baseline(nodes.values(), signal))


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
                    x.hit_count(signal) for x in accs
                )
            assert engine.active_node_count == len(accs)


class TestStreamEqualsBatch:
    def test_bit_exact_scores_after_full_stream(self):
        registry = SignalRegistry(["sig"])
        edges = random_edges(3000, seed=11)
        engine = StreamEngine(registry, track_users=False)
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
            engine = StreamEngine(registry, track_users=False)
            for edge in shuffled:
                engine.ingest(edge)
            scores = engine.scores("sig")
            if baseline_scores is None:
                baseline_scores = scores
            else:
                assert scores == baseline_scores

    def test_query_score_matches_batch(self):
        registry = SignalRegistry(["sig"])
        edges = random_edges(800, seed=13)
        engine = StreamEngine(registry)
        for edge in edges:
            engine.ingest(edge)
        by_node = {s.node: s for s in batch_scores(edges, "sig")}
        for node, want in by_node.items():
            assert engine.query_score(node, "sig") == want

    def test_unknown_node_rejected(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={}))
        with pytest.raises(UnknownNodeError):
            engine.query_score("ghost", "sig")

    def test_single_all_hit_edge_leaves_signal_inactive(self):
        engine = StreamEngine(SignalRegistry(["sig"]))
        engine.ingest(TransactionEdge(user="u", node="n", day=0, hits={"sig": 1}))
        with pytest.raises(DegenerateBaselineError):
            engine.query_score("n", "sig")


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
            assert engine.total_hits("sig") == sum(x.hit_count("sig") for x in accs)

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


class TestReplayDaily:
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
        users = result.flagged_users_over_run("sig")
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

    def test_degenerate_day_reported_inactive(self):
        registry = SignalRegistry(["sig"])
        edges = [TransactionEdge(user="u1", node="n1", day=0, hits={"sig": 1})]
        result = replay_daily(edges, registry, threshold=40.0)
        outcome = result.days[0]
        assert outcome.inactive_signals == ("sig",)
        assert outcome.max_z["sig"] is None
        assert outcome.alerts["sig"] == []


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
        engine = self._engine()
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        payload = path.read_text().replace('"transactions":600', '"transactions":601')
        path.write_text(payload)
        with pytest.raises(CheckpointError):
            StreamEngine.load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        engine = self._engine()
        path = tmp_path / "state.json"
        engine.save_checkpoint(path)
        payload = path.read_text().replace(
            '"format_version":1', '"format_version":99'
        )
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
            write_text = Path.write_text

            def half_write(self, text, *args, **kwargs):
                write_text(self, text[: len(text) // 2], *args, **kwargs)
                crash()

            monkeypatch.setattr(Path, "write_text", half_write)
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
