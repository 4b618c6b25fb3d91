"""Domain type tests: signal registry, counter algebra, edge files."""

import itertools
import json

import numpy as np
import pytest

from signalamp.edgefile import (
    read_edge_file,
    read_ground_truth,
    write_edge_file,
    write_ground_truth,
)
from signalamp.engine import StreamEngine
from signalamp.errors import DuplicateSignalError, EdgeFileError, UnknownSignalError
from signalamp.model import EdgeColumns, GlobalBaseline, SignalRegistry, TransactionEdge
from signalamp.scenario import GroundTruth

from reference import crash_mid_write, split_run


class TestSignalRegistry:
    def test_registration_order_is_preserved(self):
        registry = SignalRegistry()
        registry.register("use_promo", "promo code attached")
        registry.register("device_spoofing")
        assert registry.ids() == ("use_promo", "device_spoofing")
        assert registry.describe("use_promo").description == "promo code attached"

    def test_duplicate_registration_rejected(self):
        registry = SignalRegistry(["use_promo"])
        with pytest.raises(DuplicateSignalError):
            registry.register("use_promo")

    def test_unknown_signal_lookup_rejected(self):
        registry = SignalRegistry(["use_promo"])
        with pytest.raises(UnknownSignalError):
            registry.describe("foreign_ip")
        with pytest.raises(UnknownSignalError):
            StreamEngine(registry).total_hits("foreign_ip")

    def test_membership_and_len(self):
        registry = SignalRegistry(["a", "b"])
        assert "a" in registry and "c" not in registry
        assert len(registry.ids()) == 2
        assert list(registry.ids()) == ["a", "b"]

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            SignalRegistry([""])

    @pytest.mark.parametrize("signal", [5, None, b"a", ("a",)])
    def test_non_string_id_rejected(self, signal):
        with pytest.raises(ValueError, match="must be a non-empty string"):
            SignalRegistry([signal])
        registry = SignalRegistry(["a"])
        with pytest.raises(ValueError, match="must be a non-empty string"):
            registry.register(signal)
        assert registry.ids() == ("a",)


class TestTransactionEdge:
    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            TransactionEdge(user="u1", node="n1", day=-1, hits={})

    @pytest.mark.parametrize("day", [1.5, 1.0, True, "1", None, 2**63, -(2**63)])
    def test_day_outside_int64_or_not_an_integer_rejected(self, day):
        with pytest.raises(ValueError, match=r"integer in \[0, 2\*\*63 - 1\]"):
            TransactionEdge(user="u1", node="n1", day=day, hits={})

    @pytest.mark.parametrize("day", [0, 2**63 - 1, np.int64(7), np.uint8(3)])
    def test_integer_days_in_range_accepted(self, day):
        assert TransactionEdge(user="u1", node="n1", day=day, hits={}).day == day

    def test_checked_inputs_survive_a_checkpoint_round_trip(self, tmp_path):
        """Every id and day a library caller can construct saves and loads."""
        engine = StreamEngine(SignalRegistry(["a", "b"]))
        engine.ingest(TransactionEdge(user="u1", node="n1", day=2**63 - 2, hits={"a": 1}))
        engine.ingest(TransactionEdge(user="u2", node="n2", day=2**63 - 1, hits={"b": 1}))
        engine.save_checkpoint(tmp_path / "state.json")
        loaded = StreamEngine.load_checkpoint(tmp_path / "state.json")
        assert loaded.checkpoint_payload() == engine.checkpoint_payload()
        assert loaded.current_day == 2**63 - 1
        assert loaded.registry.ids() == ("a", "b")

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            TransactionEdge(user="", node="n1", day=0, hits={})
        with pytest.raises(ValueError):
            TransactionEdge(user="u1", node="", day=0, hits={})

    def test_unregistered_signal_rejected_at_aggregation(self):
        engine = StreamEngine(SignalRegistry(["use_promo"]))
        edge = TransactionEdge(user="u1", node="n1", day=0, hits={"mystery": 1})
        with pytest.raises(UnknownSignalError):
            engine.ingest(edge)


def node_tally(engine, node):
    return next(acc for acc in engine.accumulators() if acc.node == node)


class TestNodeAccumulator:
    """The engine's ingest is the only fold into a node tally."""

    def test_add_counts_shared_trials_and_per_signal_hits(self):
        engine = StreamEngine(SignalRegistry(["a", "b"]))
        engine.ingest(TransactionEdge(user="u1", node="n1", day=0, hits={"a": 1}))
        engine.ingest(TransactionEdge(user="u2", node="n1", day=0, hits={}))
        engine.ingest(TransactionEdge(user="u3", node="n1", day=1, hits={"a": 1, "b": 1}))
        acc = node_tally(engine, "n1")
        assert acc.trials == 3
        assert acc.hits == {"a": 2, "b": 1}

    def test_hits_never_exceed_trials(self):
        rng = np.random.default_rng(5)
        engine = StreamEngine(SignalRegistry(["a"]))
        for _ in range(500):
            hits = {"a": 1} if rng.random() < 0.5 else {}
            engine.ingest(TransactionEdge(user="u", node="n1", day=0, hits=hits))
            acc = node_tally(engine, "n1")
            assert 0 <= acc.hits.get("a", 0) <= acc.trials


def tally_edges(trials, hits, signal="sig"):
    """``trials`` edges into node v, the first ``hits`` of them hit-carrying."""
    return [
        TransactionEdge(user=f"u{i % 2}", node="v", day=0,
                        hits={signal: 1} if i < hits else {})
        for i in range(trials)
    ]


class TestMergeAlgebra:
    """Resuming from a checkpoint merges tallies like addition: identity,
    associative, commutative."""

    def _tallies(self):
        # every (trials, hits) pair with trials <= 3, one signal
        return [(t, h) for t in range(4) for h in range(t + 1)]

    def test_example_sum(self, tmp_path):
        engine = split_run(SignalRegistry(["sig"]), tally_edges(10, 3),
                           tally_edges(5, 2), tmp_path / "ckpt.json")
        merged = node_tally(engine, "v")
        assert merged.trials == 15
        assert merged.hits == {"sig": 5}

    def test_identity_element(self, tmp_path):
        registry = SignalRegistry(["sig"])
        path = tmp_path / "ckpt.json"
        for trials, hits in self._tallies():
            edges = tally_edges(trials, hits)
            whole = StreamEngine(registry)
            for edge in edges:
                whole.ingest(edge)
            want = whole.checkpoint_payload()
            assert split_run(registry, [], edges, path).checkpoint_payload() == want
            assert split_run(registry, edges, [], path).checkpoint_payload() == want

    def test_commutative_exhaustive(self, tmp_path):
        registry = SignalRegistry(["sig"])
        path = tmp_path / "ckpt.json"
        for a, b in itertools.product(self._tallies(), repeat=2):
            ab = split_run(registry, tally_edges(*a), tally_edges(*b), path)
            ba = split_run(registry, tally_edges(*b), tally_edges(*a), path)
            assert ab.checkpoint_payload() == ba.checkpoint_payload()

    def test_associative_exhaustive(self, tmp_path):
        registry = SignalRegistry(["sig"])
        path = tmp_path / "ckpt.json"
        for a, b, c in itertools.product(self._tallies(), repeat=3):
            ea, eb, ec = tally_edges(*a), tally_edges(*b), tally_edges(*c)
            left = split_run(registry, ea + eb, ec, path)
            right = split_run(registry, ea, eb + ec, path)
            assert left.checkpoint_payload() == right.checkpoint_payload()

    def test_mixed_signals_merge_keywise(self, tmp_path):
        engine = split_run(SignalRegistry(["x", "y"]), tally_edges(4, 2, "x"),
                           tally_edges(6, 3, "y"), tmp_path / "ckpt.json")
        merged = node_tally(engine, "v")
        assert merged.hits == {"x": 2, "y": 3}
        assert merged.trials == 10

    def test_merge_leaves_inputs_untouched(self, tmp_path):
        path = tmp_path / "ckpt.json"
        merged = split_run(SignalRegistry(["x"]), tally_edges(4, 2, "x"),
                           tally_edges(6, 3, "x"), path)
        assert node_tally(merged, "v").trials == 10
        again = node_tally(StreamEngine.load_checkpoint(path), "v")
        assert (again.trials, again.hits) == (4, {"x": 2})


class TestGlobalBaseline:
    def test_derivations_are_pure_functions_of_totals(self):
        one = GlobalBaseline("sig", 7, 140, 14)
        two = GlobalBaseline("sig", 7, 140, 14)
        assert one.rate == two.rate == 0.05
        assert one.prior_strength == two.prior_strength == 10.0

    def test_invalid_totals_rejected(self):
        with pytest.raises(ValueError):
            GlobalBaseline("sig", 5, 0, 1)
        with pytest.raises(ValueError):
            GlobalBaseline("sig", 11, 10, 1)
        with pytest.raises(ValueError):
            GlobalBaseline("sig", 1, 10, 0)


class TestEdgeFile:
    def _edges(self):
        return [
            TransactionEdge(user="u1", node="n1", day=0, hits={"a": 1}),
            TransactionEdge(user="u2", node="n1", day=0, hits={}),
            TransactionEdge(user="u1", node="n2", day=3, hits={"a": 1, "b": 1}),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        count = write_edge_file(path, self._edges(), ["a", "b"])
        assert count == 3
        signals, edges = read_edge_file(path)
        assert signals == ["a", "b"]
        assert list(edges) == self._edges()

    def test_header_names_signals_in_registry_order(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_file(path, self._edges(), ["b", "a"])
        first_line = path.read_text().splitlines()[0]
        assert first_line == "user,node,day,b,a"

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(
            "user,node,day,a\n"
            "u1,n1,0,1\n"
            "u2,n1,zero,0\n"
            "u3,n1,2,7\n"
        )
        with pytest.raises(EdgeFileError) as err:
            read_edge_file(path)
        message = str(err.value)
        assert "line 3" in message and "line 4" in message

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("uid,node,day,a\nu1,n1,0,1\n")
        with pytest.raises(EdgeFileError):
            read_edge_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("")
        with pytest.raises(EdgeFileError):
            read_edge_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(EdgeFileError):
            read_edge_file(tmp_path / "nope.csv")

    def test_negative_day_reported(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("user,node,day,a\nu1,n1,-4,1\n")
        with pytest.raises(EdgeFileError) as err:
            read_edge_file(path)
        assert "line 2" in str(err.value)

    def test_hit_on_a_signal_outside_the_columns_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        edges = self._edges()
        with pytest.raises(UnknownSignalError, match="'b'"):
            write_edge_file(path, edges, ["a"])
        columns = EdgeColumns.from_edges(edges, ["a", "b"])
        with pytest.raises(UnknownSignalError, match="'b'"):
            write_edge_file(path, columns, ["a"])
        assert not path.exists()
        write_edge_file(path, columns[:2], ["a"])  # no edge of the slice hits b
        assert list(read_edge_file(path)[1]) == edges[:2]

    @pytest.mark.parametrize("signals", [["a", "a"], ["a", ""]])
    def test_unreadable_signal_columns_rejected(self, tmp_path, signals):
        path = tmp_path / "edges.csv"
        with pytest.raises(ValueError, match="distinct and non-empty"):
            write_edge_file(path, self._edges()[:2], signals)
        assert not path.exists()

    def test_ground_truth_round_trip(self, tmp_path):
        truth = GroundTruth(frozenset({"s1", "s0"}), frozenset({"c0"}),
                            {"a": frozenset({"s1"}), "b": frozenset()})
        write_ground_truth(tmp_path / "truth.json", truth)
        assert read_ground_truth(tmp_path / "truth.json") == truth

    @pytest.mark.parametrize("payload, field", [
        ([], "JSON object"),
        ({"cashout_nodes": [], "carriers": {}}, "sybil_users"),
        ({"sybil_users": "abc", "cashout_nodes": [], "carriers": {}}, "sybil_users"),
        ({"sybil_users": [], "cashout_nodes": [1], "carriers": {}}, "cashout_nodes"),
        ({"sybil_users": [], "cashout_nodes": [], "carriers": []}, "carriers"),
        ({"sybil_users": [], "cashout_nodes": [], "carriers": {"a": "s0"}},
         "carriers['a']"),
        ({"sybil_users": [], "cashout_nodes": [], "carriers": {"a": [None]}},
         "carriers['a']"),
    ])
    def test_malformed_ground_truth_names_file_and_field(self, tmp_path, payload, field):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(EdgeFileError) as err:
            read_ground_truth(path)
        assert str(path) in str(err.value) and field in str(err.value)

    def test_failed_edge_file_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "edges.csv"
        write_edge_file(path, self._edges(), ["a", "b"])
        before = path.read_bytes()
        crash_mid_write(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            write_edge_file(path, self._edges()[:2], ["a"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["edges.csv"]

    def test_failed_ground_truth_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "truth.json"
        write_ground_truth(path, GroundTruth(frozenset({"s0"}), frozenset(), {}))
        before = path.read_bytes()
        crash_mid_write(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            write_ground_truth(path, GroundTruth(frozenset(), frozenset({"c0"}), {}))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["truth.json"]

    def test_columns_written_in_any_signal_order(self, tmp_path):
        path = tmp_path / "edges.csv"
        columns = EdgeColumns.from_edges(self._edges(), ["a", "b"])
        assert write_edge_file(path, iter(self._edges()), ["b", "a", "c"]) == 3
        from_objects = path.read_bytes()
        assert write_edge_file(path, columns, ["b", "a", "c"]) == 3
        assert path.read_bytes() == from_objects
        assert from_objects.decode().splitlines() == [
            "user,node,day,b,a,c", "u1,n1,0,0,1,0", "u2,n1,0,0,0,0", "u1,n2,3,1,1,0",
        ]
