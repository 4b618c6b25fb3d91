"""Generator tests: determinism, statistical calibration, attack structure,
config validation, and preset plumbing.
"""

import math
from dataclasses import asdict, replace
from itertools import groupby
from operator import attrgetter

import pytest

from signalamp.edgefile import read_edge_file, write_edge_file
from signalamp.errors import InfeasibleScenarioError
from signalamp.model import SignalRegistry
from signalamp.scenario import (
    PRESETS,
    AttackConfig,
    ScenarioConfig,
    generate,
    preset,
    scenario_from_dict,
)


def small_config(seed=5, attack=None, **overrides):
    base = dict(
        seed=seed,
        days=4,
        n_users=2000,
        n_nodes=40,
        background_txn_per_user_per_day=0.5,
        background_rates={"sig": 0.1},
        attack=attack,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def small_attack(**overrides):
    base = dict(
        n_sybil=50,
        k_cashout=4,
        start_day=1,
        end_day=3,
        txn_per_sybil_per_day=5.0,
        sybil_rates={"sig": 0.8},
    )
    base.update(overrides)
    return AttackConfig(**base)


class TestDeterminism:
    def test_same_config_identical_output(self):
        config = small_config(attack=small_attack())
        edges_a, truth_a = generate(config)
        edges_b, truth_b = generate(config)
        assert list(edges_a) == list(edges_b)
        assert truth_a.sybil_users == truth_b.sybil_users
        assert truth_a.cashout_nodes == truth_b.cashout_nodes
        assert truth_a.carriers == truth_b.carriers

    def test_different_seed_different_traffic(self):
        edges_a, _ = generate(small_config(seed=5))
        edges_b, _ = generate(small_config(seed=6))
        assert list(edges_a) != list(edges_b)

    def test_day_blocks_do_not_depend_on_horizon(self):
        """Per-day keyed randomness: a longer run extends a shorter one."""
        attack = small_attack()
        short = small_config(days=4, attack=attack)
        long = small_config(days=7, attack=attack)
        edges_short, truth_short = generate(short)
        edges_long, truth_long = generate(long)
        prefix = [e for e in edges_long if e.day < 4]
        assert list(edges_short) == prefix
        assert truth_short.carriers == truth_long.carriers

    def test_edges_come_out_day_ordered(self):
        edges, _ = generate(small_config(attack=small_attack()))
        days = [e.day for e in edges]
        assert days == sorted(days)


class TestBackgroundStatistics:
    def test_volume_near_expected(self):
        config = small_config()
        edges, _ = generate(config)
        lam = config.n_users * config.background_txn_per_user_per_day
        expected = lam * config.days
        assert abs(len(edges) - expected) < 4 * math.sqrt(expected)

    def test_hit_rate_near_configured(self):
        config = small_config()
        edges, _ = generate(config)
        realized = sum(e.hits.get("sig", 0) for e in edges) / len(edges)
        sigma = math.sqrt(0.1 * 0.9 / len(edges))
        assert abs(realized - 0.1) < 4 * sigma

    def test_zero_traffic_rate_gives_no_edges(self):
        edges, truth = generate(
            small_config(background_txn_per_user_per_day=0.0)
        )
        assert list(edges) == []
        assert truth.sybil_users == frozenset()

    def test_popularity_skew_concentrates_traffic(self):
        config = small_config(popularity_skew=2.0)
        edges, _ = generate(config)
        counts = {}
        for e in edges:
            counts[e.node] = counts.get(e.node, 0) + 1
        top = counts.get("m00", 0)
        tail = counts.get("m39", 0)
        assert top > 10 * max(tail, 1)

    def test_zero_skew_is_roughly_uniform(self):
        config = small_config(popularity_skew=0.0)
        edges, _ = generate(config)
        counts = {}
        for e in edges:
            counts[e.node] = counts.get(e.node, 0) + 1
        mean = len(edges) / config.n_nodes
        assert all(abs(c - mean) < 6 * math.sqrt(mean) for c in counts.values())


class TestAttackStructure:
    def test_truth_empty_without_attack(self):
        edges, truth = generate(small_config())
        assert truth.sybil_users == frozenset()
        assert truth.cashout_nodes == frozenset()
        assert truth.carriers == {"sig": frozenset()}
        assert all(e.user.startswith("u") for e in edges)
        assert all(e.node.startswith("m") for e in edges)

    def test_namespaces_are_disjoint(self):
        edges, truth = generate(small_config(attack=small_attack()))
        users = {e.user for e in edges}
        nodes = {e.node for e in edges}
        assert truth.sybil_users <= {u for u in users if u.startswith("s")}
        assert truth.cashout_nodes == {n for n in nodes if n.startswith("c")}
        assert not truth.sybil_users & {u for u in users if u.startswith("u")}

    def test_attack_confined_to_window(self):
        edges, _ = generate(small_config(attack=small_attack()))
        sybil_days = {e.day for e in edges if e.user.startswith("s")}
        assert sybil_days <= {1, 2, 3}

    def test_full_mix_sends_all_sybil_edges_to_cashout(self):
        attack = small_attack(cashout_mix=1.0)
        edges, truth = generate(small_config(attack=attack))
        sybil_edges = [e for e in edges if e.user.startswith("s")]
        assert sybil_edges
        assert {e.node for e in sybil_edges} <= truth.cashout_nodes

    def test_zero_mix_keeps_cashout_nodes_cold(self):
        attack = small_attack(cashout_mix=0.0)
        edges, truth = generate(small_config(attack=attack))
        sybil_edges = [e for e in edges if e.user.startswith("s")]
        assert sybil_edges
        assert not {e.node for e in sybil_edges} & truth.cashout_nodes

    def test_certain_signal_marks_every_transacting_sybil(self):
        attack = small_attack(sybil_rates={"sig": 1.0})
        edges, truth = generate(small_config(attack=attack))
        transacting = {e.user for e in edges if e.user.startswith("s")}
        assert truth.carriers["sig"] == transacting
        assert all(
            e.hits.get("sig") == 1 for e in edges if e.user.startswith("s")
        )

    def test_realized_sybil_rate_near_q(self):
        edges, _ = generate(small_config(attack=small_attack()))
        sybil_edges = [e for e in edges if e.user.startswith("s")]
        realized = sum(e.hits.get("sig", 0) for e in sybil_edges) / len(sybil_edges)
        sigma = math.sqrt(0.8 * 0.2 / len(sybil_edges))
        assert abs(realized - 0.8) < 4 * sigma

    def test_carriers_limited_to_sybils_that_hit(self):
        edges, truth = generate(small_config(attack=small_attack()))
        observed = {
            e.user for e in edges
            if e.user.startswith("s") and e.hits.get("sig")
        }
        assert truth.carriers["sig"] == observed
        assert truth.carriers["sig"] <= truth.sybil_users

    def test_camouflage_blends_into_background_nodes(self):
        attack = small_attack(
            txn_per_sybil_per_day=0.0,
            camouflage_txn_per_sybil_per_day=3.0,
        )
        edges, truth = generate(small_config(attack=attack))
        sybil_edges = [e for e in edges if e.user.startswith("s")]
        assert sybil_edges
        assert all(e.node.startswith("m") for e in sybil_edges)
        realized = sum(e.hits.get("sig", 0) for e in sybil_edges) / len(sybil_edges)
        assert abs(realized - 0.1) < 4 * math.sqrt(0.1 * 0.9 / len(sybil_edges))

    def test_cashout_from_background_reuses_existing_nodes(self):
        attack = small_attack(cashout_from_background=True)
        edges, truth = generate(small_config(attack=attack))
        assert len(truth.cashout_nodes) == attack.k_cashout
        assert all(n.startswith("m") for n in truth.cashout_nodes)
        again = generate(small_config(attack=attack))[1]
        assert again.cashout_nodes == truth.cashout_nodes

    def test_zero_sybils_means_no_attack(self):
        attack = small_attack(n_sybil=0)
        edges, truth = generate(small_config(attack=attack))
        assert truth.sybil_users == frozenset()
        assert all(e.user.startswith("u") for e in edges)


class TestColumnsOutput:
    @pytest.mark.parametrize("from_background", [False, True])
    def test_codes_index_the_full_name_tables(self, from_background):
        attack = small_attack(cashout_from_background=from_background)
        edges, truth = generate(small_config(attack=attack))
        assert edges.users == [f"u{i:04d}" for i in range(2000)] + [
            f"s{i:02d}" for i in range(50)]
        planted = [] if from_background else ["c0", "c1", "c2", "c3"]
        assert edges.nodes == [f"m{i:02d}" for i in range(40)] + planted
        assert truth.cashout_nodes <= set(edges.nodes)
        assert edges.signals == ("sig",) and edges.hits.shape == (1, len(edges))

    def test_file_holds_the_same_edges(self, tmp_path):
        """Written whole or a day at a time from ``groupby`` iterators, as
        the benchmark's load generator does, the file reads back as the
        edges."""
        edges, _ = generate(small_config(attack=small_attack()))
        path = tmp_path / "edges.csv"
        assert write_edge_file(path, edges, ["sig"]) == len(edges)
        signals, columns = read_edge_file(path)
        assert signals == ["sig"] and list(columns) == list(edges)
        days = []
        for day, day_edges in groupby(edges, key=attrgetter("day")):
            write_edge_file(path, day_edges, ["sig"])
            days.append(list(read_edge_file(path)[1]))
        assert [edge for day in days for edge in day] == list(edges)


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"days": 0},
        {"n_users": 0},
        {"n_nodes": 0},
        {"background_txn_per_user_per_day": -0.1},
        {"background_txn_per_user_per_day": float("nan")},
        {"background_txn_per_user_per_day": float("inf")},
        {"background_txn_per_user_per_day": 1000.5},
        {"popularity_skew": -1.0},
        {"popularity_skew": float("nan")},
        {"background_rates": {}},
        {"background_rates": {"sig": 1.5}},
        {"background_rates": {"sig": -0.1}},
        {"background_rates": {"": 0.1}},
        {"background_rates": [0.1]},
        {"seed": 1.5},
        {"days": 2.5},
        {"n_users": True},
        {"n_nodes": 40.0},
    ])
    def test_bad_scenario_rejected(self, overrides):
        with pytest.raises(InfeasibleScenarioError):
            small_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"n_sybil": -1},
        {"k_cashout": 0},
        {"k_cashout": 41},
        {"start_day": -1},
        {"start_day": 3, "end_day": 1},
        {"end_day": 4},
        {"txn_per_sybil_per_day": -1.0},
        {"camouflage_txn_per_sybil_per_day": -0.5},
        {"txn_per_sybil_per_day": float("nan")},
        {"camouflage_txn_per_sybil_per_day": 1e30},
        {"cashout_mix": 1.01},
        {"sybil_rates": {"sig": 2.0}},
        {"sybil_rates": {"other": 0.5}},
        {"sybil_rates": {"sig": 0.5, "extra": 0.5}},
        {"sybil_rates": [0.5]},
        {"n_sybil": 50.0},
        {"k_cashout": True},
        {"start_day": 1.0},
        {"end_day": "3"},
    ])
    def test_bad_attack_rejected(self, overrides):
        with pytest.raises(InfeasibleScenarioError):
            small_config(attack=small_attack(**overrides))


class TestConfigPlumbing:
    def test_registry_order_follows_rate_declaration(self):
        config = small_config(
            background_rates={"b_sig": 0.1, "a_sig": 0.2},
            attack=None,
        )
        assert SignalRegistry(config.signals).ids() == ("b_sig", "a_sig")

    def test_dict_round_trip_with_attack(self):
        config = small_config(attack=small_attack(cashout_mix=0.7))
        assert scenario_from_dict(asdict(config)) == config

    def test_dict_round_trip_without_attack(self):
        config = small_config()
        assert scenario_from_dict(asdict(config)) == config

    def test_missing_field_rejected(self):
        data = asdict(small_config())
        del data["n_users"]
        with pytest.raises(InfeasibleScenarioError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("data", [[1], "scenario", None])
    def test_non_object_rejected(self, data):
        with pytest.raises(InfeasibleScenarioError, match="must be an object"):
            scenario_from_dict(data)

    def test_unknown_attack_key_rejected(self):
        data = asdict(small_config(attack=small_attack()))
        data["attack"]["surprise"] = 1
        with pytest.raises(InfeasibleScenarioError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key, typo", [("attack", "atack"),
                                           ("popularity_skew", "popularity_skw")])
    def test_misspelled_top_level_key_rejected(self, key, typo):
        """A misspelled block or field fails rather than falling back to
        calm traffic or to the default skew."""
        data = asdict(small_config(attack=small_attack(), popularity_skew=0.5))
        data[typo] = data.pop(key)
        with pytest.raises(InfeasibleScenarioError, match=repr(typo)):
            scenario_from_dict(data)

    def test_with_seed_changes_only_seed(self):
        config = small_config(attack=small_attack())
        reseeded = replace(config, seed=99)
        assert reseeded.seed == 99
        assert asdict(reseeded) == {
            **asdict(config), "seed": 99,
        }


class TestPresets:
    def test_known_names(self):
        assert set(PRESETS) == {"case1-desk", "case2-desk", "calm"}

    def test_unknown_name_rejected(self):
        with pytest.raises(InfeasibleScenarioError):
            preset("case3-desk")

    def test_seed_override(self):
        assert preset("calm", seed=123).seed == 123
        assert preset("calm").seed == 3

    def test_case1_shape(self):
        config = preset("case1-desk")
        atk = config.attack
        assert atk is not None
        assert atk.n_sybil / atk.k_cashout >= 20
        assert atk.sybil_rates["use_promo"] > config.background_rates["use_promo"]
        assert atk.sybil_rates["device_spoofing"] == pytest.approx(
            config.background_rates["device_spoofing"]
        )

    def test_case2_shape(self):
        config = preset("case2-desk")
        atk = config.attack
        assert atk is not None
        assert atk.k_cashout <= 5
        assert atk.sybil_rates["foreign_ip"] == pytest.approx(
            config.background_rates["foreign_ip"]
        )

    def test_calm_has_no_attack(self):
        assert preset("calm").attack is None
