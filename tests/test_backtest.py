"""Metric arithmetic against hand-computed fixtures, sweep and series
behavior, and the assembled backtest report.
"""

import math

import numpy as np
import pytest

from signalamp.amplify import NodeScore
from signalamp.backtest import (
    AcceptanceBounds,
    MetricsRow,
    RawSignalBaseline,
    amplification_factor,
    check_bounds,
    compute_metrics,
    daily_series,
    metrics_from_counts,
    raw_signal_baseline,
    run_backtest,
    threshold_sweep,
    write_csv,
    write_report_files,
)
from signalamp.edgefile import read_edge_file
from signalamp.engine import replay_daily
from signalamp.model import EdgeColumns, SignalRegistry, TransactionEdge
from signalamp.scenario import (
    AttackConfig,
    GroundTruth,
    ScenarioConfig,
    generate,
)

from reference import crash_mid_write

ABS = 1e-4  # rates are quoted to two decimal places in percent


def make_score(node, z, trials=100, hits=30):
    return NodeScore(
        node=node, signal="sig", hits=hits, trials=trials,
        raw_rate=hits / trials, shrunk_rate=hits / trials, z=z,
    )


class TestFrozenRateFixtures:
    """Count combinations with independently hand-checked rates.

    Each row freezes (flagged_users, caught) for one threshold against a
    fixed carrier and cohort census; expected percentages were computed
    by hand and are asserted to 0.01 percentage points.
    """

    @pytest.mark.parametrize(
        "threshold,flagged,caught,precision",
        [
            (1.0, 3956, 3329, 0.8415),
            (5.0, 3843, 3329, 0.8663),
            (10.0, 3650, 3322, 0.9101),
            (40.0, 3196, 2994, 0.9368),
        ],
    )
    def test_large_cohort_precision(self, threshold, flagged, caught, precision):
        row = metrics_from_counts(
            threshold=threshold, flagged_nodes=60, flagged_users=flagged,
            caught=caught, carriers=3331, fraudsters=3337,
        )
        assert row.precision == pytest.approx(precision, abs=ABS)

    def test_large_cohort_recall_chain(self):
        row = metrics_from_counts(
            threshold=10.0, flagged_nodes=60, flagged_users=3650,
            caught=3322, carriers=3331, fraudsters=3337,
        )
        assert row.scr == pytest.approx(0.9973, abs=ABS)
        assert row.coverage == pytest.approx(0.9982, abs=ABS)
        assert row.unconditional_recall == pytest.approx(0.9955, abs=ABS)

    def test_large_cohort_strict_threshold_scr(self):
        row = metrics_from_counts(
            threshold=40.0, flagged_nodes=60, flagged_users=3196,
            caught=2994, carriers=3331, fraudsters=3337,
        )
        assert row.scr == pytest.approx(0.8988, abs=ABS)

    @pytest.mark.parametrize(
        "threshold,flagged,precision",
        [
            (1.0, 511, 0.1585),
            (5.0, 488, 0.1660),
            (10.0, 475, 0.1705),
            (40.0, 466, 0.1738),
        ],
    )
    def test_sparse_cohort_precision(self, threshold, flagged, precision):
        row = metrics_from_counts(
            threshold=threshold, flagged_nodes=5, flagged_users=flagged,
            caught=81, carriers=81, fraudsters=145,
        )
        assert row.precision == pytest.approx(precision, abs=ABS)

    def test_sparse_cohort_full_scr_partial_coverage(self):
        row = metrics_from_counts(
            threshold=40.0, flagged_nodes=5, flagged_users=466,
            caught=81, carriers=81, fraudsters=145,
        )
        assert row.scr == pytest.approx(1.0, abs=ABS)
        assert row.coverage == pytest.approx(0.5586, abs=ABS)
        assert row.unconditional_recall == pytest.approx(0.5586, abs=ABS)


class TestMetricArithmetic:
    def test_unconditional_is_the_literal_product(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            fraudsters = int(rng.integers(1, 5000))
            carriers = int(rng.integers(1, fraudsters + 1))
            caught = int(rng.integers(0, carriers + 1))
            flagged = caught + int(rng.integers(0, 2000))
            row = metrics_from_counts(0.0, 1, flagged, caught, carriers, fraudsters)
            assert row.unconditional_recall == row.scr * row.coverage
            assert row.unconditional_recall == pytest.approx(
                caught / fraudsters, rel=1e-12
            )

    def test_perfect_detection(self):
        row = metrics_from_counts(40.0, 3, 50, 50, 50, 50)
        assert (row.precision, row.scr, row.coverage) == (1.0, 1.0, 1.0)
        assert row.unconditional_recall == 1.0

    def test_nothing_flagged_zero_precision(self):
        row = metrics_from_counts(40.0, 0, 0, 0, 10, 20)
        assert row.precision == 0.0
        assert row.scr == 0.0
        assert row.unconditional_recall == 0.0

    def test_no_carriers_recall_not_applicable(self):
        row = metrics_from_counts(40.0, 1, 5, 0, 0, 20)
        assert row.scr is None
        assert row.coverage == 0.0
        assert row.unconditional_recall is None

    def test_no_fraudsters_coverage_not_applicable(self):
        row = metrics_from_counts(40.0, 1, 5, 0, 0, 0)
        assert row.coverage is None
        assert row.unconditional_recall is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_counts(0.0, 0, -1, 0, 0, 0)

    def test_compute_metrics_counts_intersections(self):
        truth = GroundTruth(
            sybil_users=frozenset({"s1", "s2", "s3"}),
            cashout_nodes=frozenset({"c1"}),
            carriers={"sig": frozenset({"s1", "s2"})},
        )
        row = compute_metrics(
            {"s1", "s2", "u9"}, truth, "sig", threshold=10.0, flagged_nodes=1
        )
        assert row.flagged_users == 3
        assert row.caught == 2
        assert row.precision == pytest.approx(2 / 3)
        assert row.scr == 1.0
        assert row.coverage == pytest.approx(2 / 3)

    def test_compute_metrics_unknown_signal_has_no_carriers(self):
        truth = GroundTruth(frozenset({"s1"}), frozenset(), {})
        row = compute_metrics({"s1"}, truth, "sig")
        assert row.scr is None
        assert row.coverage == 0.0


class TestRawBaseline:
    def _edges(self):
        return EdgeColumns.from_edges([
            TransactionEdge(user="a", node="n1", day=0, hits={"sig": 1}),
            TransactionEdge(user="a", node="n2", day=1, hits={"sig": 1}),
            TransactionEdge(user="b", node="n1", day=0, hits={}),
            TransactionEdge(user="c", node="n1", day=0, hits={"sig": 1}),
        ], ["sig"])

    def test_carriers_deduplicated(self):
        truth = GroundTruth(frozenset({"a"}), frozenset(), {})
        raw = raw_signal_baseline(self._edges(), truth, "sig")
        assert raw.carriers == 2
        assert raw.fraud_carriers == 1
        assert raw.precision == pytest.approx(0.5)

    def test_no_carriers_precision_undefined(self):
        truth = GroundTruth(frozenset({"a"}), frozenset(), {})
        edges = [TransactionEdge(user="a", node="n1", day=0, hits={})]
        raw = raw_signal_baseline(EdgeColumns.from_edges(edges, ["sig"]), truth, "sig")
        assert raw.carriers == 0
        assert raw.precision is None

    def test_amplification_ratio(self):
        raw = RawSignalBaseline("sig", 100, 16, 0.16)
        assert amplification_factor(0.96, raw) == pytest.approx(6.0)

    @pytest.mark.parametrize("raw", [
        RawSignalBaseline("sig", 0, 0, None),
        RawSignalBaseline("sig", 10, 0, 0.0),
    ])
    def test_amplification_undefined(self, raw):
        assert amplification_factor(0.9, raw) is None


class TestThresholdSweep:
    def _inputs(self):
        scores = [make_score("n1", 50.0), make_score("n2", 8.0),
                  make_score("n3", 2.0)]
        node_users = {
            "n1": frozenset({"s1", "s2"}),
            "n2": frozenset({"s3", "u1"}),
            "n3": frozenset({"u2"}),
        }
        truth = GroundTruth(
            sybil_users=frozenset({"s1", "s2", "s3"}),
            cashout_nodes=frozenset({"n1"}),
            carriers={"sig": frozenset({"s1", "s2", "s3"})},
        )
        return scores, node_users, truth

    def test_rows_match_hand_tally(self):
        scores, node_users, truth = self._inputs()
        rows = threshold_sweep(scores, node_users, truth, "sig", [1.0, 5.0, 10.0, 40.0])
        assert [r.flagged_nodes for r in rows] == [3, 2, 1, 1]
        assert [r.flagged_users for r in rows] == [5, 4, 2, 2]
        assert [r.caught for r in rows] == [3, 3, 2, 2]
        assert rows[0].precision == pytest.approx(3 / 5)
        assert rows[3].precision == 1.0

    def test_flag_counts_never_increase_with_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            scores = [
                make_score(f"n{i}", float(rng.normal(0, 20))) for i in range(30)
            ]
            node_users = {
                f"n{i}": frozenset(
                    f"u{j}" for j in rng.integers(0, 60, size=rng.integers(0, 8))
                )
                for i in range(30)
            }
            truth = GroundTruth(frozenset({"u1"}), frozenset(), {})
            rows = threshold_sweep(
                scores, node_users, truth, "sig", [-50.0, -10.0, 0.0, 10.0, 50.0]
            )
            flagged_nodes = [r.flagged_nodes for r in rows]
            flagged_users = [r.flagged_users for r in rows]
            assert flagged_nodes == sorted(flagged_nodes, reverse=True)
            assert flagged_users == sorted(flagged_users, reverse=True)

    def test_unsorted_thresholds_rejected(self):
        scores, node_users, truth = self._inputs()
        with pytest.raises(ValueError):
            threshold_sweep(scores, node_users, truth, "sig", [10.0, 1.0])


class TestDailySeries:
    def _outcomes(self, edges, threshold=10.0):
        registry = SignalRegistry(["sig"])
        return replay_daily(edges, registry, threshold=threshold).days

    def test_cumulative_curves_non_decreasing(self):
        rng = np.random.default_rng(23)
        edges = []
        for day in range(6):
            for _ in range(200):
                edges.append(TransactionEdge(
                    user=f"u{rng.integers(0, 80):02d}",
                    node=f"n{rng.integers(0, 10)}",
                    day=day,
                    hits={"sig": 1} if rng.random() < 0.1 else {},
                ))
            for _ in range(60):
                edges.append(TransactionEdge(
                    user=f"s{rng.integers(0, 20):02d}", node="hot", day=day,
                    hits={"sig": 1} if rng.random() < 0.9 else {},
                ))
        truth = GroundTruth(
            sybil_users=frozenset(f"s{i:02d}" for i in range(20)),
            cashout_nodes=frozenset({"hot"}),
            carriers={},
        )
        rows = daily_series(self._outcomes(edges), truth)
        assert [r.day for r in rows] == list(range(6))
        flagged = [r.cumulative_flagged for r in rows]
        confirmed = [r.cumulative_confirmed for r in rows]
        assert flagged == sorted(flagged)
        assert confirmed == sorted(confirmed)
        assert all(c <= f for c, f in zip(confirmed, flagged))
        assert flagged[-1] > 0

    def test_quiet_stream_all_zero(self):
        edges = [
            TransactionEdge(user=f"u{i}", node=f"n{i % 4}", day=day, hits={})
            for day in range(3) for i in range(50)
        ]
        truth = GroundTruth(frozenset(), frozenset(), {})
        rows = daily_series(self._outcomes(edges), truth)
        assert len(rows) == 3
        assert all(r.flagged_users == 0 for r in rows)
        assert all(r.cumulative_flagged == 0 for r in rows)


def tiny_scenario(seed=19):
    return ScenarioConfig(
        seed=seed,
        days=6,
        n_users=1500,
        n_nodes=30,
        background_txn_per_user_per_day=0.6,
        background_rates={"sig": 0.05, "quiet": 0.02},
        attack=AttackConfig(
            n_sybil=80,
            k_cashout=2,
            start_day=1,
            end_day=4,
            txn_per_sybil_per_day=3.0,
            sybil_rates={"sig": 0.9, "quiet": 0.02},
        ),
    )


def pinned_edges():
    """Two days. Each day background users b0 and b6 send ``hot`` hits to
    m0 and sybils s0-s2 send them to c0; ``cold`` never fires. On day 1,
    p = 10/30 and M = 30/5, so c0 (6 of 6) has p_tilde = 2/3 and
    z = sqrt(3); on day 0 its z is sqrt(1.5)."""
    edges = []
    for day in range(2):
        edges += [TransactionEdge(f"b{i}", f"m{i % 4}", day,
                                  {"hot": int(i % 6 == 0), "cold": 0})
                  for i in range(12)]
        edges += [TransactionEdge(f"s{i}", "c0", day, {"hot": 1, "cold": 0})
                  for i in range(3)]
    sybils = frozenset({"s0", "s1", "s2"})
    return edges, GroundTruth(sybils, frozenset({"c0"}),
                              {"hot": sybils, "cold": frozenset()})


@pytest.fixture(scope="module")
def report():
    config = tiny_scenario()
    edges, truth = generate(config)
    return run_backtest(
        edges, SignalRegistry(config.signals), truth,
        threshold=10.0, sweep_thresholds=(1.0, 5.0, 10.0, 40.0),
    )


class TestRunBacktest:

    def test_signal_under_attack_is_active(self, report):
        summary = {s.signal: s for s in report.summaries}
        assert summary["sig"].active
        assert summary["sig"].max_z >= 10.0
        assert not summary["quiet"].active

    def test_planted_cohort_recovered(self, report):
        row = report.final_metrics["sig"]
        assert row.precision == 1.0
        assert row.scr == 1.0
        assert row.flagged_users > 0

    def test_amplification_reported(self, report):
        summary = next(s for s in report.summaries if s.signal == "sig")
        assert summary.amplification is not None
        assert summary.amplification > 1.0
        assert summary.raw_precision == pytest.approx(
            summary.raw_fraud_carriers / summary.raw_carriers
        )

    def test_sweep_row_at_run_threshold_matches_final_metrics(self, report):
        sweep_row = next(
            r for r in report.sweeps["sig"] if r.threshold == 10.0
        )
        final = report.final_metrics["sig"]
        assert sweep_row.flagged_users == final.flagged_users
        assert sweep_row.caught == final.caught
        assert sweep_row.precision == final.precision

    def test_incident_unions_users_across_signals(self, report):
        config = tiny_scenario()
        edges, _ = generate(config)
        replay = replay_daily(edges, SignalRegistry(config.signals), threshold=10.0)
        flagged = set().union(*(users for day in replay.days
                                for users in day.flagged_users.values()))
        assert flagged
        assert report.incident == flagged
        active = {s.signal: s.active for s in report.summaries}
        assert active == {"sig": True, "quiet": False}

    def test_activation_tracks_peak_z_against_threshold(self):
        """``hot`` peaks at sqrt(3), on day 1; ``cold`` never fires, so it
        has no peak. Summaries follow registry order."""
        edges, truth = pinned_edges()
        registry = SignalRegistry(["hot", "cold"])
        for threshold, hot_active in [(1.5, True), (math.sqrt(3), True), (2.0, False)]:
            report = run_backtest(edges, registry, truth, threshold=threshold)
            hot, cold = report.summaries
            assert (hot.signal, cold.signal) == ("hot", "cold")
            assert hot.max_z == pytest.approx(math.sqrt(3), rel=1e-12)
            assert hot.active is hot_active
            assert cold.max_z is None
            assert cold.active is False

    def test_series_covers_all_days_and_signals(self, report):
        assert len(report.series) == 6 * 2
        assert {r.signal for r in report.series} == {"sig", "quiet"}

    def test_report_files_written(self, report, tmp_path):
        written = write_report_files(report, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "sweep_sig.csv", "sweep_quiet.csv",
            "daily_series.csv", "summary.csv",
        }
        sweep = (tmp_path / "sweep_sig.csv").read_text().splitlines()
        assert sweep[0].startswith("threshold,flagged_nodes,flagged_users")
        assert len(sweep) == 5
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        assert summary[1].startswith("sig,")

    def test_none_fields_serialized_as_na(self, tmp_path):
        row = metrics_from_counts(40.0, 0, 0, 0, 0, 0)
        path = tmp_path / "sweep.csv"
        write_csv(path, MetricsRow, [row])
        body = path.read_text().splitlines()[1]
        assert body == "40.000000,0,0,0,0.000000,n/a,n/a,n/a"

    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        write_csv(path, MetricsRow, [metrics_from_counts(40.0, 0, 0, 0, 0, 0)])
        before = path.read_bytes()
        crash_mid_write(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            write_csv(path, MetricsRow, [metrics_from_counts(5.0, 1, 1, 1, 1, 1)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_report_bytes_pinned(self, tmp_path):
        """All three CSVs as text, for ``pinned_edges``; an int sweep
        threshold is written as a float."""
        edges, truth = pinned_edges()
        report = run_backtest(edges, SignalRegistry(["hot", "cold"]), truth,
                              threshold=1.5, sweep_thresholds=(1, 3))
        write_report_files(report, tmp_path)
        assert (tmp_path / "sweep_hot.csv").read_text() == (
            "threshold,flagged_nodes,flagged_users,caught,precision,scr,coverage,"
            "unconditional_recall\n"
            "1.000000,1,3,3,1.000000,1.000000,1.000000,1.000000\n"
            "3.000000,0,0,0,0.000000,0.000000,1.000000,0.000000\n"
        )
        assert (tmp_path / "sweep_cold.csv").read_text() == (
            "threshold,flagged_nodes,flagged_users,caught,precision,scr,coverage,"
            "unconditional_recall\n"
            "1.000000,0,0,0,0.000000,n/a,0.000000,n/a\n"
            "3.000000,0,0,0,0.000000,n/a,0.000000,n/a\n"
        )
        assert (tmp_path / "daily_series.csv").read_text() == (
            "day,signal,flagged_users,cumulative_flagged,cumulative_confirmed\n"
            "0,hot,0,0,0\n"
            "1,hot,3,3,3\n"
            "0,cold,0,0,0\n"
            "1,cold,0,0,0\n"
        )
        assert (tmp_path / "summary.csv").read_text() == (
            "signal,max_z,active,raw_carriers,raw_fraud_carriers,raw_precision,"
            "amplified_precision,amplification\n"
            "hot,1.732051,1,5,3,0.600000,1.000000,1.666667\n"
            "cold,n/a,0,0,0,n/a,0.000000,n/a\n"
        )

        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "edges.csv").write_text("user,node,day,hot\n")
        signals, columns = read_edge_file(empty / "edges.csv")
        report = run_backtest(columns, SignalRegistry(signals),
                              GroundTruth(frozenset(), frozenset(), {}), threshold=40.0)
        write_report_files(report, empty)
        assert (empty / "daily_series.csv").read_text() == (
            "day,signal,flagged_users,cumulative_flagged,cumulative_confirmed\n"
        )
        assert (empty / "summary.csv").read_text() == (
            "signal,max_z,active,raw_carriers,raw_fraud_carriers,raw_precision,"
            "amplified_precision,amplification\n"
            "hot,n/a,0,0,0,n/a,0.000000,n/a\n"
        )

    def test_generous_bounds_pass(self, report):
        bounds = AcceptanceBounds(
            signal="sig", min_precision=0.9, min_scr=0.9, min_amplification=1.5,
        )
        assert check_bounds(report, bounds) == []

    def test_impossible_bounds_fail_with_named_signal(self, report):
        bounds = AcceptanceBounds(
            signal="sig", min_precision=1.1, min_amplification=1e9,
            max_flagged_users=0,
        )
        failures = check_bounds(report, bounds)
        assert len(failures) == 3
        assert all("sig" in f for f in failures)

    def test_unknown_bounds_signal_reported(self, report):
        failures = check_bounds(report, AcceptanceBounds(signal="ghost"))
        assert failures and "ghost" in failures[0]

    def test_nan_threshold_default_in_compute_metrics(self):
        truth = GroundTruth(frozenset(), frozenset(), {})
        row = compute_metrics(set(), truth, "sig")
        assert math.isnan(row.threshold)
        assert isinstance(row, MetricsRow)
