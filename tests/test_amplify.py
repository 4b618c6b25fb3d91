"""Math-core tests: frozen hand-traced values, an independent
high-precision oracle, and the algebraic properties the scoring
functions must keep.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from signalamp.amplify import rank_columns, score_columns, shrink, z_score
from signalamp.engine import StreamEngine, WindowConfig
from signalamp.errors import DegenerateBaselineError, NoBaselineError
from signalamp.model import GlobalBaseline, SignalRegistry, TransactionEdge

from reference import (edge_columns, reference_baseline, reference_fold,
                       reference_scores, split_run)

REL = 1e-12


# -- independent oracle ------------------------------------------------------
# Same formulas, evaluated through exact rationals (shrink) and 50-digit
# floating point (z), so a bug in the float implementation cannot hide.

def oracle_shrink(hits: int, trials: int, rate: float, strength: float) -> float:
    r = Fraction(rate)
    m = Fraction(strength)
    return float((Fraction(hits) + m * r) / (Fraction(trials) + m))


def oracle_z(shrunk: float, rate: float, trials: int) -> float:
    with mpmath.workdps(50):
        p = mpmath.mpf(rate)
        value = (mpmath.mpf(shrunk) - p) / mpmath.sqrt(p * (1 - p) / trials)
        return float(value)


def random_grid(n_cases: int, seed: int = 42):
    """Randomized (hits, trials, rate, strength) tuples with sane ranges."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        trials = int(rng.integers(1, 5000))
        hits = int(rng.integers(0, trials + 1))
        rate = float(rng.uniform(1e-6, 1 - 1e-6))
        strength = float(rng.uniform(1e-3, 2000.0))
        cases.append((hits, trials, rate, strength))
    return cases


class TestShrinkFrozenValues:
    """Hand-traced shrinkage values, frozen."""

    def test_zero_trials_returns_prior(self):
        assert shrink(0, 0, 0.05, 100.0) == pytest.approx(0.05, rel=1e-15)

    def test_two_of_two_with_strength_eight(self):
        # (2 + 8 * 0.05) / (2 + 8) = 2.4 / 10
        assert shrink(2, 2, 0.05, 8.0) == pytest.approx(0.24, rel=REL)

    def test_heavy_node_barely_moves(self):
        # (990 + 50 * 0.05) / (1000 + 50) = 992.5 / 1050
        assert shrink(990, 1000, 0.05, 50.0) == pytest.approx(
            0.9452380952380952, rel=REL
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shrink(3, 2, 0.05, 8.0)
        with pytest.raises(ValueError):
            shrink(-1, 2, 0.05, 8.0)
        with pytest.raises(ValueError):
            shrink(1, 2, 1.5, 8.0)
        with pytest.raises(ValueError):
            shrink(1, 2, 0.05, 0.0)


class TestZScoreFrozenValues:
    def test_continued_example(self):
        shrunk = shrink(990, 1000, 0.05, 50.0)
        assert z_score(shrunk, 0.05, 1000) == pytest.approx(
            129.89479525779257, rel=REL
        )

    def test_exact_zero_at_baseline(self):
        assert z_score(0.05, 0.05, 123) == 0.0

    def test_degenerate_rates_rejected(self):
        with pytest.raises(DegenerateBaselineError):
            z_score(0.5, 0.0, 10)
        with pytest.raises(DegenerateBaselineError):
            z_score(0.5, 1.0, 10)

    def test_zero_trials_unscorable(self):
        with pytest.raises(ValueError):
            z_score(0.5, 0.3, 0)


class TestAgainstOracle:
    """Implementation must track the independent oracle to 1e-12 relative."""

    def test_shrink_matches_oracle_on_grid(self):
        for hits, trials, rate, strength in random_grid(1000):
            got = shrink(hits, trials, rate, strength)
            want = oracle_shrink(hits, trials, rate, strength)
            assert got == pytest.approx(want, rel=REL), (hits, trials, rate, strength)

    def test_z_matches_oracle_on_grid(self):
        for hits, trials, rate, strength in random_grid(1000, seed=43):
            shrunk = shrink(hits, trials, rate, strength)
            got = z_score(shrunk, rate, trials)
            want = oracle_z(shrunk, rate, trials)
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=REL)


class TestShrinkProperties:
    """Shrinkage is a convex pull toward the prior with hard bounds."""

    def test_convex_between_raw_and_prior(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            trials = int(rng.integers(1, 3000))
            hits = int(rng.integers(0, trials + 1))
            rate = float(rng.uniform(0.001, 0.999))
            strength = float(rng.uniform(0.01, 1000.0))
            raw = hits / trials
            shrunk = shrink(hits, trials, rate, strength)
            assert min(raw, rate) - 1e-12 <= shrunk <= max(raw, rate) + 1e-12

    def test_prior_dominance_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            trials = int(rng.integers(0, 500))
            hits = int(rng.integers(0, trials + 1)) if trials else 0
            rate = float(rng.uniform(0.01, 0.99))
            strength = float(rng.uniform(0.1, 300.0))
            shrunk = shrink(hits, trials, rate, strength)
            assert abs(shrunk - rate) <= trials / (trials + strength) + 1e-12

    def test_data_dominance_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            trials = int(rng.integers(1, 500))
            hits = int(rng.integers(0, trials + 1))
            rate = float(rng.uniform(0.01, 0.99))
            strength = float(rng.uniform(0.1, 300.0))
            shrunk = shrink(hits, trials, rate, strength)
            assert abs(shrunk - hits / trials) <= strength / (trials + strength) + 1e-12

    def test_strictly_monotone_in_hits(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            trials = int(rng.integers(2, 400))
            hits = int(rng.integers(0, trials))
            rate = float(rng.uniform(0.01, 0.99))
            strength = float(rng.uniform(0.1, 300.0))
            low = shrink(hits, trials, rate, strength)
            high = shrink(hits + 1, trials, rate, strength)
            assert high > low


class TestZScoreProperties:
    def test_monotone_in_hits_at_fixed_trials(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            trials = int(rng.integers(2, 400))
            hits = int(rng.integers(0, trials))
            rate = float(rng.uniform(0.01, 0.99))
            strength = float(rng.uniform(0.1, 300.0))
            low = z_score(shrink(hits, trials, rate, strength), rate, trials)
            high = z_score(shrink(hits + 1, trials, rate, strength), rate, trials)
            assert high > low

    def test_scales_with_sqrt_of_trials(self):
        """At a pinned shrunk rate, 4x the volume doubles the z."""
        rng = np.random.default_rng(12)
        for _ in range(500):
            trials = int(rng.integers(1, 10_000))
            rate = float(rng.uniform(0.01, 0.99))
            shrunk = float(rng.uniform(0.0, 1.0))
            one = z_score(shrunk, rate, trials)
            four = z_score(shrunk, rate, 4 * trials)
            if one == 0.0:
                assert four == 0.0
            else:
                assert four / one == pytest.approx(2.0, rel=REL)

    def test_finite_on_any_valid_input(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            trials = int(rng.integers(1, 5000))
            hits = int(rng.integers(0, trials + 1))
            rate = float(rng.uniform(1e-9, 1 - 1e-9))
            strength = float(rng.uniform(1e-3, 1000.0))
            z = z_score(shrink(hits, trials, rate, strength), rate, trials)
            assert np.isfinite(z)


def columns_of(tallies, day=0):
    """Columns of ``trials`` edges on ``day`` into each node of the (node,
    trials, hits) ``tallies``, in that order, the first ``hits`` of them
    hitting ``sig``."""
    rows = [(node, day, (i < hits,)) for node, trials, hits in tallies
            for i in range(trials)]
    return edge_columns(["sig"], [(f"u{k}", *row) for k, row in enumerate(rows)])


def engine_of(tallies):
    """A cumulative engine that folded ``columns_of(tallies)``."""
    engine = StreamEngine(SignalRegistry(["sig"]))
    engine.ingest_columns(columns_of(tallies))
    return engine


def evicted(node, trials, tallies):
    """A ``trailing:1`` engine that folded ``trials`` edges into ``node`` on
    day 0 and ``tallies`` on day 1, advanced to day 1, so that ``node`` is
    left with no transaction."""
    engine = StreamEngine(SignalRegistry(["sig"]), WindowConfig.trailing(1))
    engine.ingest_columns(columns_of([(node, trials, 0)]))
    engine.ingest_columns(columns_of(tallies, day=1))
    engine.advance_to(1)
    return engine


class TestEngineBaseline:
    def test_two_node_example(self):
        baseline = engine_of([("a", 10, 1), ("b", 10, 0)]).baseline("sig")
        assert baseline.rate == 0.05
        assert baseline.prior_strength == 10.0
        assert baseline.active_nodes == 2
        score_columns(np.array([10, 10]), np.array([1, 0]), baseline)

    def test_single_silent_node_is_degenerate(self):
        baseline = engine_of([("a", 7, 0)]).baseline("sig")
        assert baseline.rate == 0.0
        assert baseline.prior_strength == 7.0
        with pytest.raises(DegenerateBaselineError):
            score_columns(np.array([7]), np.array([0]), baseline)

    def test_all_hits_is_degenerate(self):
        baseline = engine_of([("a", 3, 3)]).baseline("sig")
        assert baseline.rate == 1.0
        with pytest.raises(DegenerateBaselineError):
            score_columns(np.array([3]), np.array([3]), baseline)

    def test_empty_window_rejected(self):
        with pytest.raises(NoBaselineError):
            StreamEngine(SignalRegistry(["sig"])).baseline("sig")
        with pytest.raises(NoBaselineError):
            evicted("a", 4, []).baseline("sig")

    def test_zero_trial_nodes_do_not_count_as_active(self):
        baseline = evicted("b", 4, [("a", 10, 2)]).baseline("sig")
        assert baseline.active_nodes == 1
        assert baseline.prior_strength == 10.0

    def test_rate_recovers_generating_probability(self):
        """Monte Carlo: pooled rate lands inside a 4-sigma binomial band."""
        rng = np.random.default_rng(21)
        p = 0.05
        tallies = []
        total = 0
        for i in range(300):
            trials = int(rng.integers(1, 200))
            hits = int(rng.binomial(trials, p))
            tallies.append((f"n{i:03d}", trials, hits))
            total += trials
        baseline = engine_of(tallies).baseline("sig")
        sigma = (p * (1 - p) / total) ** 0.5
        assert abs(baseline.rate - p) < 4 * sigma
        assert baseline.prior_strength == total / 300


class TestEngineScores:
    _tallies = [("n1", 50, 40), ("n2", 50, 2), ("n3", 400, 20)]

    def test_ordering_is_z_descending(self):
        scores = engine_of(self._tallies).scores("sig")
        assert [s.z for s in scores] == sorted((s.z for s in scores), reverse=True)

    def test_ties_break_on_node_id(self):
        scores = engine_of([("b", 10, 3), ("a", 10, 3), ("c", 10, 1)]).scores("sig")
        assert [s.node for s in scores[:2]] == ["a", "b"]
        assert scores[0].z == scores[1].z

    def test_skips_nodes_without_transactions(self):
        scores = evicted("ghost", 5, self._tallies).scores("sig")
        assert scores == engine_of(self._tallies).scores("sig")

    def test_fields_copied_from_tallies(self):
        by_node = {s.node: s for s in engine_of(self._tallies).scores("sig")}
        assert by_node["n1"].hits == 40
        assert by_node["n1"].trials == 50
        assert by_node["n1"].raw_rate == 0.8
        assert by_node["n3"].raw_rate == 0.05

    def test_everything_at_baseline_scores_zero(self):
        """Nodes at exactly the pooled rate with volume equal to the prior
        strength sit at z = 0 precisely."""
        engine = engine_of([(f"n{i}", 10, 2) for i in range(3)])
        assert engine.baseline("sig").prior_strength == 10.0
        for sc in engine.scores("sig"):
            assert sc.z == 0.0
            assert sc.shrunk_rate == pytest.approx(0.2, rel=1e-15)

    def test_propagates_degenerate_baseline(self):
        with pytest.raises(DegenerateBaselineError):
            engine_of([("a", 5, 0)]).scores("sig")

    def test_concat_equals_merge(self, tmp_path):
        """Scoring commutes with where the stream was split by a checkpoint."""
        registry = SignalRegistry(["sig"])
        rng = np.random.default_rng(31)
        edges = [
            TransactionEdge(
                user=f"u{rng.integers(0, 40)}",
                node=f"n{rng.integers(0, 8)}",
                day=0,
                hits={"sig": 1} if rng.random() < 0.3 else {},
            )
            for _ in range(600)
        ]
        whole = reference_fold(edges)
        scores_whole = reference_scores(whole, reference_baseline(whole, "sig"))
        merged = split_run(registry, edges[:250], edges[250:], tmp_path / "ckpt.json")
        assert merged.scores("sig") == scores_whole

    def test_empty_input_gives_empty_ranking(self):
        none = np.zeros(0, np.int64)
        assert rank_columns([], none, none, GlobalBaseline("sig", 1, 4, 1)) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_scalar_reference(self, seed):
        """The vector path gives the scalar path's scores and order exactly,
        on tables full of equal (t, s) pairs and of nodes at z = 0.0."""
        rng = np.random.default_rng(700 + seed)
        trials = rng.integers(1, 6, size=300)
        hits = rng.binomial(trials, 0.3)
        # Ids that differ only by trailing NULs tie on z and must keep
        # Python's string order.
        crowded = [
            (f"n{i % 60}" + "\0" * (i // 60), t, s)
            for i, (t, s) in enumerate(zip(trials.tolist(), hits.tolist()))
        ]
        # Pairs around s = 2 keep p = 0.2 and M = 10, so every (10, 2)
        # node shrinks to p exactly and scores z = 0.0.
        pairs = [(2, 2)] * int(rng.integers(5, 30)) + \
            [(1, 3)] * int(rng.integers(0, 20)) + [(0, 4)] * int(rng.integers(0, 20))
        balanced = [(f"b{i}", 10, s)
                    for i, s in enumerate(s for pair in pairs for s in pair)]
        for table in (crowded, balanced):
            rng.shuffle(table)
            tallies = {node: (t, {"sig": s} if s else {}) for node, t, s in table}
            baseline = reference_baseline(tallies, "sig")
            engine = engine_of(table)
            assert engine.baseline("sig") == baseline
            scores = engine.scores("sig")
            assert scores == reference_scores(tallies, baseline)
        assert any(sc.z == 0.0 for sc in scores)


class TestScoreColumns:
    def _baseline(self):
        return GlobalBaseline("sig", 3, 10, 1)

    def test_rows_equal_scalar_functions(self):
        trials, hits = np.array([1, 7, 50, 9000]), np.array([0, 7, 13, 100])
        baseline = self._baseline()
        raw, shrunk, z = score_columns(trials, hits, baseline)
        for i, (t, s) in enumerate(zip(trials.tolist(), hits.tolist())):
            expected = shrink(s, t, baseline.rate, baseline.prior_strength)
            assert raw[i] == s / t
            assert shrunk[i] == expected
            assert z[i] == z_score(expected, baseline.rate, t)

    @pytest.mark.parametrize("trials, hits", [
        ([3, 0], [1, 0]),
        ([3, 4], [1, 5]),
        ([3, 4], [-1, 2]),
    ], ids=["no-trials", "hits-above-trials", "negative-hits"])
    def test_rejects_invalid_counts(self, trials, hits):
        with pytest.raises(ValueError):
            score_columns(np.array(trials), np.array(hits), self._baseline())

    @pytest.mark.parametrize("hits", [0, 10])
    def test_degenerate_baseline_rejected(self, hits):
        baseline = GlobalBaseline("sig", hits, 10, 1)
        with pytest.raises(DegenerateBaselineError):
            score_columns(np.array([10]), np.array([hits]), baseline)
