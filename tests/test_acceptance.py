"""Acceptance gate. Eight criteria, each printed as one PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to watch the lines as they
complete; without ``-s`` pytest shows them only for failing criteria.
Every criterion is an ordinary test, so a FAIL also fails the suite.
"""

import itertools
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from signalamp.amplify import NodeScore, shrink, z_score
from signalamp.backtest import metrics_from_counts, run_backtest, threshold_sweep
from signalamp.engine import StreamEngine, WindowConfig, replay_daily
from signalamp.model import EdgeColumns, SignalRegistry, TransactionEdge
from signalamp.scenario import (
    AttackConfig,
    GroundTruth,
    ScenarioConfig,
    generate,
    preset,
)

from reference import (reference_baseline, reference_fold, reference_scores,
                       split_run, tallies)

RATE_TOL = 1e-4  # 0.01 percentage points
ORACLE_REL = 1e-12


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {name}{suffix}")
    return ok


# -- 1: frozen rate fixtures -------------------------------------------------

def test_criterion_1_frozen_rate_fixtures():
    """Hand-checked count tables reproduce their quoted rates to 0.01pp."""
    cases = []  # (row, field, expected)

    def row(threshold, flagged_nodes, flagged, caught, carriers, fraudsters):
        return metrics_from_counts(
            threshold, flagged_nodes, flagged, caught, carriers, fraudsters
        )

    large = [
        (row(1.0, 60, 3956, 3329, 3331, 3337), "precision", 0.8415),
        (row(5.0, 60, 3843, 3329, 3331, 3337), "precision", 0.8663),
        (row(10.0, 60, 3650, 3322, 3331, 3337), "precision", 0.9101),
        (row(10.0, 60, 3650, 3322, 3331, 3337), "scr", 0.9973),
        (row(10.0, 60, 3650, 3322, 3331, 3337), "coverage", 0.9982),
        (row(10.0, 60, 3650, 3322, 3331, 3337), "unconditional_recall", 0.9955),
        (row(40.0, 60, 3196, 2994, 3331, 3337), "precision", 0.9368),
        (row(40.0, 60, 3196, 2994, 3331, 3337), "scr", 0.8988),
    ]
    sparse = [
        (row(1.0, 5, 511, 81, 81, 145), "precision", 0.1585),
        (row(5.0, 5, 488, 81, 81, 145), "precision", 0.1660),
        (row(10.0, 5, 475, 81, 81, 145), "precision", 0.1705),
        (row(40.0, 5, 466, 81, 81, 145), "precision", 0.1738),
        (row(40.0, 5, 466, 81, 81, 145), "scr", 1.0),
        (row(40.0, 5, 466, 81, 81, 145), "coverage", 0.5586),
        (row(40.0, 5, 466, 81, 81, 145), "unconditional_recall", 0.5586),
    ]
    cases = large + sparse
    worst = max(abs(getattr(r, f) - want) for r, f, want in cases)
    ok = worst <= RATE_TOL
    assert report(
        1, "frozen rate fixtures", ok,
        f"{len(cases)} rates, worst error {worst:.2e}, tol {RATE_TOL:g}",
    )


# -- 2: independent scoring oracle -------------------------------------------

def _oracle_shrink(hits, trials, rate, strength):
    num = Fraction(hits) + Fraction(strength) * Fraction(rate)
    return float(num / (Fraction(trials) + Fraction(strength)))


def _oracle_z(shrunk, rate, trials):
    with mpmath.workdps(50):
        p = mpmath.mpf(rate)
        se = mpmath.sqrt(p * (1 - p) / trials)
        return float((mpmath.mpf(shrunk) - p) / se)


def test_criterion_2_independent_scoring_oracle():
    """1000 random cases agree with exact-rational and 50-digit oracles."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        trials = int(rng.integers(1, 5001))
        hits = int(rng.integers(0, trials + 1))
        rate = float(rng.uniform(1e-6, 1 - 1e-6))
        strength = float(rng.uniform(1e-3, 2000.0))
        got_shrunk = shrink(hits, trials, rate, strength)
        want_shrunk = _oracle_shrink(hits, trials, rate, strength)
        got_z = z_score(got_shrunk, rate, trials)
        want_z = _oracle_z(got_shrunk, rate, trials)
        worst = max(
            worst,
            abs(got_shrunk - want_shrunk) / max(abs(want_shrunk), 1e-300),
            abs(got_z - want_z) / max(abs(want_z), 1e-300),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= ORACLE_REL and elapsed < 1.0
    assert report(
        2, "independent scoring oracle", ok,
        f"1000 cases, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# -- 3: stream equals batch ---------------------------------------------------

def test_criterion_3_stream_equals_batch():
    """Ten seeds, 100k edges each: stream scores == batch scores, bitwise."""
    registry = SignalRegistry(["sig"])
    seeds_ok = 0
    n = 100_000
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        users = rng.integers(0, 5000, size=n)
        nodes = rng.integers(0, 400, size=n)
        days = rng.integers(0, 30, size=n)
        hits = rng.random(n) < 0.03
        planted = rng.integers(0, n, size=2000)
        nodes[planted] = 400
        hits[planted] = rng.random(planted.size) < 0.9
        edges = [
            TransactionEdge(
                user=f"u{u}", node=f"n{m}", day=d,
                hits={"sig": 1} if h else {},
            )
            for u, m, d, h in zip(
                users.tolist(), nodes.tolist(), days.tolist(), hits.tolist()
            )
        ]
        engine = StreamEngine(registry)
        for edge in edges:
            engine.ingest(edge)
        nodes = reference_fold(edges)
        batch = reference_scores(nodes, reference_baseline(nodes, "sig"))
        if engine.scores("sig") == batch:
            seeds_ok += 1
    ok = seeds_ok == 10
    assert report(
        3, "stream equals batch", ok,
        f"{seeds_ok}/10 seeds bit-exact over {n} edges each",
    )


# -- 4: planted attack quality ------------------------------------------------

def test_criterion_4_planted_attack_quality():
    """Promo-abuse preset at threshold 40: precise, near-complete, amplified."""
    start = time.perf_counter()
    config = preset("case1-desk")
    edges, truth = generate(config)
    r = run_backtest(
        edges, SignalRegistry(config.signals), truth,
        threshold=40.0, sweep_thresholds=(40.0,),
    )
    elapsed = time.perf_counter() - start
    metrics = r.final_metrics["use_promo"]
    summary = next(s for s in r.summaries if s.signal == "use_promo")
    checks = {
        "precision>=0.90": metrics.precision >= 0.90,
        "scr>=0.95": metrics.scr is not None and metrics.scr >= 0.95,
        "amplification>=5": (summary.amplification is not None
                             and summary.amplification >= 5.0),
        "raw in [0.12,0.20]": (summary.raw_precision is not None
                               and 0.12 <= summary.raw_precision <= 0.20),
        "under 30s": elapsed < 30.0,
    }
    failed = [k for k, v in checks.items() if not v]
    ok = not failed
    assert report(
        4, "planted attack quality", ok,
        f"precision {metrics.precision:.4f}, scr {metrics.scr:.4f}, "
        f"amplification {summary.amplification:.2f}x, "
        f"raw {summary.raw_precision:.4f}, {elapsed:.1f}s"
        + (f"; failed: {failed}" if failed else ""),
    )


# -- 5: calm traffic specificity ----------------------------------------------

def test_criterion_5_calm_traffic_specificity():
    """Five attack-free seeds: nothing ever flagged at threshold 40."""
    start = time.perf_counter()
    clean_seeds = 0
    min_edges = None
    for seed in (3, 4, 5, 6, 7):
        config = preset("calm", seed=seed)
        edges, _ = generate(config)
        count = len(edges)
        min_edges = count if min_edges is None else min(min_edges, count)
        result = replay_daily(edges, SignalRegistry(config.signals), threshold=40.0)
        if count >= 100_000 and len(result.days) == 30 and all(
            not outcome.flagged_users[s]
            for outcome in result.days for s in outcome.flagged_users
        ):
            clean_seeds += 1
    elapsed = time.perf_counter() - start
    ok = clean_seeds == 5 and elapsed < 30.0
    assert report(
        5, "calm traffic specificity", ok,
        f"{clean_seeds}/5 seeds with zero flags over 30 days, "
        f"smallest run {min_edges} edges, {elapsed:.1f}s",
    )


# -- 6: selective signal activation --------------------------------------------

def test_criterion_6_selective_signal_activation():
    """An attack elevated in one signal activates it and only it."""
    start = time.perf_counter()
    config = ScenarioConfig(
        seed=13,
        days=15,
        n_users=5000,
        n_nodes=500,
        background_txn_per_user_per_day=0.5,
        background_rates={"sig_a": 0.03, "sig_b": 0.01},
        attack=AttackConfig(
            n_sybil=800,
            k_cashout=5,
            start_day=4,
            end_day=10,
            txn_per_sybil_per_day=1.0,
            sybil_rates={"sig_a": 0.95, "sig_b": 0.01},
        ),
    )
    edges, _ = generate(config)
    result = replay_daily(edges, SignalRegistry(config.signals), threshold=40.0)
    elapsed = time.perf_counter() - start
    peak_a = max(
        outcome.max_z["sig_a"] for outcome in result.days
        if 4 <= outcome.day <= 10 and outcome.max_z["sig_a"] is not None
    )
    peak_b = max(
        outcome.max_z["sig_b"] for outcome in result.days
        if outcome.max_z["sig_b"] is not None
    )
    ok = peak_a >= 40.0 and peak_b < 40.0 and elapsed < 10.0
    assert report(
        6, "selective signal activation", ok,
        f"attacked signal peak z {peak_a:.1f} (needs >=40), "
        f"untouched signal peak z {peak_b:.1f} (needs <40), {elapsed:.1f}s",
    )


# -- 7: analytic properties -----------------------------------------------------

def _prop_shrink_convexity(rng):
    for _ in range(300):
        trials = int(rng.integers(1, 2000))
        hits = int(rng.integers(0, trials + 1))
        rate = float(rng.uniform(0.001, 0.999))
        strength = float(rng.uniform(0.01, 500.0))
        raw = hits / trials
        value = shrink(hits, trials, rate, strength)
        if not min(raw, rate) - 1e-12 <= value <= max(raw, rate) + 1e-12:
            return False
        weight = trials / (trials + strength)
        if abs(value - rate) > weight * abs(raw - rate) + 1e-9:
            return False
        if abs(value - raw) > (1 - weight) * abs(rate - raw) + 1e-9:
            return False
    return True


def _prop_z_monotone_in_hits(rng):
    for _ in range(200):
        trials = int(rng.integers(2, 500))
        rate = float(rng.uniform(0.01, 0.99))
        strength = float(rng.uniform(0.1, 100.0))
        values = [
            z_score(shrink(h, trials, rate, strength), rate, trials)
            for h in range(trials + 1)
        ]
        if any(b <= a for a, b in zip(values, values[1:])):
            return False
    return True


def _prop_z_sqrt_t_scaling(rng):
    for _ in range(200):
        trials = int(rng.integers(1, 10_000))
        rate = float(rng.uniform(0.01, 0.99))
        shrunk = float(rng.uniform(0.0, 1.0))
        one = z_score(shrunk, rate, trials)
        four = z_score(shrunk, rate, 4 * trials)
        if one != 0.0 and abs(four - 2.0 * one) > 1e-12 * abs(one) * 2:
            return False
    return True


def _prop_sweep_monotone(rng):
    for _ in range(50):
        scores = [
            NodeScore(
                node=f"n{i}", signal="sig", hits=1, trials=2,
                raw_rate=0.5, shrunk_rate=0.5, z=float(rng.normal(0, 30)),
            )
            for i in range(40)
        ]
        node_users = {
            f"n{i}": frozenset(
                f"u{j}" for j in rng.integers(0, 100, size=rng.integers(0, 6))
            )
            for i in range(40)
        }
        truth = GroundTruth(frozenset({"u1", "u2"}), frozenset(), {})
        rows = threshold_sweep(
            scores, node_users, truth, "sig", [-60.0, -20.0, 0.0, 20.0, 60.0]
        )
        users = [r.flagged_users for r in rows]
        nodes = [r.flagged_nodes for r in rows]
        if users != sorted(users, reverse=True):
            return False
        if nodes != sorted(nodes, reverse=True):
            return False
    return True


def _prop_resume_monoid(_rng):
    """Exhaustive over every edge multiset made of up to three tallies with
    at most 3 trials each: every block order, and every split point through
    a checkpoint, gives the state of one uninterrupted ingest."""
    registry = SignalRegistry(["sig"])
    states = [(t, h) for t in range(4) for h in range(t + 1)]

    def block(trials, hits):
        return [
            TransactionEdge(user=f"u{i % 2}", node="n", day=0,
                            hits={"sig": 1} if i < hits else {})
            for i in range(trials)
        ]

    def ingest_all(edges):
        engine = StreamEngine(registry)
        for edge in edges:
            engine.ingest(edge)
        return engine.checkpoint_payload()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        for triple in itertools.product(states, repeat=3):
            blocks = [block(t, h) for t, h in triple]
            edges = [edge for blk in blocks for edge in blk]
            want = ingest_all(edges)
            for order in itertools.permutations(blocks):
                if ingest_all([edge for blk in order for edge in blk]) != want:
                    return False
            for cut in range(len(edges) + 1):
                resumed = split_run(registry, edges[:cut], edges[cut:], path)
                if resumed.checkpoint_payload() != want:
                    return False
    return True


def _prop_conservation(rng):
    """Global totals equal the node-table sums after every single ingest."""
    registry = SignalRegistry(["sig"])
    engine = StreamEngine(registry, WindowConfig.trailing(3))
    day = 0
    for _ in range(2000):
        if rng.random() < 0.01:
            day += 1
            engine.advance_to(day)
        engine.ingest(TransactionEdge(
            user=f"u{rng.integers(0, 50)}",
            node=f"n{rng.integers(0, 12)}",
            day=day,
            hits={"sig": 1} if rng.random() < 0.2 else {},
        ))
        held = tallies(engine).values()
        if engine.total_transactions != sum(t for t, _ in held):
            return False
        if engine.total_hits("sig") != sum(hits.get("sig", 0) for _, hits in held):
            return False
    return True


def test_criterion_7_analytic_properties():
    """Randomized suites for the estimator, the sweep, and the counters."""
    rng = np.random.default_rng(777)
    suites = {
        "shrink convexity and dominance": _prop_shrink_convexity,
        "z monotone in hits": _prop_z_monotone_in_hits,
        "z sqrt-t scaling": _prop_z_sqrt_t_scaling,
        "sweep monotonicity": _prop_sweep_monotone,
        "resume monoid laws": _prop_resume_monoid,
        "counter conservation": _prop_conservation,
    }
    failed = [name for name, fn in suites.items() if not fn(rng)]
    ok = not failed
    assert report(
        7, "analytic properties", ok,
        f"{len(suites) - len(failed)}/{len(suites)} suites"
        + (f"; failed: {failed}" if failed else ""),
    )


# -- 8: throughput --------------------------------------------------------------

def _perf_edges(n, seed):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 20_000, size=n).tolist()
    nodes = rng.integers(0, 1000, size=n).tolist()
    days = np.sort(rng.integers(0, 30, size=n)).tolist()
    hot = (rng.random(n) < 0.05).tolist()
    hit = {"sig": 1}
    cold = {}
    return [
        TransactionEdge(
            user=f"u{users[i]}", node=f"n{nodes[i]}", day=days[i],
            hits=hit if hot[i] else cold,
        )
        for i in range(n)
    ]


def _time_ingest(edges):
    engine = StreamEngine(SignalRegistry(["sig"]))
    start = time.perf_counter()
    ingest = engine.ingest
    for edge in edges:
        ingest(edge)
    engine.total_transactions  # folds what is still queued
    return time.perf_counter() - start, engine


def test_criterion_8_throughput():
    """Per-edge cost stays flat from 100k to 1M edges; batch scoring is
    single-digit seconds at 1M."""
    small = _perf_edges(100_000, 900)
    big = _perf_edges(1_000_000, 901)
    t_small = min(_time_ingest(small)[0], _time_ingest(small)[0])
    t_big, engine = _time_ingest(big)
    per_edge_ratio = (t_big / len(big)) / (t_small / len(small))

    columns = EdgeColumns.from_edges(big, ["sig"])
    start = time.perf_counter()
    batch = StreamEngine(SignalRegistry(["sig"]))
    batch.ingest_columns(columns)
    scores = batch.scores("sig")
    t_batch = time.perf_counter() - start

    ok = per_edge_ratio <= 3.0 and t_batch < 10.0 and len(scores) == 1000
    assert report(
        8, "ingest and scoring throughput", ok,
        f"1M ingest {t_big:.2f}s vs 100k {t_small:.2f}s "
        f"(per-edge ratio {per_edge_ratio:.2f}, cap 3.0); "
        f"1M batch score {t_batch:.2f}s (cap 10s)",
    )
    assert engine.total_transactions == len(big)
