"""Workloads, child-process runs, output checks and metrics of the benchmark.

Each workload generates its inputs from the seed and writes them to
disk in a child process of their own (the load generator), and then
times the real CLI on those files in fresh child interpreters, one at a
time. Keeping the generator out of this process keeps this process
small, so the peak RSS a job child reports is its own. The end-to-end
numbers come from untraced children; a traced run adds the per-layer
replica (``replica.py``) and checks that it wrote the same bytes as the
CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable

from replica import layer_metrics
from signalamp.edgefile import write_edge_file, write_ground_truth
from signalamp.scenario import AttackConfig, ScenarioConfig, case1_desk, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
CHILD = HERE / "child.py"

RUN_LIMIT_S = 170.0  # a run must exit within 180 s
THRESHOLD = "40"
# With a trailing:7 window no node of case1-desk reaches z 40; at 20 the
# use_promo cash-out nodes are flagged on most days, so the split-run
# check compares real alert lines.
DAILY_THRESHOLD = "20"
WINDOW = "trailing:7"
RSS_AGREE_MB = 0.5  # ru_maxrss and VmHWM of a job child must agree this well


class Ops:
    """Attempted and failed operations: CLI calls and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- workloads ----------------------------------------------------------------

def _case1_scenario(seed: int, small: bool) -> ScenarioConfig:
    config = case1_desk(seed=seed)
    if not small:
        return config
    return replace(
        config, days=12, n_users=15_000, n_nodes=500,
        attack=replace(config.attack, n_sybil=400, k_cashout=4,
                       start_day=2, end_day=9),
    )


def _wide_scenario(seed: int, small: bool) -> ScenarioConfig:
    rates = {"use_promo": 0.04, "device_spoofing": 0.01, "chargeback": 0.0}
    attack = AttackConfig(
        n_sybil=300 if small else 2_000,
        k_cashout=4 if small else 20,
        start_day=3 if small else 10,
        end_day=8 if small else 29,
        txn_per_sybil_per_day=0.6,
        camouflage_txn_per_sybil_per_day=0.6,
        sybil_rates={**rates, "device_spoofing": 0.8},
        cashout_mix=0.9,
        cashout_from_background=True,
    )
    return ScenarioConfig(
        seed=seed,
        days=16 if small else 40,
        n_users=8_000 if small else 60_000,
        n_nodes=800 if small else 6_000,
        background_txn_per_user_per_day=0.15,
        background_rates=rates,
        attack=attack,
        popularity_skew=0.8,
    )


def _backtest_calls(inputs: Path, out: Path) -> list[list[str]]:
    return [["backtest", "--edges", str(inputs / "edges.csv"),
             "--truth", str(inputs / "ground_truth.json"),
             "--threshold", THRESHOLD, "--out", str(out)]]


def _trailing_calls(inputs: Path, out: Path,
                    threshold: str = THRESHOLD) -> list[list[str]]:
    return [["stream", "--edges", str(inputs / "edges.csv"), "--window", WINDOW,
             "--threshold", threshold, "--checkpoint", str(out / "state.json"),
             "--alerts", str(out / "alerts.jsonl")]]


def _daily_calls(inputs: Path, out: Path) -> list[list[str]]:
    calls = []
    for i, path in enumerate(sorted(inputs.glob("day_*.csv"))):
        call = ["stream", "--edges", str(path), "--threshold", DAILY_THRESHOLD,
                "--checkpoint", str(out / f"state_{i:03d}.json"),
                "--alerts", str(out / f"alerts_{i:03d}.jsonl")]
        if i == 0:
            call += ["--window", WINDOW]
        else:
            call += ["--resume", str(out / f"state_{i - 1:03d}.json")]
        calls.append(call)
    return calls


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_backtest(ops: Ops, config: ScenarioConfig, work: Path,
                    out: Path, log: Path) -> None:
    """Floors of acceptance criteria 4 and 6 on the report CSVs."""
    summary = {row["signal"]: row for row in _read_csv(out / "summary.csv")}
    promo = summary["use_promo"]
    at_threshold = [row for row in _read_csv(out / "sweep_use_promo.csv")
                    if float(row["threshold"]) == float(THRESHOLD)]
    scr = at_threshold[0]["scr"] if at_threshold else "missing"
    for name, text, floor in (
        ("use_promo precision >= 0.90", promo["amplified_precision"], 0.90),
        ("use_promo scr >= 0.95", scr, 0.95),
        ("use_promo amplification >= 5", promo["amplification"], 5.0),
    ):
        try:
            ok = float(text) >= floor
        except ValueError:
            ok = False
        ops.record(name, ok, f"got {text}")
    ops.record("device_spoofing inactive",
               summary["device_spoofing"]["active"] == "0",
               f"max z {summary['device_spoofing']['max_z']}")


def _day_lines(log: Path) -> list[tuple[int, dict[str, str]]]:
    """The ``day N: signal=count|inactive ...`` lines ``stream`` prints."""
    days = []
    for line in log.read_text(encoding="utf-8").splitlines():
        if line.startswith("day "):
            head, _, rest = line.partition(": ")
            days.append((int(head[4:]), dict(p.split("=", 1) for p in rest.split())))
    return days


def _check_trailing(ops: Ops, config: ScenarioConfig, work: Path,
                    out: Path, log: Path) -> None:
    days = _day_lines(log)
    ops.record("one scoring turn per day", len(days) == config.days,
               f"{len(days)} turns for {config.days} days")
    ops.record("chargeback inactive on every day",
               all(parts["chargeback"] == "inactive" for _, parts in days))
    atk = config.attack
    ops.record("device_spoofing flags users on an attack day",
               any(atk.start_day <= day <= atk.end_day
                   and parts["device_spoofing"] not in ("0", "inactive")
                   for day, parts in days))
    last = days[-1][1] if days else {"(no days)": "?"}
    ops.record("no users flagged on the last day",
               all(v in ("0", "inactive") for v in last.values()), str(last))


def _check_daily(ops: Ops, config: ScenarioConfig, work: Path,
                 out: Path, log: Path) -> None:
    """Split run equals full run: last checkpoint and concatenated alerts."""
    reference = work / "reference"
    states = sorted(out.glob("state_*.json"))
    ops.record("chained checkpoint equals uninterrupted run",
               bool(states) and states[-1].read_bytes()
               == (reference / "state.json").read_bytes(),
               f"{states[-1].name if states else 'no checkpoint'} differs")
    expected = (reference / "alerts.jsonl").read_bytes()
    ops.record("uninterrupted run writes alerts", bool(expected))
    alerts = b"".join(p.read_bytes() for p in sorted(out.glob("alerts_*.jsonl")))
    ops.record("per-day alerts equal uninterrupted run", alerts == expected)


@dataclass(frozen=True)
class Workload:
    scenario: Callable[[int, bool], ScenarioConfig]
    calls: Callable[[Path, Path], list[list[str]]]
    check: Callable[[Ops, ScenarioConfig, Path, Path, Path], None]
    split_days: bool = False


WORKLOADS = {
    "case1-backtest": Workload(_case1_scenario, _backtest_calls, _check_backtest),
    "wide-trailing": Workload(_wide_scenario, _trailing_calls, _check_trailing),
    "daily-resume": Workload(_case1_scenario, _daily_calls, _check_daily,
                             split_days=True),
}


@dataclass(frozen=True)
class InputSize:
    edges: int
    days: int
    nodes: int
    signals: int


def prepare_inputs(workload: Workload, config: ScenarioConfig,
                   inputs: Path) -> tuple[InputSize, float, float]:
    """Generate and write the inputs; returns (size, generate_s, write_s).

    Runs in the ``inputs`` child (``generate_inputs``), not in the
    benchmark process.
    """
    start = time.perf_counter()
    edges, truth = generate(config)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    write_edge_file(inputs / "edges.csv", edges, config.signals)
    write_ground_truth(inputs / "ground_truth.json", truth)
    if workload.split_days:
        for day, day_edges in groupby(edges, key=attrgetter("day")):
            write_edge_file(inputs / f"day_{day:03d}.csv", day_edges, config.signals)
    write_s = time.perf_counter() - start
    size = InputSize(len(edges), config.days, len({e.node for e in edges}),
                     len(config.signals))
    return size, generate_s, write_s


# -- child processes ------------------------------------------------------------

@dataclass
class ChildRun:
    setup_s: float
    peak_rss_mb: float
    vm_hwm_mb: float | None
    exit_codes: list[int]
    job_s: float | None = None
    spans: list[dict] | None = None


def _spawn(spec: dict, log: Path, deadline: float) -> tuple[dict | None, float, str]:
    """Run ``child.py`` on ``spec`` to completion.

    Returns (result JSON or None, launch clock reading, error text).
    """
    spec_path = log.with_suffix(".spec.json")
    result = log.with_suffix(".result.json")
    spec_path.write_text(json.dumps({**spec, "log": str(log), "result": str(result)}),
                         encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path)], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, launched, f"{spec['mode']} child timed out"
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, launched, f"{spec['mode']} child exited {proc.returncode}: {tail[0]}"
    return json.loads(result.read_text(encoding="utf-8")), launched, proc.stderr.strip()


def generate_inputs(name: str, seed: int, small: bool, inputs: Path,
                    deadline: float) -> tuple[InputSize, float, float]:
    """Run the load generator in its own child; returns (size, generate_s, write_s)."""
    data, _, error = _spawn({"mode": "inputs", "workload": name, "seed": seed,
                             "small": small, "inputs": str(inputs)},
                            inputs.with_name("inputs.log"), deadline)
    if data is None:
        raise RuntimeError(f"input generation failed: {error}")
    return InputSize(**data["size"]), data["generate_s"], data["write_s"]


def run_child(mode: str, calls: list[list[str]], log: Path, run_id: str,
              deadline: float) -> tuple[ChildRun | None, str]:
    """Run one job child to completion; returns (result, error text)."""
    data, launched, error = _spawn({"mode": mode, "calls": calls, "run_id": run_id},
                                   log, deadline)
    if data is None:
        return None, error
    run = ChildRun(data["ready"] - launched, data["peak_rss_mb"], data["vm_hwm_mb"],
                   data["exit_codes"], data.get("job_s"), data.get("spans"))
    failed = [c for c in run.exit_codes if c != 0]
    return run, (error if failed else "")


def record_calls(ops: Ops, label: str, calls: list[list[str]],
                 run: ChildRun | None, error: str) -> bool:
    """One operation per CLI call made; returns whether all succeeded."""
    if run is None:
        ops.record(f"{label} child", False, error)
        return False
    for i, (argv, code) in enumerate(zip(calls, run.exit_codes)):
        ops.record(f"{label} call {i}: {argv[0]}", code == 0, error)
    return len(run.exit_codes) == len(calls) and not any(run.exit_codes)


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def compare_outputs(ops: Ops, label: str, expected: Path, actual: Path) -> None:
    """One operation: every output file is byte-equal, none missing or extra."""
    want, got = digest(expected), digest(actual)
    differing = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    ops.record(label, not differing, "differ: " + ", ".join(differing[:5]))


def run_checks(ops: Ops, workload: Workload, config: ScenarioConfig,
               work: Path, out: Path, log: Path) -> None:
    try:
        workload.check(ops, config, work, out, log)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        ops.record("output checks", False, f"could not read outputs: {exc!r}")


# -- one benchmark run ----------------------------------------------------------

@dataclass
class RunResult:
    size: InputSize
    reps: int
    ops: Ops
    metrics: dict[str, float]
    job_s: list[float]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> RunResult:
    """Generate inputs, then time the job until ``seconds`` have passed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return _run(WORKLOADS[name], name, seed, seconds, trace, small, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run(workload: Workload, name: str, seed: int, seconds: float, trace: bool,
         small: bool, work: Path, deadline: float) -> RunResult:
    config = workload.scenario(seed, small)
    inputs = work / "inputs"
    size, generate_s, write_s = generate_inputs(name, seed, small, inputs, deadline)
    ops = Ops()

    if workload.split_days:  # untimed uninterrupted run for the split check
        reference = work / "reference"
        reference.mkdir()
        calls = _trailing_calls(inputs, reference, DAILY_THRESHOLD)
        run, error = run_child("cli", calls, work / "reference.log", "reference",
                               deadline)
        record_calls(ops, "reference", calls, run, error)

    end = time.monotonic() + seconds
    setups, job_s, rss, layers = [], [], [], []
    first_out = None
    rep = 0
    while True:
        rep_start = time.monotonic()
        out, log = work / f"out_{rep}", work / f"out_{rep}.log"
        out.mkdir()
        calls = workload.calls(inputs, out)
        run, error = run_child("cli", calls, log, f"{name}-{seed}-{rep}", deadline)
        if not record_calls(ops, f"rep {rep}", calls, run, error):
            break
        setups.append(run.setup_s)
        job_s.append(run.job_s)
        rss.append(run.peak_rss_mb)
        ops.record(f"rep {rep} peak RSS is the job's own",
                   run.vm_hwm_mb is not None
                   and abs(run.peak_rss_mb - run.vm_hwm_mb) <= RSS_AGREE_MB,
                   f"ru_maxrss {run.peak_rss_mb:.1f} MB, VmHWM {run.vm_hwm_mb} MB")
        run_checks(ops, workload, config, work, out, log)
        if first_out is None:
            first_out = out
        else:
            compare_outputs(ops, f"rep {rep} repeats rep 0", first_out, out)
            shutil.rmtree(out)
        if trace:
            replica_out = work / f"replica_{rep}"
            replica_out.mkdir()
            calls = workload.calls(inputs, replica_out)
            run, error = run_child("replica", calls, work / f"replica_{rep}.log",
                                   f"{name}-{seed}-{rep}", deadline)
            if not record_calls(ops, f"replica {rep}", calls, run, error):
                break
            compare_outputs(ops, f"replica {rep} matches CLI", first_out, replica_out)
            shutil.rmtree(replica_out)
            layers.append(layer_metrics(run.spans))
        rep += 1
        # Start another rep only if one as long as this one ends in time.
        now = time.monotonic()
        if now + (now - rep_start) > end:
            break

    if trace:
        metrics = {key: _median([sample[key] for sample in layers])
                   for key in (layers[0] if layers else {})}
        for key, value in metrics.items():
            if not key.endswith(("_s", "_ms_p50", "_ms_tail")):
                ops.record(f"trace count {key} repeats",
                           all(sample[key] == value for sample in layers))
        metrics["scenario.generate_s"] = generate_s
        metrics["edgefile.write_s"] = write_s
        if job_s and "trace.total_s" in metrics:
            metrics["trace.overhead_pct"] = 100.0 * (
                metrics["trace.total_s"] / _median(job_s) - 1.0)
    else:
        median_job = _median(job_s)
        metrics = {
            "setup_s": _median(setups),
            "job_s": median_job,
            "edges_per_s": size.edges / median_job if median_job else 0.0,
            "peak_rss_mb": _median(rss),
        }
    return RunResult(size, rep, ops, metrics, job_s)
