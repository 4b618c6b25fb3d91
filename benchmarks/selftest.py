#!/usr/bin/env python3
"""Self-test of the benchmark at reduced input size.

    python3 benchmarks/selftest.py

Runs every workload, untraced and traced, on small scenarios and requires
that each passes all of its checks. Then it alters one output in a temp
copy (an alert line the replica wrote, a chained checkpoint and a
chained alert line) and requires that the benchmark's checks count each change as a failed
operation. Exits nonzero on the first requirement that does not hold.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    WORK_ROOT, WORKLOADS, Ops, compare_outputs, generate_inputs, record_calls,
    run_child, run_workload,
)

SEED = 3


def _require(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        raise SystemExit(1)
    print(f"ok  {message}")


def _workloads_pass() -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, SEED, 0.0, trace, small=True)
            _require(result.ops.attempted > 0 and result.ops.failed == 0,
                     f"{name} trace={int(trace)}: {result.ops.attempted} "
                     f"operations, none failed; " + "; ".join(result.ops.failures))
            if trace:
                _require(result.metrics["engine.ingest_s"] > 0
                         and result.metrics["amplify.node_scores"] > 0,
                         f"{name}: traced run reports per-layer work")


def _tampering_is_caught(work: Path) -> None:
    workload = WORKLOADS["wide-trailing"]
    config = workload.scenario(SEED, True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    deadline = time.monotonic() + 120
    generate_inputs("wide-trailing", SEED, True, inputs, deadline)
    outputs = {}
    for mode in ("cli", "replica"):
        out = work / mode
        out.mkdir()
        calls = workload.calls(inputs, out)
        run, error = run_child(mode, calls, work / f"{mode}.log", mode, deadline)
        _require(record_calls(Ops(), mode, calls, run, error), f"{mode} job ran")
        outputs[mode] = out

    ops = Ops()
    compare_outputs(ops, "replica matches CLI", outputs["cli"], outputs["replica"])
    _require(ops.failed == 0, "untouched replica outputs match the CLI")

    tampered = work / "tampered"
    shutil.copytree(outputs["replica"], tampered)
    alerts = tampered / "alerts.jsonl"
    lines = alerts.read_text(encoding="utf-8").splitlines(keepends=True)
    _require(bool(lines), "small wide-trailing run writes alerts")
    lines[0] = lines[0].replace('"user_count":', '"user_count":1', 1)
    alerts.write_text("".join(lines), encoding="utf-8")
    compare_outputs(ops, "replica matches CLI", outputs["cli"], tampered)
    _require(ops.failed == 1 and ops.error_rate > 0,
             f"one altered alert line counts as a failure "
             f"(error_rate {ops.error_rate:.2f})")

    daily = WORKLOADS["daily-resume"]
    shutil.copytree(outputs["cli"], work / "reference")

    def chain_check(name: str, old: str, new: str) -> int:
        chain = work / "chain"
        shutil.rmtree(chain, ignore_errors=True)
        shutil.copytree(outputs["cli"], chain)
        (chain / "state.json").rename(chain / "state_000.json")
        (chain / "alerts.jsonl").rename(chain / "alerts_000.jsonl")
        if name:
            path = chain / name
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1),
                            encoding="utf-8")
        ops = Ops()
        daily.check(ops, config, work, chain, work / "cli.log")
        return ops.failed

    _require(chain_check("", "", "") == 0,
             "split-run check accepts an equal checkpoint and equal alerts")
    _require(chain_check("state_000.json", '"current_day":', '"current_day":1') == 1,
             "an altered chained checkpoint counts as a failure")
    _require(chain_check("alerts_000.jsonl", '"user_count":', '"user_count":1') == 1,
             "an altered chained alert line counts as a failure")


def main() -> int:
    _workloads_pass()
    work = WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _tampering_is_caught(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
