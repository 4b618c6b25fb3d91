#!/usr/bin/env python3
"""Benchmark of the signalamp daily batch job, end to end and per layer.

    python3 benchmarks/run.py --workload case1-backtest --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` times the real CLI in fresh
child interpreters and reports the end-to-end metrics; ``--trace 1``
also runs the traced replica and reports the per-layer metrics. Metric
names, units and workloads are those listed in ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``error_rate`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "signalamp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "signalamp" / "cli.py").is_file():
        print(f"error: no signalamp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    loadavg = _loadavg()
    sys.path.insert(0, str(SRC))
    import numpy

    from harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    size = result.size
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{result.reps} reps in {args.seconds:g} s")
    print(f"commit {_commit()}, source sha256 {_source_sha256()[:16]}")
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {len(os.sched_getaffinity(0))}, loadavg at start {loadavg}")
    print(f"input: {size.edges} edges, {size.days} days, {size.nodes} nodes, "
          f"{size.signals} signals; generated in a child process of its own; "
          "read warm from the page cache (no cache is dropped)")
    print("benchmark process peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB "
          "(a floor under every child's ru_maxrss)")
    metrics = {}
    for entry in listed:
        value = result.metrics.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<32} {value:>16.6f} {entry['unit']}")
    print("  untraced job_s per rep: " + " ".join(f"{t:.3f}" for t in result.job_s))
    ops = result.ops
    print(f"  {'error_rate':<32} {ops.error_rate:>16.6f} ratio "
          f"({ops.failed} failed of {ops.attempted} operations)")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
