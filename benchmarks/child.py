"""One fresh interpreter per measured job, and one for the load generator.

    python3 benchmarks/child.py SPEC.json

The benchmark starts this script with ``src`` on PYTHONPATH. SPEC is a
JSON object:

- ``mode``: ``inputs`` (generate and write a workload's input files),
  ``cli`` (call ``signalamp.cli.main`` on each argv in turn, stopping at
  the first nonzero exit) or ``replica`` (the traced replica of the same
  calls);
- ``calls``: the argv lists;
- ``log``: file that receives the calls' standard output;
- ``run_id``: the id the replica's spans carry;
- ``workload``, ``seed``, ``small``, ``inputs``: in ``inputs`` mode, the
  scenario to generate and the directory to write it to;
- ``result``: file this script writes its result JSON to.

The result holds ``ready``, the CLOCK_MONOTONIC reading once
``import signalamp.cli`` has returned (that clock is system-wide, so the
parent can subtract its own launch reading), the calls' exit codes,
``job_s`` in ``cli`` mode, the spans in ``replica`` mode, the input size
and load-generation times in ``inputs`` mode, and the process's peak
RSS at exit twice: ``getrusage`` ``ru_maxrss``, which also counts the
peak of the process that started this one, and ``VmHWM``, the peak of
this interpreter's own address space.
"""

import time

import signalamp.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after READY, so set-up time is the package import)
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402


def _vm_hwm_mb() -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"ready": READY, "exit_codes": []}
    if spec["mode"] == "inputs":
        import harness

        workload = harness.WORKLOADS[spec["workload"]]
        config = workload.scenario(spec["seed"], spec["small"])
        size, result["generate_s"], result["write_s"] = harness.prepare_inputs(
            workload, config, Path(spec["inputs"]))
        result["size"] = vars(size)
    else:
        with open(spec["log"], "w", encoding="utf-8") as log, redirect_stdout(log):
            if spec["mode"] == "cli":
                start = time.perf_counter()
                for argv in spec["calls"]:
                    code = signalamp.cli.main(argv)
                    result["exit_codes"].append(code)
                    if code != 0:
                        break
                result["job_s"] = time.perf_counter() - start
            else:
                import replica

                tracer = replica.Tracer(spec["run_id"])
                replica.run_calls(tracer, spec["calls"])
                result["exit_codes"] = [0] * len(spec["calls"])
                result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["vm_hwm_mb"] = _vm_hwm_mb()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
