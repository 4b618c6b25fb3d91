"""Public API guard: the top-level names, and every package name the
benchmark scripts import, must keep resolving."""

import ast
import importlib
from pathlib import Path

import signalamp

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_top_level_names_are_the_readme_library_api():
    assert signalamp.__all__ == [
        "SignalRegistry",
        "StreamEngine",
        "TransactionEdge",
        "replay_daily",
        "run_backtest",
        "shrink",
        "z_score",
        "compute_baseline",
        "score_all",
    ]
    for name in signalamp.__all__:
        assert hasattr(signalamp, name), name


def benchmark_imports():
    """(file, module, name) for every package import in the benchmark scripts."""
    found = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "signalamp":
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "signalamp"]
    return found


def test_benchmark_imports_resolve():
    imports = benchmark_imports()
    assert {"replica.py", "harness.py"} <= {source for source, _, _ in imports}
    missing = []
    for source, module, name in imports:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{source}: {module}.{name}")
    assert not missing
