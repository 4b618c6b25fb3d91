"""Public API guard: the top-level names, and every package name the
benchmark scripts import, must keep resolving; every public name of the
package has a user outside the tests; and the package writes files only
through ``model.replace_on_success``."""

import ast
import bisect
import importlib
import re
from operator import attrgetter
from pathlib import Path

import pytest

import signalamp
from signalamp.backtest import raw_signal_baseline
from signalamp.cli import main
from signalamp.edgefile import read_edge_file, write_edge_file
from signalamp.engine import StreamEngine, WindowConfig, replay_daily
from signalamp.model import SignalRegistry
from signalamp.scenario import generate, scenario_from_dict

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
PACKAGE = Path(signalamp.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_top_level_names_are_the_readme_library_api():
    assert signalamp.__all__ == [
        "SignalRegistry",
        "StreamEngine",
        "TransactionEdge",
        "replay_daily",
        "run_backtest",
        "shrink",
        "z_score",
    ]
    for name in signalamp.__all__:
        assert hasattr(signalamp, name), name


def benchmark_trees():
    """(file name, syntax tree) of every benchmark script."""
    for path in sorted(BENCHMARKS.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def benchmark_imports():
    """(file, module, name) for every package import in the benchmark scripts."""
    found = []
    for source, tree in benchmark_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "signalamp":
                found += [(source, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(source, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "signalamp"]
    return found


def benchmark_engine_attributes():
    """(file, name) for every ``engine.<name>`` and ``StreamEngine.<name>``
    the benchmark scripts use."""
    return sorted({
        (source, node.attr)
        for source, tree in benchmark_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("engine", "StreamEngine")
    })


def test_benchmark_imports_resolve():
    imports = benchmark_imports()
    assert {"replica.py", "harness.py"} <= {source for source, _, _ in imports}
    missing = []
    for source, module, name in imports:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{source}: {module}.{name}")
    assert not missing


def test_benchmark_engine_attributes_resolve():
    used = benchmark_engine_attributes()
    assert {"ingest", "advance_to", "scores", "hit_users", "node_hit_users",
            "save_checkpoint", "load_checkpoint"} <= {name for _, name in used}
    engine = StreamEngine(SignalRegistry(["sig"]))
    missing = [f"{source}: {name}" for source, name in used
               if not hasattr(engine, name)]
    assert not missing


def used_names(paths):
    """Every name that the code of ``paths`` loads, imports or reads as an
    attribute; a definition is not a use."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.parent == BENCHMARKS:
                used.update(alias.name for alias in node.names)
    return used


def readme_names():
    """Every identifier in README.md's code: fenced blocks and backticked
    spans."""
    parts = README.read_text(encoding="utf-8").split("```")
    spans = [*parts[1::2],
             *(span for text in parts[::2] for span in re.findall(r"`([^`]+)`", text))]
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_user():
    """Each public module-level function and class of the package, and each
    public method, is used by package code or a benchmark script, or named
    in README.md's code, so that no package code lives for the tests
    alone. Names are matched by their last part."""
    users = used_names(sorted(PACKAGE.glob("*.py"))) \
        | used_names(sorted(BENCHMARKS.glob("*.py"))) | readme_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            unused += [f"{path.name}: {name}" for name in names
                       if name.rsplit(".", 1)[-1] not in users]
    assert not unused


def file_writes(tree):
    """The calls and imports in ``tree`` that can write a file: ``open`` or
    ``.open`` with a mode that writes or a mode that is not a string
    literal, ``.write_text``, ``.write_bytes`` and ``os.replace``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and "replace" in {alias.name for alias in node.names}:
            yield node
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and (
                name in ("write_text", "write_bytes")
                or name == "replace" and ast.unparse(func.value) == "os"):
            yield node
        elif name == "open":
            # open(file, mode), but <path>.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str) \
                    or set(mode.value) & set("wax+"):
                yield node


def test_every_file_write_goes_through_replace_on_success():
    """No code in the package outside ``model.replace_on_success`` opens a
    file for writing, or calls ``write_text``, ``write_bytes`` or
    ``os.replace``, so every output file is replaced whole or left as it
    was."""
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [node for node in ast.walk(tree) if path.name == "model.py"
                  and isinstance(node, ast.FunctionDef)
                  and node.name == "replace_on_success"]
        for node in file_writes(tree):
            if any(h.lineno <= node.lineno <= h.end_lineno for h in helper):
                inside.append(ast.unparse(node.func))
            else:
                outside.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert sorted(inside) == ["open", "os.replace"]
    assert not outside


def test_edge_file_result_supports_what_the_replica_does(tmp_path):
    """``benchmarks/replica.py`` takes ``read_edge_file``'s edges through
    ``len``, ``[-1]``, slices, ``bisect_right`` by day, per-edge ingest and
    ``raw_signal_baseline``; each must keep working on the columns."""
    scenario = scenario_from_dict({
        "seed": 3, "days": 6, "n_users": 400, "n_nodes": 15,
        "background_txn_per_user_per_day": 0.5,
        "background_rates": {"a": 0.05, "b": 0.02},
        "attack": {"n_sybil": 30, "k_cashout": 2, "start_day": 2, "end_day": 4,
                   "txn_per_sybil_per_day": 2.0, "sybil_rates": {"a": 0.9, "b": 0.02}},
    })
    edges, truth = generate(scenario)
    path = tmp_path / "edges.csv"
    write_edge_file(path, edges, scenario.signals)
    signals, columns = read_edge_file(path)
    assert len(columns) == len(edges) and columns[-1] == edges[-1]

    registry = SignalRegistry(signals)
    engine = StreamEngine(registry, window=WindowConfig.trailing(2))
    day_of = attrgetter("day")
    lo = 0
    for day in range(columns[0].day, columns[-1].day + 1):
        hi = bisect.bisect_right(columns, day, lo=lo, key=day_of)
        day_edges = columns[lo:hi]
        assert list(day_edges) == [e for e in edges if e.day == day]
        for edge in day_edges:
            engine.ingest(edge)
        engine.advance_to(day)
        lo = hi
    assert lo == len(edges)
    replayed = replay_daily(columns, registry, threshold=40.0,
                            window=WindowConfig.trailing(2))
    assert engine.checkpoint_payload() == replayed.engine.checkpoint_payload()
    for signal in signals:
        carriers = {e.user for e in edges if e.hits.get(signal)}
        raw = raw_signal_baseline(columns, truth, signal)
        assert raw.carriers == len(carriers)
        assert raw.fraud_carriers == len(carriers & truth.sybil_users)


@pytest.mark.parametrize("name", ["case1-backtest", "wide-trailing", "daily-resume"])
def test_replica_writes_the_cli_bytes(name, tmp_path, monkeypatch, capsys):
    """A traced benchmark run fails unless ``benchmarks/replica.py``, which
    builds the package's result types by position and ingests edge by
    edge, writes the bytes the CLI writes; check that on small inputs."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    harness = importlib.import_module("harness")
    replica = importlib.import_module("replica")
    workload = harness.WORKLOADS[name]
    inputs, by_cli, by_replica = (tmp_path / part for part in
                                  ("inputs", "cli", "replica"))
    for directory in (inputs, by_cli, by_replica):
        directory.mkdir()
    harness.prepare_inputs(workload, workload.scenario(3, True), inputs)
    for argv in workload.calls(inputs, by_cli):
        assert main(argv) == 0, argv
    replica.run_calls(replica.Tracer(name), workload.calls(inputs, by_replica))
    capsys.readouterr()
    assert harness.digest(by_cli)
    assert harness.digest(by_replica) == harness.digest(by_cli)
