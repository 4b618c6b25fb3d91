"""End-to-end command line tests, driving main() in process."""

import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from signalamp.backtest import run_backtest
from signalamp.cli import CONFIG_KEYS, main
from signalamp.edgefile import (read_edge_days, read_edge_file, write_edge_file,
                                write_ground_truth)
from signalamp.model import runs
from signalamp.scenario import GroundTruth, generate, preset, scenario_from_dict

from reference import v1_payload

SCENARIO_BLOCK = {
    "seed": 5,
    "days": 4,
    "n_users": 800,
    "n_nodes": 20,
    "background_txn_per_user_per_day": 0.5,
    "background_rates": {"sig": 0.05},
    "attack": {
        "n_sybil": 40,
        "k_cashout": 2,
        "start_day": 1,
        "end_day": 3,
        "txn_per_sybil_per_day": 3.0,
        "sybil_rates": {"sig": 0.9},
    },
}


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def dataset(tmp_path, capsys):
    """A generated labeled dataset plus its config file."""
    out = tmp_path / "data"
    out.mkdir()
    config = write_config(tmp_path, scenario=SCENARIO_BLOCK, output_dir=str(out))
    code, _, err = invoke(capsys, "generate", "--config", config)
    assert code == 0, err
    return out


class TestGenerate:
    def test_writes_both_files_and_reports_shape(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        config = write_config(tmp_path, scenario=SCENARIO_BLOCK,
                              output_dir=str(out))
        code, stdout, _ = invoke(capsys, "generate", "--config", config)
        assert code == 0
        assert (out / "edges.csv").exists()
        assert (out / "ground_truth.json").exists()
        assert "seed 5, days 4, users 800, nodes 20" in stdout
        assert "ratio 20.0:1" in stdout

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            out.mkdir()
            config = write_config(tmp_path, name=f"{name}.json",
                                  scenario=SCENARIO_BLOCK, output_dir=str(out))
            assert invoke(capsys, "generate", "--config", config)[0] == 0
            outputs.append(out)
        first, second = outputs
        assert (first / "edges.csv").read_bytes() == (second / "edges.csv").read_bytes()
        assert (first / "ground_truth.json").read_bytes() == \
            (second / "ground_truth.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        config = write_config(tmp_path, scenario=SCENARIO_BLOCK,
                              output_dir=str(out))
        code, stdout, _ = invoke(capsys, "generate", "--config", config,
                                 "--seed", "99")
        assert code == 0
        assert "seed 99" in stdout

    def test_missing_output_dir_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, scenario=SCENARIO_BLOCK,
                              output_dir=str(tmp_path / "absent"))
        code, _, err = invoke(capsys, "generate", "--config", config)
        assert code == 1
        assert err.startswith("error:")
        assert "does not exist" in err

    def test_unknown_preset_fails(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "generate", "--preset", "nope",
                              "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")
        assert "nope" in err

    def test_preset_and_scenario_conflict(self, tmp_path, capsys):
        config = write_config(tmp_path, scenario=SCENARIO_BLOCK,
                              output_dir=str(tmp_path))
        code, _, err = invoke(capsys, "generate", "--config", config,
                              "--preset", "calm")
        assert code == 1
        assert "not both" in err

    def test_nothing_to_generate(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "generate", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")

    def test_calm_scenario_reports_no_attack(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        block = {k: v for k, v in SCENARIO_BLOCK.items() if k != "attack"}
        block["n_users"] = 200
        config = write_config(tmp_path, scenario=block, output_dir=str(out))
        code, stdout, _ = invoke(capsys, "generate", "--config", config)
        assert code == 0
        assert "attack: none" in stdout

    def test_misspelled_attack_block_fails_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        block = {k: v for k, v in SCENARIO_BLOCK.items() if k != "attack"}
        block["atack"] = SCENARIO_BLOCK["attack"]
        config = write_config(tmp_path, scenario=block, output_dir=str(out))
        code, stdout, err = invoke(capsys, "generate", "--config", config)
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'atack'" in err
        assert not (out / "edges.csv").exists()


class TestBacktest:
    def test_reports_and_exit_zero(self, dataset, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        code, stdout, err = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--threshold", "10",
            "--out", str(reports),
        )
        assert code == 0, err
        assert "signal sig: max z" in stdout
        assert "(active at threshold 10)" in stdout
        assert "amplification" in stdout
        assert (reports / "sweep_sig.csv").exists()
        assert (reports / "daily_series.csv").exists()
        assert (reports / "summary.csv").exists()

    def test_undefined_amplification_prints_n_a(self, tmp_path, capsys):
        """Calm traffic has no fraud carrier, so no amplification."""
        out = tmp_path / "data"
        out.mkdir()
        block = {k: v for k, v in SCENARIO_BLOCK.items() if k != "attack"}
        config = write_config(tmp_path, scenario=block, output_dir=str(out))
        assert invoke(capsys, "generate", "--config", config)[0] == 0
        code, stdout, err = invoke(
            capsys, "backtest", "--edges", str(out / "edges.csv"),
            "--truth", str(out / "ground_truth.json"))
        assert code == 0, err
        adjudicated = [line for line in stdout.splitlines() if "adjudicated" in line]
        assert adjudicated == ["  adjudicated at 40: precision 0.0000, amplification n/a"]

    def test_planted_ring_caught_cleanly(self, dataset, capsys):
        code, stdout, _ = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--threshold", "10",
        )
        assert code == 0
        adjudicated = next(
            line for line in stdout.splitlines() if "adjudicated at 10" in line
        )
        assert "precision 1.0000" in adjudicated

    def test_bounds_satisfied(self, dataset, capsys):
        code, stdout, _ = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--threshold", "10",
            "--bounds-signal", "sig",
            "--min-precision", "0.9",
            "--min-scr", "0.9",
            "--min-amplification", "1.5",
        )
        assert code == 0
        assert "bounds satisfied for signal sig" in stdout

    def test_bounds_violated_exit_one(self, dataset, capsys):
        code, _, err = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--threshold", "10",
            "--bounds-signal", "sig",
            "--max-flagged-users", "0",
        )
        assert code == 1
        assert "error: bound failed:" in err
        assert "flagged_users" in err

    def test_bounds_without_signal_rejected(self, dataset, capsys):
        code, _, err = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--min-precision", "0.5",
        )
        assert code == 1
        assert "--bounds-signal" in err

    def test_missing_inputs_rejected(self, capsys):
        code, _, err = invoke(capsys, "backtest")
        assert code == 1
        assert err.startswith("error:")

    def test_corrupt_edge_line_named(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = (dataset / "edges.csv").read_text().splitlines()
        lines[2] = "u1,m1,not_a_day,1"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = invoke(
            capsys, "backtest",
            "--edges", str(bad),
            "--truth", str(dataset / "ground_truth.json"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert "line 3" in err

    def test_sweep_from_config_list(self, dataset, tmp_path, capsys):
        config = write_config(tmp_path, sweep=[2, 12])
        code, stdout, _ = invoke(
            capsys, "backtest",
            "--config", config,
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"),
            "--threshold", "10",
        )
        assert code == 0
        assert "      2.0" in stdout
        assert "     12.0" in stdout

    def test_missing_truth_file(self, dataset, capsys):
        code, _, err = invoke(
            capsys, "backtest",
            "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "nowhere.json"),
        )
        assert code == 1
        assert err.startswith("error:")

    def _three_rows(self, tmp_path):
        edges = tmp_path / "three.csv"
        edges.write_text("user,node,day,a,b\nu1,n1,0,1,0\nu2,n1,0,0,1\nu3,n2,1,0,0\n")
        return str(edges)

    def test_missing_out_dir_fails_before_any_work(self, dataset, tmp_path, capsys):
        code, stdout, err = invoke(
            capsys, "backtest", "--edges", self._three_rows(tmp_path),
            "--truth", str(dataset / "ground_truth.json"),
            "--out", str(tmp_path / "nowhere"),
        )
        assert code == 1
        assert err == f"error: output directory {tmp_path / 'nowhere'} does not exist\n"
        assert stdout == ""

    def test_bounds_on_an_undeclared_signal_are_a_bad_argument(self, dataset, tmp_path,
                                                                 capsys):
        edges = self._three_rows(tmp_path)
        code, stdout, err = invoke(
            capsys, "backtest", "--edges", edges,
            "--truth", str(dataset / "ground_truth.json"),
            "--bounds-signal", "ghost", "--min-precision", "0.5",
        )
        assert code == 1
        assert err == (f"error: bounds name unknown signal 'ghost'; "
                       f"{edges} declares a, b\n")
        assert stdout == ""

    def test_signal_name_that_cannot_name_a_sweep_file(self, dataset, tmp_path, capsys):
        """A signal named ``a/b`` would make ``sweep_a/b.csv``: the run
        fails before it prints or writes anything, also the sweep file of
        the valid signal ahead of it."""
        edges = tmp_path / "edges.csv"
        edges.write_text("user,node,day,good,a/b\nu1,m1,0,1,0\nu2,m1,0,0,1\n")
        reports = tmp_path / "reports"
        reports.mkdir()
        code, stdout, err = invoke(
            capsys, "backtest", "--edges", str(edges),
            "--truth", str(dataset / "ground_truth.json"), "--out", str(reports),
        )
        assert code == 1
        assert err.startswith("error: signal 'a/b'") and err.count("\n") == 1
        assert stdout == ""
        assert list(reports.iterdir()) == []


def _shrunk(name):
    """Preset ``name`` with a twentieth of its users, nodes and sybils."""
    config = preset(name)
    attack = config.attack and replace(config.attack,
                                       n_sybil=config.attack.n_sybil // 20,
                                       k_cashout=max(1, config.attack.k_cashout // 20))
    return replace(config, n_users=config.n_users // 20, n_nodes=config.n_nodes // 20,
                   attack=attack)


def _hand_written(tmp_path, text):
    """An edge file of ``text`` and a ground truth with sybil ``s1``."""
    edges = tmp_path / "edges.csv"
    edges.write_text(text)
    truth = tmp_path / "truth.json"
    write_ground_truth(truth, GroundTruth(frozenset({"s1"}), frozenset({"c"}),
                                          {"a": frozenset({"s1"})}))
    return edges, truth


class TestBacktestByDay:
    """``backtest`` reads, folds, scores and aggregates a day at a time;
    what it prints and writes is what the report of ``run_backtest`` over
    the whole file's columns prints and writes."""

    def _both(self, monkeypatch, capsys, tmp_path, edges, truth_path, *flags):
        """(exit code, stdout, stderr, written files) of ``backtest``, and
        of ``backtest`` whose report is ``run_backtest`` over the columns
        of ``read_edge_file``."""
        results = []
        for whole in (False, True):
            out = tmp_path / f"out_{whole}"
            out.mkdir()
            with monkeypatch.context() as patch:
                if whole:
                    def whole_file(days, engine, truth, **settings):
                        for _ in days:
                            pass
                        return run_backtest(read_edge_file(edges)[1], engine.registry,
                                            truth, window=engine.window, **settings)
                    patch.setattr("signalamp.cli.backtest_turns", whole_file)
                code, stdout, err = invoke(capsys, "backtest", "--edges", str(edges),
                                           "--truth", str(truth_path), "--out",
                                           str(out), *flags)
            results.append((code, stdout.replace(str(out), "<out>"), err,
                            {path.name: path.read_bytes() for path in out.iterdir()}))
        return results

    @pytest.mark.parametrize("flags", [
        (), ("--window", "trailing:7", "--sweep", "1,2,40", "--threshold", "5"),
    ], ids=["default", "trailing"])
    @pytest.mark.parametrize("name", ["case1-desk", "case2-desk", "calm"])
    def test_presets_match_the_whole_file_report(self, name, flags, monkeypatch, capsys,
                                                 tmp_path):
        config = _shrunk(name)
        edges, truth = generate(config)
        write_edge_file(tmp_path / "edges.csv", edges, config.signals)
        write_ground_truth(tmp_path / "truth.json", truth)
        by_day, whole = self._both(monkeypatch, capsys, tmp_path, tmp_path / "edges.csv",
                                   tmp_path / "truth.json", *flags)
        assert by_day[0] == 0, by_day[2]
        assert len(by_day[3]) == 2 + len(config.signals)
        assert by_day == whole

    @pytest.mark.parametrize("flags", [
        (), ("--window", "trailing:2", "--threshold", "1"),
    ], ids=["default", "trailing"])
    def test_gap_days_match_the_whole_file_report(self, flags, monkeypatch, capsys,
                                                  tmp_path):
        rows = [row for day in (0, 1, 4, 7)
                for row in [f"u{i},n{i % 3},{day},{int(i % 4 == 0)}" for i in range(12)]
                + [f"s1,c,{day},1"] * (day in (1, 4))]
        edges, truth = _hand_written(tmp_path,
                                     "user,node,day,a\n" + "\n".join(rows) + "\n")
        by_day, whole = self._both(monkeypatch, capsys, tmp_path, edges, truth, *flags)
        assert by_day[0] == 0, by_day[2]
        series = by_day[3]["daily_series.csv"].decode().splitlines()
        assert [line.split(",")[0] for line in series[1:]] == [str(d) for d in range(8)]
        assert by_day == whole

    def test_header_only_file_matches_the_whole_file_report(self, monkeypatch, capsys,
                                                            tmp_path):
        edges, truth = _hand_written(tmp_path, "user,node,day,a\n")
        by_day, whole = self._both(monkeypatch, capsys, tmp_path, edges, truth)
        assert by_day[0] == 0, by_day[2]
        assert by_day[3]["daily_series.csv"] == b"day,signal,flagged_users," \
            b"cumulative_flagged,cumulative_confirmed\n"
        assert by_day == whole

    def test_day_out_of_order_fails_with_the_whole_file_text(self, monkeypatch, capsys,
                                                             tmp_path):
        edges, truth = _hand_written(tmp_path, "user,node,day,a\nu1,n1,0,1\nu2,n1,2,0\n"
                                               "u3,n2,1,1\nu4,n2,3,0\n")
        by_day, whole = self._both(monkeypatch, capsys, tmp_path, edges, truth)
        assert by_day == whole
        assert by_day == (1, "", "error: edge day 1 arrived after day 2 began "
                                  "(sort the stream by day first)\n", {})

    def test_never_reads_the_whole_file(self, dataset, monkeypatch, capsys):
        """``read_edge_file`` returns the whole file; ``backtest`` must not
        call it."""
        def whole_file(path):
            raise AssertionError("backtest read the whole edge file")
        monkeypatch.setattr("signalamp.cli.read_edge_file", whole_file)
        code, stdout, err = invoke(capsys, "backtest",
                                   "--edges", str(dataset / "edges.csv"),
                                   "--truth", str(dataset / "ground_truth.json"))
        assert code == 0, err
        assert "signal sig: max z" in stdout

    def _late_bad_day(self, tmp_path):
        """40,005 lines: day 0 on line 4 comes after day 1 began, and line
        40,005, a chunk past the first the reader hands on, holds day ``x``."""
        rows = ["u1,n1,1,1,0", "u2,n2,1,0,1", "u3,n1,0,1,0"]
        rows += [f"u{i % 97},n{i % 13},2,{i % 2},0" for i in range(40_000)]
        rows.append("u9,n9,x,0,0")
        edges = tmp_path / "bad.csv"
        edges.write_text("user,node,day,a,b\n" + "\n".join(rows) + "\n")
        return edges

    @pytest.mark.parametrize("case", ["unsorted", "truth_not_object", "bounds_ghost"])
    def test_an_error_in_a_later_row_wins(self, case, dataset, tmp_path, capsys):
        """Whatever else fails once the header is read, the error that
        ``backtest`` prints is the reader's, as when it read the whole
        file first."""
        edges = self._late_bad_day(tmp_path)
        truth = dataset / "ground_truth.json"
        flags = []
        if case == "truth_not_object":
            truth = tmp_path / "truth.json"
            truth.write_text("[1,2]")
        elif case == "bounds_ghost":
            flags = ["--bounds-signal", "ghost", "--min-precision", "0.5"]
        reports = tmp_path / "reports"
        reports.mkdir()
        code, stdout, err = invoke(capsys, "backtest", "--edges", str(edges),
                                   "--truth", str(truth), "--out", str(reports), *flags)
        assert code == 1
        assert err == (f"error: {edges}: malformed rows: "
                       "line 40005: day 'x' is not an integer\n")
        assert stdout == ""
        assert list(reports.iterdir()) == []


@pytest.mark.parametrize("window", [[], ["--window", "trailing:1"]],
                         ids=["cumulative", "trailing"])
@pytest.mark.parametrize("command", ["stream", "backtest"])
def test_a_day_without_a_hit_row_matches_coding_every_user(command, window, monkeypatch,
                                                           capsys, tmp_path):
    """Day 1 has no hit row, so its ``read_edge_days`` batch has an empty
    user table; ``stream`` and ``backtest`` print and write what they do
    when every day is cut from ``read_edge_file``'s columns, which code
    every user."""
    rows = [f"u{i},n{i % 3},{day},{int(day != 1 and i % 4 == 0)}"
            for day in (0, 1, 2) for i in range(12)]
    rows += [f"s1,c,{day},1" for day in (0, 2) for _ in range(4)]
    rows.sort(key=lambda row: int(row.split(",")[2]))
    edges, truth = _hand_written(tmp_path, "user,node,day,a\n" + "\n".join(rows) + "\n")
    assert [batch.users for batch in read_edge_days(edges)[1]][1] == []

    def whole_file(path):
        signals, columns = read_edge_file(path)
        return signals, iter([columns[lo:hi] for lo, hi in runs(columns.day)])

    results = []
    for whole in (False, True):
        out = tmp_path / f"out_{whole}"
        out.mkdir()
        argv = {"stream": ["--checkpoint", str(out / "state.json"),
                           "--alerts", str(out / "alerts.jsonl")],
                "backtest": ["--truth", str(truth), "--out", str(out)]}[command]
        with monkeypatch.context() as patch:
            if whole:
                patch.setattr("signalamp.cli.read_edge_days", whole_file)
            code, stdout, err = invoke(capsys, command, "--edges", str(edges),
                                       "--threshold", "1", *window, *argv)
        results.append((code, stdout.replace(str(out), "<out>"), err,
                        {path.name: path.read_bytes() for path in out.iterdir()}))
    assert results[0][0] == 0, results[0][2]
    flagged_on_day_2 = {"stream": b'{"day":2,', "backtest": b"\n2,a,1,"}[command]
    assert flagged_on_day_2 in b"".join(results[0][3].values())
    assert results[0] == results[1]


class TestScore:
    def _toy_edges(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "user,node,day,sig\n"
            + "u1,hot,0,1\n" * 4
            + "u2,hot,0,0\n"
            + "u3,cold1,0,0\n" * 10
            + "u4,cold2,0,1\n"
            + "u4,cold2,0,0\n" * 9
        )
        return str(path)

    def test_hand_checkable_ranking(self, tmp_path, capsys):
        code, stdout, _ = invoke(capsys, "score", "--edges",
                                 self._toy_edges(tmp_path))
        assert code == 0
        assert "baseline rate 0.200000" in stdout
        assert "prior strength 8.33" in stdout
        assert "3 active nodes" in stdout
        top = next(line for line in stdout.splitlines() if " hot " in line)
        fields = top.split()
        assert fields[:5] == ["1", "hot", "5", "4", "0.8000"]
        assert fields[5] == "0.4250"
        assert fields[6] == "1.2578"

    def test_signal_filter(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text(
            "user,node,day,a,b\n"
            "u1,n1,0,1,0\n"
            "u2,n1,0,0,1\n"
            "u3,n2,0,0,0\n"
        )
        code, stdout, _ = invoke(capsys, "score", "--edges", str(path),
                                 "--signal", "b")
        assert code == 0
        assert "signal b:" in stdout
        assert "signal a:" not in stdout

    def test_unknown_signal_rejected(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "score", "--edges",
                              self._toy_edges(tmp_path), "--signal", "ghost")
        assert code == 1
        assert "ghost" in err

    def test_degenerate_signal_reported_inactive(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("user,node,day,sig\nu1,n1,0,0\nu2,n2,0,0\n")
        code, stdout, _ = invoke(capsys, "score", "--edges", str(path))
        assert code == 0
        assert "inactive, no usable baseline" in stdout

    def test_empty_window_reported_inactive(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("user,node,day,a,b\n")
        code, stdout, err = invoke(capsys, "score", "--edges", str(path))
        assert code == 0, err
        assert stdout == ("signal a: inactive, no usable baseline (no transactions)\n"
                          "signal b: inactive, no usable baseline (no transactions)\n")

    def test_window_spec_parsed(self, dataset, capsys):
        code, _, _ = invoke(capsys, "score",
                            "--edges", str(dataset / "edges.csv"),
                            "--window", "trailing:2")
        assert code == 0

    def test_bad_window_spec(self, dataset, capsys):
        code, _, err = invoke(capsys, "score",
                              "--edges", str(dataset / "edges.csv"),
                              "--window", "hourly")
        assert code == 1
        assert "window" in err


class TestStream:
    def test_daily_lines_and_checkpoint(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "state.json"
        alerts = tmp_path / "alerts.jsonl"
        code, stdout, _ = invoke(
            capsys, "stream",
            "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(ckpt),
            "--threshold", "8",
            "--alerts", str(alerts),
        )
        assert code == 0
        days = [l for l in stdout.splitlines() if l.startswith("day ")]
        assert len(days) == 4
        assert days[0].startswith("day 0: sig=")
        assert ckpt.exists()
        lines = alerts.read_text().splitlines()
        assert lines
        parsed = json.loads(lines[0])
        assert set(parsed) == {"day", "signal", "node", "z", "s", "t",
                               "user_count", "users"}
        assert not list(tmp_path.glob("*.tmp"))

    def test_split_run_matches_one_shot(self, dataset, tmp_path, capsys):
        signals, edges = read_edge_file(dataset / "edges.csv")
        early = [e for e in edges if e.day < 2]
        late = [e for e in edges if e.day >= 2]
        for name, part in (("early.csv", early), ("late.csv", late)):
            write_edge_file(tmp_path / name, part, signals)

        whole_ckpt = tmp_path / "whole.json"
        code, whole_out, _ = invoke(
            capsys, "stream",
            "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(whole_ckpt), "--threshold", "8",
        )
        assert code == 0

        mid_ckpt = tmp_path / "mid.json"
        code, first_out, _ = invoke(
            capsys, "stream",
            "--edges", str(tmp_path / "early.csv"),
            "--checkpoint", str(mid_ckpt), "--threshold", "8",
        )
        assert code == 0
        final_ckpt = tmp_path / "final.json"
        code, second_out, _ = invoke(
            capsys, "stream",
            "--edges", str(tmp_path / "late.csv"),
            "--checkpoint", str(final_ckpt),
            "--resume", str(mid_ckpt), "--threshold", "8",
        )
        assert code == 0

        def day_lines(text):
            return [l for l in text.splitlines() if l.startswith("day ")]

        assert day_lines(first_out) + day_lines(second_out) == day_lines(whole_out)
        assert final_ckpt.read_bytes() == whole_ckpt.read_bytes()

    def test_resume_rejects_window_flag(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "state.json"
        assert invoke(
            capsys, "stream",
            "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(ckpt), "--threshold", "8",
        )[0] == 0
        code, _, err = invoke(
            capsys, "stream",
            "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(tmp_path / "next.json"),
            "--resume", str(ckpt), "--window", "trailing:2",
        )
        assert code == 1
        assert "window" in err

    def test_resume_rejects_unknown_signals(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "state.json"
        assert invoke(
            capsys, "stream",
            "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(ckpt), "--threshold", "8",
        )[0] == 0
        widened = tmp_path / "widened.csv"
        original = (dataset / "edges.csv").read_text().splitlines()
        widened.write_text(
            original[0] + ",extra\n"
            + "\n".join(line + ",0" for line in original[1:]) + "\n"
        )
        code, _, err = invoke(
            capsys, "stream",
            "--edges", str(widened),
            "--checkpoint", str(tmp_path / "next.json"),
            "--resume", str(ckpt),
        )
        assert code == 1
        assert "extra" in err

    @pytest.mark.parametrize("case, message", [
        ("bad-row-on-last-day", "line {bad}: bit for 'sig' must be 0 or 1, got '2'"),
        ("day-out-of-order", "edge day 0 arrived after day 3 began"),
        ("resume-before-checkpoint", "edge day 0 arrived after day 4 began"),
        ("alerts-unwritable", "cannot write alerts to"),
        ("alerts-a-directory", "cannot write alerts to"),
        ("bad-row-after-day-out-of-order", "line {bad}: bit for 'sig' must be 0 or 1"),
        ("no-signal-columns", "declares no signal columns"),
    ])
    def test_failed_run_leaves_every_file_as_it_was(self, dataset, tmp_path, capsys,
                                                    case, message):
        """All or nothing: a run that fails prints one error line and no day
        line, leaves the checkpoint and alert targets byte-unchanged and
        leaves no temporary file. A reader error wins over any other."""
        lines = (dataset / "edges.csv").read_text().splitlines(keepends=True)
        edges = tmp_path / "edges.csv"
        ckpt = tmp_path / "state.json"
        alerts = tmp_path / "alerts.jsonl"
        argv = ["stream", "--edges", str(edges), "--threshold", "8",
                "--checkpoint", str(ckpt), "--alerts", str(alerts)]
        cut = len(lines) - 5  # inside the last day
        assert lines[cut].split(",")[2] == lines[-1].split(",")[2] == "3"
        # More than a chunk of the last day, so that the earlier days are
        # read and scored before the reader reaches the rows after it.
        pad = ["uy,ny,3,0\n"] * 30_000
        inserted = {
            "bad-row-on-last-day": pad + ["ux,nx,3,2\n"],
            "day-out-of-order": pad + ["ux,nx,0,1\n"],
            "bad-row-after-day-out-of-order": ["ux,nx,0,1\n"] + pad + ["ux,nx,3,2\n"],
        }.get(case, [])
        edges.write_text("".join(lines[:cut] + inserted + lines[cut:]))
        bad = cut + len(inserted)  # the line number of the last row inserted
        if case == "resume-before-checkpoint":
            base = tmp_path / "base.json"
            assert invoke(capsys, "stream", "--edges", str(dataset / "edges.csv"),
                          "--checkpoint", str(base))[0] == 0
            argv += ["--resume", str(base)]
        elif case == "alerts-unwritable":
            argv[-1] = str(tmp_path / "missing" / "alerts.jsonl")
        elif case == "alerts-a-directory":
            alerts.mkdir()
        elif case == "no-signal-columns":
            edges.write_text("".join(",".join(line.split(",")[:3]) + "\n" for line in lines))
        if not alerts.exists():
            alerts.write_text("earlier alerts\n")
        ckpt.write_text("earlier checkpoint\n")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message.format(bad=bad) in err
        assert out == ""
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert after == before

    def test_memory_follows_the_window_not_the_file(self, tmp_path, capsys):
        """``stream`` holds a day of the file at a time: over 60 days of a
        fixed population its peak traced memory is at most 1.25 times its
        peak over the first 15."""
        scenario = scenario_from_dict({
            "seed": 11, "days": 60, "n_users": 500, "n_nodes": 40,
            "background_txn_per_user_per_day": 5.0,
            "background_rates": {"a": 0.05, "b": 0.02},
            "attack": {"n_sybil": 40, "k_cashout": 2, "start_day": 0, "end_day": 59,
                       "txn_per_sybil_per_day": 1.0, "sybil_rates": {"a": 0.6, "b": 0.02}},
        })
        edges, _ = generate(scenario)
        write_edge_file(tmp_path / "all.csv", edges, scenario.signals)
        write_edge_file(tmp_path / "head.csv", edges[:np.searchsorted(edges.day, 15)],
                        scenario.signals)
        peaks = {}
        for name in ("head", "all"):
            tracemalloc.start()
            try:
                code, _, err = invoke(
                    capsys, "stream", "--edges", str(tmp_path / f"{name}.csv"),
                    "--window", "trailing:3", "--threshold", "5",
                    "--checkpoint", str(tmp_path / f"{name}.json"),
                    "--alerts", str(tmp_path / f"{name}.jsonl"))
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, err
        assert peaks["all"] <= 1.25 * peaks["head"], peaks

    def test_stream_requires_checkpoint_path(self, dataset, capsys):
        code, _, err = invoke(
            capsys, "stream", "--edges", str(dataset / "edges.csv"),
        )
        assert code == 1
        assert "checkpoint" in err


def _files(root):
    """The bytes of every regular file under ``root``, read through links."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestOutputTargets:
    """Each command checks every output target before its first turn or
    write: a link is written through, so that it stays and its target is
    rewritten; a missing directory, or an existing target that is not a
    regular file, fails with one line and leaves every file as it was."""

    def _refused(self, capsys, root, argv, message):
        before = _files(root)
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert _files(root) == before
        assert not [path for path in root.rglob("*") if path.name.endswith(".tmp")]

    def test_stream_checkpoint_through_a_symlink(self, dataset, tmp_path, capsys):
        argv = ["stream", "--edges", str(dataset / "edges.csv"), "--threshold", "8"]
        plain = tmp_path / "plain.json"
        assert invoke(capsys, *argv, "--checkpoint", str(plain))[0] == 0
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("earlier checkpoint\n")
        link.symlink_to(real)
        code, out, err = invoke(capsys, *argv, "--checkpoint", str(link))
        assert code == 0, err
        assert f"checkpoint saved to {link}" in out
        assert link.is_symlink() and link.readlink() == real
        assert real.read_bytes() == plain.read_bytes()
        assert not list(tmp_path.glob(".*.tmp"))

    def test_stream_alerts_to_a_fifo_refused(self, dataset, tmp_path, capsys):
        alerts, ckpt = tmp_path / "alerts.jsonl", tmp_path / "state.json"
        os.mkfifo(alerts)
        ckpt.write_text("earlier checkpoint\n")
        self._refused(capsys, tmp_path, [
            "stream", "--edges", str(dataset / "edges.csv"), "--checkpoint", str(ckpt),
            "--alerts", str(alerts)],
            f"cannot write alerts to {alerts}: it is not a regular file")

    def test_stream_checkpoint_in_a_missing_directory_fails_before_any_turn(
            self, dataset, tmp_path, capsys, monkeypatch):
        def no_turn(*args):
            raise AssertionError("a turn ran before the checkpoint target was checked")
        monkeypatch.setattr("signalamp.cli.replay_turns", no_turn)
        ckpt = tmp_path / "nodir" / "state.json"
        self._refused(capsys, tmp_path, [
            "stream", "--edges", str(dataset / "edges.csv"), "--checkpoint", str(ckpt)],
            f"cannot write checkpoint to {ckpt}: output directory {ckpt.parent} "
            "does not exist")

    def test_stream_checkpoint_in_an_unwritable_directory_refused(
            self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("signalamp.cli.replay_turns", None)
        monkeypatch.setattr("signalamp.model.os.access", lambda path, mode: False)
        ckpt = tmp_path / "state.json"
        self._refused(capsys, tmp_path, [
            "stream", "--edges", str(dataset / "edges.csv"), "--checkpoint", str(ckpt)],
            f"cannot write checkpoint to {ckpt}: output directory {tmp_path} "
            "is not writable")

    def test_backtest_report_to_a_fifo_refused(self, dataset, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        os.mkfifo(reports / "summary.csv")
        self._refused(capsys, tmp_path, [
            "backtest", "--edges", str(dataset / "edges.csv"),
            "--truth", str(dataset / "ground_truth.json"), "--out", str(reports)],
            f"cannot write report to {reports / 'summary.csv'}: it is not a regular file")
        assert [path.name for path in reports.iterdir()] == ["summary.csv"]

    @pytest.mark.parametrize("fifo", [True, False], ids=["fifo_truth", "plain_truth"])
    def test_generate_through_a_symlink(self, tmp_path, capsys, fifo):
        plain, out = tmp_path / "plain", tmp_path / "out"
        plain.mkdir()
        out.mkdir()
        argv = ["generate", "--preset", "calm", "--seed", "3", "--out"]
        assert invoke(capsys, *argv, str(plain))[0] == 0
        real, link = tmp_path / "real.csv", out / "edges.csv"
        real.write_text("earlier edges\n")
        link.symlink_to(real)
        if fifo:
            os.mkfifo(out / "ground_truth.json")
            self._refused(capsys, tmp_path, [*argv, str(out)],
                          f"cannot write ground truth to {out / 'ground_truth.json'}: "
                          "it is not a regular file")
        else:
            code, _, err = invoke(capsys, *argv, str(out))
            assert code == 0, err
            assert real.read_bytes() == (plain / "edges.csv").read_bytes()
            assert (out / "ground_truth.json").read_bytes() == \
                (plain / "ground_truth.json").read_bytes()
        assert link.is_symlink() and link.readlink() == real


class TestConfigHandling:
    def test_readme_names_every_config_key(self):
        """README's "Config files" section lists, per subcommand, the keys
        of ``CONFIG_KEYS``, the table the unknown-key check reads."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
        assert set(CONFIG_KEYS) == {"generate", "backtest", "score", "stream"}
        for command, keys in CONFIG_KEYS.items():
            line = f"- `{command}`: " + ", ".join(f"`{key}`" for key in keys) + "\n"
            assert line in section

    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = invoke(capsys, "score", "--config",
                              str(tmp_path / "none.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        code, _, err = invoke(capsys, "score", "--config", str(path))
        assert code == 1
        assert "JSON object" in err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = invoke(capsys, "score", "--config", str(path))
        assert code == 1
        assert "not valid JSON" in err


def _good_checkpoint(dataset, tmp_path, capsys):
    """A stream run's checkpoint as the format v1 payload of its state."""
    return v1_payload(_good_checkpoint_v2(dataset, tmp_path, capsys))


def _good_checkpoint_v2(dataset, tmp_path, capsys):
    path = tmp_path / "good.json"
    code, _, err = invoke(capsys, "stream", "--edges", str(dataset / "edges.csv"),
                          "--checkpoint", str(path))
    assert code == 0, err
    return json.loads(path.read_text(encoding="utf-8"))


def _edges_bad_byte(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"user,node,day,sig\nu1,n\xff1,0,1\n")
    return bad, ["score", "--edges", str(bad)]


def _edges_oversized_field(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user,node,day,sig\n\"" + "u" * 200_000 + "\",n1,0,1\n")
    return bad, ["score", "--edges", str(bad)]


def _truth_bad_byte(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"sybil_users": ["s\xff"]}')
    return bad, ["backtest", "--edges", str(dataset / "edges.csv"),
                 "--truth", str(bad)]


def _truth_with(dataset, tmp_path, **fields):
    bad = tmp_path / "bad.json"
    truth = json.loads((dataset / "ground_truth.json").read_text(encoding="utf-8"))
    bad.write_text(json.dumps({**truth, **fields}), encoding="utf-8")
    return bad, ["backtest", "--edges", str(dataset / "edges.csv"),
                 "--truth", str(bad)]


def _truth_carriers_list(dataset, tmp_path, capsys):
    return _truth_with(dataset, tmp_path, carriers=[])


def _truth_sybil_users_text(dataset, tmp_path, capsys):
    return _truth_with(dataset, tmp_path, sybil_users="abc")


def _truth_cashout_node_number(dataset, tmp_path, capsys):
    return _truth_with(dataset, tmp_path, cashout_nodes=["c0", 1])


def _config_bad_byte(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"edges": "\xff"}')
    return bad, ["score", "--config", str(bad)]


def _resume_from(bad, dataset, tmp_path):
    return ["stream", "--edges", str(dataset / "edges.csv"),
            "--checkpoint", str(tmp_path / "next.json"), "--resume", str(bad)]


def _checkpoint_bad_byte(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format_version": 1, "\xff": 0}')
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_not_object(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_without_active_nodes(dataset, tmp_path, capsys):
    payload = _good_checkpoint(dataset, tmp_path, capsys)
    del payload["totals"]["active_nodes"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_nodes_not_object(dataset, tmp_path, capsys):
    payload = _good_checkpoint(dataset, tmp_path, capsys)
    payload["nodes"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _tampered_node(dataset, tmp_path, capsys, **fields):
    payload = _good_checkpoint(dataset, tmp_path, capsys)
    node = min(payload["nodes"])
    payload["nodes"][node].update(fields)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_hits_above_trials(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, t=1, s={"sig": 2})


def _checkpoint_negative_hits(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, s={"sig": -1})


def _checkpoint_fractional_trials(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, t=1.5)


def _checkpoint_bool_trials(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, t=True)


def _checkpoint_trials_beyond_int64(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, t=2**63)


def _checkpoint_unregistered_signal(dataset, tmp_path, capsys):
    return _tampered_node(dataset, tmp_path, capsys, s={"ghost": 1})


def _checkpoint_ghost_node(dataset, tmp_path, capsys):
    payload = _good_checkpoint(dataset, tmp_path, capsys)
    payload["nodes"]["ghost"] = {"t": 0, "s": {}}
    payload["totals"]["active_nodes"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_entry(dataset, tmp_path, capsys, **fields):
    payload = _good_checkpoint(dataset, tmp_path, capsys)
    payload.update(fields)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_untracked(dataset, tmp_path, capsys):
    return _checkpoint_entry(dataset, tmp_path, capsys, track_users=False)


def _checkpoint_track_users_text(dataset, tmp_path, capsys):
    return _checkpoint_entry(dataset, tmp_path, capsys, track_users="yes")


def _checkpoint_duplicate_signal(dataset, tmp_path, capsys):
    signals = [{"signal": "sig", "description": ""}] * 2
    return _checkpoint_entry(dataset, tmp_path, capsys, signals=signals)


def _checkpoint_signal_not_text(dataset, tmp_path, capsys):
    signals = [{"signal": "sig", "description": ""}, {"signal": 5}]
    return _checkpoint_entry(dataset, tmp_path, capsys, signals=signals)


def _tampered_v2(dataset, tmp_path, capsys, tamper):
    """A v2 checkpoint whose one day entry (a cumulative window's) went
    through ``tamper(entry, m)``, m being its number of nodes."""
    payload = _good_checkpoint_v2(dataset, tmp_path, capsys)
    (entry,) = payload["days"].values()
    tamper(entry, len(entry["counts"]) // (2 + len(payload["signals"])))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _checkpoint_v2_bool_count(dataset, tmp_path, capsys):
    def tamper(entry, m):
        entry["counts"][m] = True  # the first node's trial count
    return _tampered_v2(dataset, tmp_path, capsys, tamper)


def _checkpoint_v2_user_row_of_absent_node(dataset, tmp_path, capsys):
    def tamper(entry, m):
        # Drop the counts column of the node the first user row names.
        column = entry["counts"][:m].index(entry["users"][0])
        entry["counts"] = [v for i, v in enumerate(entry["counts"]) if i % m != column]
    return _tampered_v2(dataset, tmp_path, capsys, tamper)


def _checkpoint_v2_unsorted_node_ids(dataset, tmp_path, capsys):
    payload = _good_checkpoint_v2(dataset, tmp_path, capsys)
    payload["nodes"].reverse()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad, _resume_from(bad, dataset, tmp_path)


def _edges_args(dataset):
    return ["--edges", str(dataset / "edges.csv")]


def _backtest_args(dataset):
    return ["backtest", *_edges_args(dataset),
            "--truth", str(dataset / "ground_truth.json")]


def _stream_args(dataset, tmp_path):
    return ["stream", *_edges_args(dataset),
            "--checkpoint", str(tmp_path / "state.json")]


def _threshold_nan(dataset, tmp_path, capsys):
    return "nan", [*_backtest_args(dataset), "--threshold", "nan"]


def _threshold_inf(dataset, tmp_path, capsys):
    return "inf", [*_stream_args(dataset, tmp_path), "--threshold", "inf"]


def _sweep_nan(dataset, tmp_path, capsys):
    return "nan", [*_backtest_args(dataset), "--sweep", "40,nan"]


def _config_threshold_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, threshold="abc")
    return "'abc'", [*_stream_args(dataset, tmp_path), "--config", config]


def _config_threshold_bool(dataset, tmp_path, capsys):
    config = write_config(tmp_path, threshold=True)
    return "True", [*_stream_args(dataset, tmp_path), "--config", config]


def _config_window_number(dataset, tmp_path, capsys):
    config = write_config(tmp_path, window=5)
    return "5", [*_stream_args(dataset, tmp_path), "--config", config]


def _config_window_days_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, window={"mode": "trailing", "trailing_days": "x"})
    return "'x'", [*_stream_args(dataset, tmp_path), "--config", config]


def _config_top_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, top="x")
    return "'x'", ["score", *_edges_args(dataset), "--config", config]


def _top_negative(dataset, tmp_path, capsys):
    return "-3", ["score", *_edges_args(dataset), "--top", "-3"]


def _config_bounds_list(dataset, tmp_path, capsys):
    config = write_config(tmp_path, bounds=["sig", 0.5])
    return "['sig', 0.5]", [*_backtest_args(dataset), "--config", config]


def _config_bounds_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, bounds="sig")
    return "'sig'", [*_backtest_args(dataset), "--config", config]


def _config_min_precision_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, bounds={"signal": "sig", "min_precision": "abc"})
    return "'abc'", [*_backtest_args(dataset), "--config", config]


def _config_max_flagged_users_fraction(dataset, tmp_path, capsys):
    config = write_config(tmp_path, bounds={"signal": "sig", "max_flagged_users": 1.5})
    return "1.5", [*_backtest_args(dataset), "--config", config]


def _unknown_key(command, key):
    return f"unknown key {key!r}; {command} reads {', '.join(CONFIG_KEYS[command])}"


def _config_generate_misspelled_key(dataset, tmp_path, capsys):
    config = write_config(tmp_path, preset="calm", ouput_dir=str(tmp_path))
    return _unknown_key("generate", "ouput_dir"), ["generate", "--config", config]


def _config_backtest_misspelled_key(dataset, tmp_path, capsys):
    config = write_config(tmp_path, treshold=5)
    return _unknown_key("backtest", "treshold"), [*_backtest_args(dataset),
                                                  "--config", config]


def _config_score_misspelled_key(dataset, tmp_path, capsys):
    config = write_config(tmp_path, tpo=5)
    return _unknown_key("score", "tpo"), ["score", *_edges_args(dataset),
                                          "--config", config]


def _config_stream_misspelled_key(dataset, tmp_path, capsys):
    config = write_config(tmp_path, windw="trailing:3")
    return _unknown_key("stream", "windw"), [*_stream_args(dataset, tmp_path),
                                             "--config", config]


def _config_stream_alerts(dataset, tmp_path, capsys):
    """``--alerts``, like ``--resume``, is a flag only."""
    config = write_config(tmp_path, alerts=str(tmp_path / "alerts.jsonl"))
    return _unknown_key("stream", "alerts"), [*_stream_args(dataset, tmp_path),
                                              "--config", config]


def _config_seed_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, preset="calm", seed="abc", output_dir=str(tmp_path))
    return "'abc'", ["generate", "--config", config]


def _edges_no_signal_columns(dataset, tmp_path, capsys):
    bad = tmp_path / "nosignals.csv"
    bad.write_text("user,node,day\nu1,n1,0\n")
    return bad, ["score", "--edges", str(bad)]


def _edges_empty_signal_name(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user,node,day,\nu1,n1,0,1\n")
    return bad, ["stream", "--edges", str(bad),
                 "--checkpoint", str(tmp_path / "state.json")]


def _generate_with(tmp_path, **block_fields):
    config = write_config(tmp_path, scenario={**SCENARIO_BLOCK, **block_fields},
                          output_dir=str(tmp_path))
    return ["generate", "--config", config]


def _scenario_not_object(dataset, tmp_path, capsys):
    config = write_config(tmp_path, scenario=[1], output_dir=str(tmp_path))
    return "[1]", ["generate", "--config", config]


def _scenario_rates_not_object(dataset, tmp_path, capsys):
    return "background_rates", _generate_with(tmp_path, background_rates=[1])


def _scenario_seed_fraction(dataset, tmp_path, capsys):
    return "seed must be an integer, got 1.5", _generate_with(tmp_path, seed=1.5)


def _scenario_days_fraction(dataset, tmp_path, capsys):
    return "days must be an integer, got 2.5", _generate_with(tmp_path, days=2.5)


def _preset_not_text(dataset, tmp_path, capsys):
    config = write_config(tmp_path, preset=[1], output_dir=str(tmp_path))
    return "unknown preset [1]", ["generate", "--config", config]


def _scenario_rate_nan(dataset, tmp_path, capsys):
    return ("background_txn_per_user_per_day must lie in [0, 1000], got nan",
            _generate_with(tmp_path, background_txn_per_user_per_day=float("nan")))


def _scenario_rate_huge(dataset, tmp_path, capsys):
    return ("background_txn_per_user_per_day must lie in [0, 1000], got 1e+30",
            _generate_with(tmp_path, background_txn_per_user_per_day=1e30))


def _scenario_rate_infinite(dataset, tmp_path, capsys):
    return ("background_txn_per_user_per_day must lie in [0, 1000], got inf",
            _generate_with(tmp_path, background_txn_per_user_per_day=float("inf")))


class TestUnreadableInput:
    """Every bad input file or argument fails with one named error line,
    never a traceback."""

    @pytest.mark.parametrize("make_case", [
        _edges_bad_byte,
        _edges_oversized_field,
        _truth_bad_byte,
        _truth_carriers_list,
        _truth_sybil_users_text,
        _truth_cashout_node_number,
        _config_bad_byte,
        _checkpoint_bad_byte,
        _checkpoint_not_object,
        _checkpoint_without_active_nodes,
        _checkpoint_nodes_not_object,
        _checkpoint_hits_above_trials,
        _checkpoint_negative_hits,
        _checkpoint_fractional_trials,
        _checkpoint_bool_trials,
        _checkpoint_trials_beyond_int64,
        _checkpoint_unregistered_signal,
        _checkpoint_ghost_node,
        _checkpoint_untracked,
        _checkpoint_track_users_text,
        _checkpoint_duplicate_signal,
        _checkpoint_signal_not_text,
        _checkpoint_v2_bool_count,
        _checkpoint_v2_user_row_of_absent_node,
        _checkpoint_v2_unsorted_node_ids,
        _threshold_nan,
        _threshold_inf,
        _sweep_nan,
        _config_threshold_text,
        _config_threshold_bool,
        _config_window_number,
        _config_window_days_text,
        _config_top_text,
        _top_negative,
        _config_bounds_list,
        _config_bounds_text,
        _config_min_precision_text,
        _config_max_flagged_users_fraction,
        _config_seed_text,
        _config_generate_misspelled_key,
        _config_backtest_misspelled_key,
        _config_score_misspelled_key,
        _config_stream_misspelled_key,
        _config_stream_alerts,
        _edges_empty_signal_name,
        _edges_no_signal_columns,
        _scenario_not_object,
        _scenario_rates_not_object,
        _scenario_seed_fraction,
        _scenario_days_fraction,
        _preset_not_text,
        _scenario_rate_nan,
        _scenario_rate_huge,
        _scenario_rate_infinite,
    ], ids=lambda fn: fn.__name__.lstrip("_"))
    def test_named_error_without_traceback(self, make_case, dataset, tmp_path, capsys):
        bad, argv = make_case(dataset, tmp_path, capsys)
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("day", ["1_0", "+1", " 1", "1 ", "-0", "\u0661"])
    @pytest.mark.parametrize("command", ["stream", "backtest", "score"])
    def test_day_text_is_ascii_digits(self, command, day, dataset, tmp_path, capsys):
        """A day is ASCII decimal digits: any other text that ``int()``
        reads is a bad row, on the split path and the row parser alike."""
        for name, tail in [("split", ""), ("quoted", '"u3",n1,1,0\n')]:
            bad = tmp_path / f"{name}.csv"
            bad.write_text(f"user,node,day,sig\nu1,n1,0,1\nu2,n1,{day},0\n{tail}",
                           encoding="utf-8")
            argv = {"stream": ["--checkpoint", str(tmp_path / "state.json")],
                    "backtest": ["--truth", str(dataset / "ground_truth.json")],
                    "score": []}[command]
            code, out, err = invoke(capsys, command, "--edges", str(bad), *argv)
            assert (code, out) == (1, "")
            assert err == (f"error: {bad}: malformed rows: "
                           f"line 3: day {day!r} is not an integer\n")

    @pytest.mark.parametrize("command", ["stream", "backtest"])
    def test_a_bad_row_wins_over_no_signal_columns(self, command, dataset, tmp_path,
                                                   capsys):
        """``stream`` and ``backtest`` open an edge file the same way, so a
        file with no signal column and a bad row 40,004 lines on gives both
        the reader's error."""
        bad = tmp_path / "nosignals.csv"
        bad.write_text("user,node,day\n" + "u1,n1,0\n" * 40_002 + "u9,n9,x\n")
        argv = {"stream": ["--checkpoint", str(tmp_path / "state.json")],
                "backtest": ["--truth", str(dataset / "ground_truth.json")]}[command]
        code, out, err = invoke(capsys, command, "--edges", str(bad), *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: malformed rows: "
                       "line 40004: day 'x' is not an integer\n")
