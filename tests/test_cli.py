"""End-to-end command line tests, driving main() in process."""

import json

import pytest

from signalamp.cli import main
from signalamp.edgefile import read_edge_file, write_edge_file

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

    def test_stream_requires_checkpoint_path(self, dataset, capsys):
        code, _, err = invoke(
            capsys, "stream", "--edges", str(dataset / "edges.csv"),
        )
        assert code == 1
        assert "checkpoint" in err


class TestConfigHandling:
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


class TestUnreadableInput:
    """Every bad input file or argument fails with one named error line,
    never a traceback."""

    @pytest.mark.parametrize("make_case", [
        _edges_bad_byte,
        _edges_oversized_field,
        _truth_bad_byte,
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
        _threshold_nan,
        _threshold_inf,
        _sweep_nan,
        _config_threshold_text,
        _config_threshold_bool,
        _config_window_number,
        _config_window_days_text,
        _config_top_text,
        _top_negative,
    ], ids=lambda fn: fn.__name__.lstrip("_"))
    def test_named_error_without_traceback(self, make_case, dataset, tmp_path, capsys):
        bad, argv = make_case(dataset, tmp_path, capsys)
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(bad) in err
        assert "Traceback" not in err
