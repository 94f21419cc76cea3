import json
import re
from pathlib import Path

import numpy as np
import pytest

from rlselect.classifiers import ClassifierKind
from rlselect import classifiers, featurize, harness
from rlselect.cli import main
from rlselect.dataset import SampleMatrix, SyntheticSpec, generate_synthetic, load_csv, save_csv
from rlselect.featurize import cmd_featurize
from rlselect.harness import (
    PAPER_SCALE,
    ConfigError,
    RunConfig,
    cmd_compare,
    cmd_curves,
    cmd_evaluate,
    cmd_stability,
    cmd_timing,
    cmd_train,
    sub_seed,
)
from rlselect.net import load_checkpoint


def tiny_config(out_dir, **overrides) -> RunConfig:
    base = dict(
        synthetic=SyntheticSpec(n_samples=240, n_features=12, informative=(0, 1, 2), q=0.9, seed=5),
        classifier=ClassifierKind.decision_tree(),
        embed_dim=4,
        hidden_dim=8,
        subset_size=3,
        total_episodes=4,
        warmup_steps=12,
        batch_size=4,
        learn_frequency=2,
        sync_frequency=3,
        replay_capacity=200,
        seed=11,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


# (dotted path, bad value): each must be rejected at load, naming its path
BAD_CONFIG_VALUES = [
    ("network.hiden_dim", 8),
    ("agent.total_episodes", 2.5),
    ("seed", "abc"),
    ("oracle_fit_fraction", 1.5),
    ("network.embed_dim", 0),
    ("agent.p", True),
    ("classifier.tress", 500),
]


def config_dict_with(out_dir, path: str, value) -> dict:
    d = tiny_config(out_dir).to_dict()
    *sections, key = path.split(".")
    target = d
    for section in sections:
        target = target[section]
    target[key] = value
    return d


class TestSubSeed:
    def test_stable_and_distinct(self):
        assert sub_seed(1, "oracle") == sub_seed(1, "oracle")
        assert sub_seed(1, "oracle") != sub_seed(1, "init")
        assert sub_seed(1, "oracle") != sub_seed(2, "oracle")


class TestRunConfig:
    def test_round_trip_through_dict(self):
        cfg = tiny_config("/tmp/x", cell="lstm", base_rate=0.5)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_file(path) == cfg

    def test_paper_scale_restores_published_point(self):
        cfg = tiny_config("/tmp/x").paper_scale()
        assert cfg.warmup_steps == PAPER_SCALE["warmup_steps"]
        assert cfg.replay_capacity == PAPER_SCALE["replay_capacity"]
        assert cfg.base_rate == PAPER_SCALE["base_rate"]
        assert cfg.learn_frequency == PAPER_SCALE["learn_frequency"]

    def test_dataset_exclusivity(self):
        with pytest.raises(ConfigError):
            RunConfig(csv_path="x.csv")  # default synthetic still set

    def test_informative_count_shorthand(self):
        cfg = RunConfig.from_dict(
            {"dataset": {"synthetic": {"n_samples": 10, "n_features": 5, "informative": 2, "q": 0.9}}}
        )
        assert cfg.synthetic.informative == (0, 1)

    def test_bad_config_raises_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"dataset": {"synthetic": {"n_samples": 10}}})

    @pytest.mark.parametrize("path, value", BAD_CONFIG_VALUES)
    def test_bad_value_rejected_with_its_path(self, path, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            RunConfig.from_dict(config_dict_with("/tmp/x", path, value))

    def test_readme_example_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert RunConfig.from_dict(json.loads(block)) == RunConfig()


class TestCmdTrain:
    def test_report_structure(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = cmd_train(cfg)
        assert [e["episode"] for e in report.episodes] == [1, 2, 3, 4]
        assert len(report.final_subset) == 3
        assert report.final_subset == sorted(report.selection_order)
        assert all(len(e["step_rewards"]) == 3 for e in report.episodes)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "timings.json").exists()

    def test_timings_report_oracle_seconds_outside_the_report(self, tmp_path):
        report = cmd_train(tiny_config(tmp_path))
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert 0.0 < timings["oracle_s"] <= timings["total_s"]
        assert report.timings["oracle_s"] == timings["oracle_s"]
        assert "timings" not in report.to_dict()
        assert "timings" not in json.loads((tmp_path / "report.json").read_text())

    def test_timings_report_train_steps_outside_the_report(self, tmp_path):
        # 4 episodes, learn every 2, sync every 3: steps after episodes 2, 3 and 4
        cmd_train(tiny_config(tmp_path))
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings["train_steps"] == 3
        assert 0.0 < timings["train_step_s"] <= timings["train_s"]
        report_text = (tmp_path / "report.json").read_text()
        assert "train_step_s" not in report_text and "train_steps" not in report_text

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cmd_train(cfg)
        report_a = (tmp_path / "report.json").read_bytes()
        ckpt_a = (tmp_path / "checkpoint.json").read_bytes()
        cmd_train(cfg)
        assert (tmp_path / "report.json").read_bytes() == report_a
        assert (tmp_path / "checkpoint.json").read_bytes() == ckpt_a

    def test_single_episode_run(self, tmp_path):
        report = cmd_train(tiny_config(tmp_path, total_episodes=1))
        assert len(report.episodes) == 1
        assert len(report.final_subset) == 3

    def test_checkpoint_loads(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cmd_train(cfg)
        params, opt = load_checkpoint(tmp_path / "checkpoint.json")
        assert params.config.n_features == 12
        assert opt.step_count > 0

    def test_epsilon_follows_schedule(self, tmp_path):
        report = cmd_train(tiny_config(tmp_path, total_episodes=4, p=0.8))
        eps = [e["epsilon"] for e in report.episodes]
        assert eps == pytest.approx([1.0, 1.0 - 0.8 / 4, 1.0 - 1.6 / 4, 1.0 - 2.4 / 4])


class TestCmdEvaluate:
    def test_perfect_feature_full_set(self, tmp_path):
        cfg = tiny_config(tmp_path, synthetic=SyntheticSpec(300, 6, (0,), q=1.0, seed=2))
        rows = cmd_evaluate(cfg, subset=list(range(6)), kinds=[ClassifierKind.decision_tree()])
        assert rows[0]["mean_accuracy"] == 1.0
        assert (tmp_path / "evaluate.csv").exists()

    def test_row_per_classifier(self, tmp_path):
        cfg = tiny_config(tmp_path)
        kinds = [ClassifierKind.decision_tree(), ClassifierKind.knn(k=3)]
        rows = cmd_evaluate(cfg, subset=[0, 1], kinds=kinds, folds=4)
        assert [r["classifier"] for r in rows] == ["DecisionTree", "KNN"]

    def test_empty_subset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_evaluate(tiny_config(tmp_path), subset=[])


class TestCmdCompare:
    def test_filter_and_random_methods(self, tmp_path):
        cfg = tiny_config(tmp_path, synthetic=SyntheticSpec(400, 8, (0,), q=1.0, seed=3))
        rows = cmd_compare(cfg, sizes=[1, 2], methods=["information_gain", "random"],
                           random_draws=3, folds=4)
        ig_rows = [r for r in rows if r["method"] == "information_gain"]
        assert ig_rows[0]["subset"] == [0]
        assert ig_rows[0]["accuracy"] == 1.0
        rand_rows = [r for r in rows if r["method"] == "random"]
        assert len(rand_rows) == 2
        assert all("accuracy_std" in r for r in rand_rows)

    def test_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path, synthetic=SyntheticSpec(200, 6, (1,), q=0.9, seed=4))
        a = cmd_compare(cfg, [2], ["random"], random_draws=4, folds=4)
        b = cmd_compare(cfg, [2], ["random"], random_draws=4, folds=4)
        assert a == b

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_compare(tiny_config(tmp_path), [2], ["genetic"], folds=4)


class TestCmdStability:
    def test_curves_shape_and_spread(self, tmp_path):
        cfg = tiny_config(tmp_path)
        payload = cmd_stability(cfg, runs=2, folds=4)
        assert len(payload["runs"]) == 2
        for run in payload["runs"]:
            assert len(run["accuracies"]) == 3  # one CV score per prefix size
        assert len(payload["summary"]) == 3
        assert all("range" in s for s in payload["summary"])
        assert (tmp_path / "stability_summary.csv").exists()


class TestCmdCurves:
    def test_per_episode_and_period_series(self, tmp_path):
        cfg = tiny_config(tmp_path)
        payload = cmd_curves(cfg, period=2)
        assert len(payload["episodes"]) == 4
        assert len(payload["periods"]) == 2  # ceil(4 / 2)
        first = payload["episodes"][0]
        for key in ("train_accuracy", "test_accuracy", "final_reward", "epsilon"):
            assert key in first
        assert (tmp_path / "curves.csv").exists()
        assert (tmp_path / "curves_period.csv").exists()

    def test_period_one_is_per_episode(self, tmp_path):
        cfg = tiny_config(tmp_path, total_episodes=3)
        payload = cmd_curves(cfg, period=1)
        assert len(payload["periods"]) == 3
        for row, per in zip(payload["episodes"], payload["periods"]):
            assert per["mean_final_reward"] == row["final_reward"]


class TestCmdTiming:
    def test_table_shape_and_full_ratio(self, tmp_path):
        cfg = tiny_config(tmp_path, synthetic=SyntheticSpec(300, 10, (0,), q=0.9, seed=6))
        rows = cmd_timing(cfg, subsets=[list(range(10)), [0, 1]],
                          kinds=[ClassifierKind.decision_tree()], repeats=3)
        assert len(rows) == 2
        full = rows[0]
        assert full["subset_size"] == 10
        assert full["ratio_pct"] == pytest.approx(100.0, abs=60.0)  # noise-tolerant
        assert (tmp_path / "timing.csv").exists()


def write_sample(dirpath, name, mnemonics, names):
    (dirpath / f"{name}.opcodes").write_text("\n".join(mnemonics) + "\n")
    (dirpath / f"{name}.names").write_text("\n".join(names) + "\n")


class TestCmdFeaturize:
    def _write_inputs(self, root):
        mal = root / "malware"
        ben = root / "benign"
        mal.mkdir(parents=True)
        ben.mkdir(parents=True)
        write_sample(
            mal, "mal1",
            ["move", "move/16", "return-void", "invoke-direct", "nop"],
            ["android.permission.SEND_SMS", "android.intent.action.MAIN"],
        )
        write_sample(
            mal, "mal2",
            ["move", "move-result", "if-eq", "goto/16"],
            ["android.permission.SEND_SMS"],
        )
        write_sample(
            ben, "ben1",
            ["invoke-static", "return"],
            ["android.permission.INTERNET"],
        )

    def test_harness_name_is_the_featurize_driver(self):
        assert harness.cmd_featurize is featurize.cmd_featurize

    def test_builds_matrix_csv(self, tmp_path):
        self._write_inputs(tmp_path / "in")
        out_csv = tmp_path / "features.csv"
        matrix = cmd_featurize(tmp_path / "in", ngram_n=2, ngram_k=2, out_csv=out_csv)
        # columns: 2 permissions + 1 intent + 2 grams
        assert matrix.n_features == 5
        assert matrix.n_samples == 3
        assert matrix.dictionary.categories.count("permission") == 2
        assert matrix.dictionary.categories.count("intent") == 1
        assert matrix.dictionary.categories.count("ngram") == 2
        # benign rows come first, labels match directories
        assert matrix.y.tolist() == [0, 1, 1]
        back = load_csv(out_csv)
        assert back.dictionary == matrix.dictionary
        assert np.array_equal(back.X, matrix.X)

    def test_vocabulary_from_malware_only(self, tmp_path):
        self._write_inputs(tmp_path / "in")
        matrix = cmd_featurize(tmp_path / "in", 2, 2, tmp_path / "f.csv")
        grams = [n for n, c in zip(matrix.dictionary.names, matrix.dictionary.categories) if c == "ngram"]
        # malware letter streams: "MMRV" and "MMIG" -> MM twice, rest once
        assert grams[0] == "MM"

    def test_deterministic(self, tmp_path):
        self._write_inputs(tmp_path / "in")
        cmd_featurize(tmp_path / "in", 2, 2, tmp_path / "a.csv")
        cmd_featurize(tmp_path / "in", 2, 2, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_same_stem_in_both_classes_keeps_both_samples(self, tmp_path):
        mal = tmp_path / "in" / "malware"
        ben = tmp_path / "in" / "benign"
        mal.mkdir(parents=True)
        ben.mkdir(parents=True)
        write_sample(mal, "app", ["move", "move", "return"], ["android.permission.SEND_SMS"])
        write_sample(ben, "app", ["goto", "goto"], ["android.permission.INTERNET"])
        matrix = cmd_featurize(tmp_path / "in", 1, 2, tmp_path / "f.csv")
        assert matrix.dictionary.names == (
            "android.permission.INTERNET", "android.permission.SEND_SMS", "M", "R",
        )
        assert matrix.X.tolist() == [[1, 0, 0, 0], [0, 1, 1, 1]]

    def test_empty_inputs_rejected(self, tmp_path):
        (tmp_path / "in" / "malware").mkdir(parents=True)
        (tmp_path / "in" / "benign").mkdir(parents=True)
        with pytest.raises(FileNotFoundError):
            cmd_featurize(tmp_path / "in", 2, 2, tmp_path / "f.csv")

    def test_missing_names_file_named_in_error(self, tmp_path):
        mal = tmp_path / "in" / "malware"
        ben = tmp_path / "in" / "benign"
        mal.mkdir(parents=True)
        ben.mkdir(parents=True)
        (mal / "m.opcodes").write_text("move\n")
        with pytest.raises(FileNotFoundError, match="m.names"):
            cmd_featurize(tmp_path / "in", 2, 1, tmp_path / "f.csv")


class TestCli:
    def test_train_and_evaluate_exit_zero(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "final subset" in out
        assert main([
            "evaluate", "--config", str(cfg_path), "--subset", "0,1,2",
            "--classifiers", "dt", "--folds", "4",
        ]) == 0

    def test_usage_error_exits_one(self, capsys):
        assert main(["evaluate"]) == 1  # missing required --subset

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("path, value", BAD_CONFIG_VALUES)
    def test_bad_config_value_exits_one_before_any_output(self, tmp_path, capsys, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict_with(tmp_path / "out", path, value)))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        cfg = RunConfig(csv_path=str(tmp_path / "missing.csv"), synthetic=None,
                        subset_size=2, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        # the config loads, but its CSV does not exist
        assert main(["evaluate", "--config", str(cfg_path), "--subset", "0,1"]) == 2

    @pytest.mark.parametrize("command", ["train", "curves"])
    def test_one_class_dataset_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        m = generate_synthetic(SyntheticSpec(60, 6, (0,), q=0.9, seed=3))
        csv_path = tmp_path / "benign.csv"
        save_csv(SampleMatrix(m.dictionary, m.X, np.zeros_like(m.y)), csv_path)
        cfg = RunConfig(csv_path=str(csv_path), synthetic=None, subset_size=2, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        fits = []
        monkeypatch.setattr(classifiers, "holdout_accuracy", lambda *args: fits.append(args))
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: dataset:" in captured.err and "single class" not in captured.err
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "curves"])
    def test_empty_oracle_score_part_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        # 3 rows per class and a 0.9 fit fraction leave no row to score
        m = generate_synthetic(SyntheticSpec(6, 4, (0,), q=0.9, seed=3))
        csv_path = tmp_path / "six.csv"
        save_csv(SampleMatrix(m.dictionary, m.X, np.array([0, 1] * 3, dtype=np.uint8)), csv_path)
        cfg = RunConfig(csv_path=str(csv_path), synthetic=None, subset_size=2,
                        oracle_fit_fraction=0.9, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        fits = []
        monkeypatch.setattr(classifiers, "holdout_accuracy", lambda *args: fits.append(args))
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: dataset:" in captured.err and "score part is empty" in captured.err
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subset", ["", "-1", "1,1", "0,12"])
    def test_bad_subset_exits_one_naming_the_flag(self, tmp_path, capsys, monkeypatch, subset):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        fits = []
        monkeypatch.setattr(harness, "_kfold_cv", lambda *args: fits.append(args))
        # index 12 is one past the 12-feature dataset
        assert main(["evaluate", "--config", str(cfg_path), "--subset", subset]) == 1
        captured = capsys.readouterr()
        assert "argument --subset:" in captured.err and captured.out == ""
        assert fits == [] and not (tmp_path / "out").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["train", "--config", str(cfg_path), "--seed", "123",
                     "--out", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["config"]["seed"] == 123

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--subset", "0,1", "--folds", "1"], "--folds"),
        (["compare", "--sizes", "2", "--folds", "1"], "--folds"),
        (["stability", "--folds", "1"], "--folds"),
        (["compare", "--sizes", "2", "--methods", "random", "--random-draws", "0"], "--random-draws"),
        (["stability", "--runs", "0"], "--runs"),
        (["curves", "--period", "0"], "--period"),
        (["compare", "--sizes", "2,0"], "--sizes"),
        (["timing", "--sizes", "0"], "--sizes"),
        (["compare", "--sizes", "", "--methods", "random"], "--sizes"),
        (["timing", "--sizes", ""], "--sizes"),
    ])
    def test_out_of_range_flag_exits_one_naming_it(self, tmp_path, capsys, argv, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["compare", "--sizes", "13", "--methods", "random"], "--sizes"),
        (["compare", "--sizes", "13", "--methods", "rl"], "--sizes"),
        (["timing", "--sizes", "13", "--classifiers", "dt"], "--sizes"),
        (["evaluate", "--subset", "0", "--folds", "150"], "--folds"),
        (["compare", "--sizes", "2", "--methods", "random", "--folds", "150"], "--folds"),
        (["stability", "--runs", "1", "--folds", "150"], "--folds"),
    ])
    def test_flag_beyond_the_data_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch, argv, flag):
        # 12 features, about 120 rows per class
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        fits = []
        monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(harness, "_kfold_cv", lambda *args: fits.append(args))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err and captured.out == ""
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["compare", "--sizes", "2", "--methods", ""], "--methods"),
        (["compare", "--sizes", "2", "--methods", "random,genetic"], "--methods"),
        (["evaluate", "--subset", "0", "--classifiers", ""], "--classifiers"),
        (["timing", "--classifiers", "dt,cnn"], "--classifiers"),
    ])
    def test_bad_list_flag_exits_one_naming_it(self, tmp_path, capsys, argv, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--ngram-n", "--ngram-k"])
    def test_featurize_zero_ngram_flag_exits_one_naming_it(self, tmp_path, capsys, flag):
        for label_dir in ("malware", "benign"):
            (tmp_path / "in" / label_dir).mkdir(parents=True)
            write_sample(tmp_path / "in" / label_dir, "s", ["move", "return"], ["android.permission.X"])
        out_csv = tmp_path / "f.csv"
        argv = ["featurize", "--inputs", str(tmp_path / "in"), "--out-csv", str(out_csv), flag, "0"]
        assert main(argv) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_featurize_ngram_n_above_limit_exits_one_before_reading_inputs(self, tmp_path, capsys, monkeypatch):
        def no_featurize(*args, **kwargs):
            raise AssertionError("cmd_featurize must not run")

        monkeypatch.setattr(featurize, "cmd_featurize", no_featurize)
        out_csv = tmp_path / "f.csv"
        argv = ["featurize", "--inputs", str(tmp_path / "missing"), "--out-csv", str(out_csv),
                "--ngram-n", str(featurize.MAX_NGRAM_N + 1)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --ngram-n:" in err and str(featurize.MAX_NGRAM_N + 1) in err
        assert not out_csv.exists()

    def test_timing_loads_a_csv_matrix_once(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "m.csv"
        save_csv(generate_synthetic(SyntheticSpec(200, 8, (0,), q=0.9, seed=3)), csv_path)
        cfg = RunConfig(
            csv_path=str(csv_path), synthetic=None, subset_size=2, out_dir=str(tmp_path / "out")
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        loads = []

        def counted_load_csv(path):
            loads.append(path)
            return load_csv(path)

        monkeypatch.setattr(harness, "load_csv", counted_load_csv)
        argv = ["timing", "--config", str(cfg_path), "--sizes", "2", "--classifiers", "dt"]
        assert main(argv) == 0
        assert len(loads) == 1

    def test_featurize_cli(self, tmp_path, capsys):
        mal = tmp_path / "in" / "malware"
        ben = tmp_path / "in" / "benign"
        mal.mkdir(parents=True)
        ben.mkdir(parents=True)
        write_sample(mal, "m", ["move", "move", "return"], ["android.permission.X"])
        write_sample(ben, "b", ["goto"], ["android.intent.action.Y"])
        out_csv = tmp_path / "f.csv"
        assert main(["featurize", "--inputs", str(tmp_path / "in"),
                     "--ngram-n", "1", "--ngram-k", "2", "--out-csv", str(out_csv)]) == 0
        assert out_csv.exists()
