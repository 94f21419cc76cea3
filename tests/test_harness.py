"""The experiment drivers and the writers of their output files."""

import json

import numpy as np
import pytest

from rlselect import classifiers, featurize, harness
from rlselect.classifiers import ClassifierKind
from rlselect.config import ConfigError
from rlselect.dataset import SyntheticSpec, load_csv
from rlselect.featurize import cmd_featurize
from rlselect.harness import cmd_compare, cmd_curves, cmd_evaluate, cmd_stability, cmd_timing, cmd_train
from rlselect.net import load_checkpoint

from conftest import tiny_config, write_sample


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

    def test_timings_count_the_oracle_passes_outside_the_report(self, tmp_path, monkeypatch):
        passes = []
        lazy = classifiers._lazy_tree_predict
        monkeypatch.setattr(classifiers, "_lazy_tree_predict", lambda *args: passes.append(1) or lazy(*args))
        report = cmd_train(tiny_config(tmp_path))
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings["oracle_passes"] == report.timings["oracle_passes"] == len(passes) > 1
        assert "oracle_passes" not in (tmp_path / "report.json").read_text()

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

    def test_failed_json_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "report.json"
        harness._write_json(path, {"final_reward": 0.5})
        earlier = path.read_bytes()
        with pytest.raises(TypeError):
            harness._write_json(path, {"final_reward": 0.75, "episodes": [object()]})
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_csv_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        columns = ["episode", "final_reward"]
        harness._write_csv(path, columns, [{"episode": 1, "final_reward": 0.5}])
        earlier = path.read_bytes()
        assert earlier == b"episode,final_reward\r\n1,0.5\r\n"
        with pytest.raises(KeyError):
            harness._write_csv(path, columns, [{"episode": 1, "final_reward": 0.75}, {"episode": 2}])
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]

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


# a float, string or bool index must not be read as another column
@pytest.mark.parametrize("subset", [[0, 1.7], ["3", 1], [False, True]], ids=["float", "string", "bool"])
@pytest.mark.parametrize("command", [
    lambda cfg, subset: cmd_evaluate(cfg, subset, kinds=[ClassifierKind.decision_tree()], folds=4),
    lambda cfg, subset: cmd_timing(cfg, [subset], kinds=[ClassifierKind.decision_tree()], repeats=1),
], ids=["evaluate", "timing"])
def test_non_integer_index_rejected_before_any_fit(tmp_path, monkeypatch, command, subset):
    fits = []
    for name in ("fit", "cv_accuracy"):
        monkeypatch.setattr(classifiers, name, lambda *args: fits.append(args))
    with pytest.raises(ValueError, match="subset indices must be integers"):
        command(tiny_config(tmp_path / "out"), subset)
    assert fits == [] and not (tmp_path / "out").exists()


# each driver refuses a bad argument with the parameter's name, before any fit or output
@pytest.mark.parametrize("command, field", [
    (lambda cfg: cmd_compare(cfg, [2, 13], ["rl"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [2, 13], ["information_gain"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [2, 13], ["random"], random_draws=3, folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [True], ["information_gain"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [2.5], ["rl"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [2, 2], ["information_gain"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [], ["information_gain"], folds=4), "sizes"),
    (lambda cfg: cmd_compare(cfg, [2], ["information_gain", "information_gain"], folds=4), "methods"),
    (lambda cfg: cmd_compare(cfg, [2], [], folds=4), "methods"),
    (lambda cfg: cmd_compare(cfg, [2], ["random"], random_draws=0, folds=4), "random_draws"),
    (lambda cfg: cmd_compare(cfg, [2], ["random"], random_draws=True, folds=4), "random_draws"),
    (lambda cfg: cmd_compare(cfg, [2], ["random"], random_draws=2.5, folds=4), "random_draws"),
    (lambda cfg: cmd_evaluate(cfg, [0, 12], folds=4), "subset"),
    (lambda cfg: cmd_evaluate(cfg, [0, 1], folds=150), "folds"),
    (lambda cfg: cmd_evaluate(cfg, [0, 1], folds=2.5), "folds"),
    (lambda cfg: cmd_evaluate(cfg, [0, 1], kinds=[], folds=4), "kinds"),
    (lambda cfg: cmd_evaluate(cfg, [0, 1], kinds=[ClassifierKind("dt")] * 2, folds=4), "kinds"),
    (lambda cfg: cmd_compare(cfg, [2], ["information_gain"], folds=150), "folds"),
    (lambda cfg: cmd_stability(cfg, 1, folds=150), "folds"),
    (lambda cfg: cmd_stability(cfg, True, folds=4), "runs"),
    (lambda cfg: cmd_curves(cfg, period=True), "period"),
    (lambda cfg: cmd_curves(cfg, period=2.5), "period"),
    (lambda cfg: cmd_timing(cfg, [[0, 1]], repeats=0), "repeats"),
    (lambda cfg: cmd_timing(cfg, []), "subsets"),
    (lambda cfg: cmd_timing(cfg, [[0, 1], [1, 0]]), "subsets"),
    (lambda cfg: cmd_timing(cfg, [[0, 1]], kinds=[ClassifierKind("dt")] * 2), "kinds"),
], ids=["compare-rl-size", "compare-ig-size", "compare-random-size", "compare-bool-size", "compare-float-size",
        "compare-repeated-size", "compare-no-sizes", "compare-repeated-method", "compare-no-methods",
        "compare-random-draws", "compare-bool-random-draws", "compare-float-random-draws", "evaluate-subset",
        "evaluate-folds", "evaluate-float-folds", "evaluate-no-kinds", "evaluate-repeated-kind", "compare-folds", "stability-folds",
        "stability-bool-runs", "curves-bool-period", "curves-float-period", "timing-repeats", "timing-no-subsets",
        "timing-repeated-subset", "timing-repeated-kind"])
def test_data_bound_argument_rejected_before_any_fit(tmp_path, monkeypatch, command, field):
    # 12 features, about 120 rows per class
    fits = []
    for name in ("fit", "cv_accuracy", "holdout_accuracies"):
        monkeypatch.setattr(classifiers, name, lambda *args, **kwargs: fits.append(args))
    monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: fits.append(args))
    with pytest.raises(ConfigError, match=f"^{field}:"):
        command(tiny_config(tmp_path / "out"))
    assert fits == [] and not (tmp_path / "out").exists()


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


