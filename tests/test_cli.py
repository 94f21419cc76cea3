"""The command-line front end: exit codes, flag checks before any fit, and one matrix load per command."""

import json

import numpy as np
import pytest

from rlselect import classifiers, dataset, featurize, harness
from rlselect.cli import main
from rlselect.config import RunConfig
from rlselect.dataset import SampleMatrix, SyntheticSpec, generate_synthetic, load_csv, save_csv

from conftest import BAD_CONFIG_VALUES, BAD_SVM_VALUES, SVM, config_dict_with, tiny_config, write_sample


@pytest.fixture
def fits(monkeypatch):
    """Every training run and classifier fit a command starts, recorded instead of run."""
    fits = []
    monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: fits.append(args))
    for name in ("fit", "cv_accuracy", "holdout_accuracies"):
        monkeypatch.setattr(classifiers, name, lambda *args, **kwargs: fits.append(args))
    return fits


@pytest.fixture
def reads(monkeypatch):
    """The sample files featurize reads, recorded instead of read."""
    reads = []
    monkeypatch.setattr(featurize.Path, "read_text", lambda path, *args, **kwargs: reads.append(path))
    return reads


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

    @staticmethod
    def assert_train_exits_one_before_any_output(tmp_path, capsys, path, config: dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", BAD_CONFIG_VALUES)
    def test_bad_config_value_exits_one_before_any_output(self, tmp_path, capsys, path, value):
        config = config_dict_with(tmp_path / "out", path, value)
        self.assert_train_exits_one_before_any_output(tmp_path, capsys, path, config)

    @pytest.mark.parametrize("path, value", BAD_SVM_VALUES)
    def test_bad_svm_value_exits_one_before_any_output(self, tmp_path, capsys, path, value):
        config = config_dict_with(tmp_path / "out", path, value, **SVM)
        self.assert_train_exits_one_before_any_output(tmp_path, capsys, path, config)

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
        for name in ("holdout_accuracy", "holdout_accuracies"):
            monkeypatch.setattr(classifiers, name, lambda *args: fits.append(args))
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
        for name in ("holdout_accuracy", "holdout_accuracies"):
            monkeypatch.setattr(classifiers, name, lambda *args: fits.append(args))
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: dataset:" in captured.err and "score part is empty" in captured.err
        assert fits == [] and not (tmp_path / "out").exists()

    def test_curves_without_test_rows_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # 2 rows per class: the 20% test part rounds to no row, and a 0.3 fit fraction leaves the oracle rows to score
        m = generate_synthetic(SyntheticSpec(4, 3, (0,), q=0.9, seed=3))
        csv_path = tmp_path / "four.csv"
        save_csv(SampleMatrix(m.dictionary, m.X, np.array([0, 1] * 2, dtype=np.uint8)), csv_path)
        cfg = RunConfig(csv_path=str(csv_path), synthetic=None, subset_size=2,
                        oracle_fit_fraction=0.3, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        fits = []
        for name in ("holdout_accuracy", "holdout_accuracies"):
            monkeypatch.setattr(classifiers, name, lambda *args: fits.append(args))
        assert main(["curves", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: dataset:" in captured.err and "score part is empty" in captured.err
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "curves"])
    def test_subset_size_above_width_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        csv_path = tmp_path / "four.csv"
        save_csv(generate_synthetic(SyntheticSpec(60, 4, (0,), q=0.9, seed=3)), csv_path)
        cfg = RunConfig(csv_path=str(csv_path), synthetic=None, subset_size=5, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        fits = []
        for name in ("holdout_accuracy", "holdout_accuracies"):
            monkeypatch.setattr(classifiers, name, lambda *args: fits.append(args))
        assert main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "config error: agent.subset_size" in captured.err and "1..4" in captured.err
        assert fits == [] and not (tmp_path / "out").exists()

    # index 12 is one past the 12-feature dataset; cmd_evaluate refuses every case
    @pytest.mark.parametrize("subset", ["", "-1", "1,1", "0,12"])
    def test_bad_subset_exits_one_naming_the_flag(self, tmp_path, capsys, monkeypatch, subset):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        fits = []
        monkeypatch.setattr(harness, "_kfold_cv", lambda *args: fits.append(args))
        assert main(["evaluate", "--config", str(cfg_path), "--subset", subset]) == 1
        captured = capsys.readouterr()
        assert "config error: subset:" in captured.err and captured.out == ""
        assert fits == [] and not (tmp_path / "out").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["train", "--config", str(cfg_path), "--seed", "123",
                     "--out", str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["config"]["seed"] == 123

    # the parser only converts text: the driver refuses the value, naming its parameter
    @pytest.mark.parametrize("argv, field", [
        (["evaluate", "--subset", "0,1", "--folds", "1"], "folds"),
        (["compare", "--sizes", "2", "--folds", "1"], "folds"),
        (["stability", "--folds", "1"], "folds"),
        (["compare", "--sizes", "2", "--methods", "random", "--random-draws", "0"], "random_draws"),
        (["stability", "--runs", "0"], "runs"),
        (["curves", "--period", "0"], "period"),
        (["compare", "--sizes", "2,0"], "sizes"),
        (["timing", "--sizes", "0"], "sizes"),
        (["compare", "--sizes", "", "--methods", "random"], "sizes"),
        (["timing", "--sizes", ""], "sizes"),  # timing draws one subset per size
        (["timing", "--sizes", "2,2"], "sizes"),
    ])
    def test_out_of_range_flag_exits_one_naming_it(self, tmp_path, capsys, fits, argv, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert f"config error: {field}:" in captured.err and captured.out == ""
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, field", [
        (["compare", "--sizes", "13", "--methods", "random"], "sizes"),
        (["compare", "--sizes", "13", "--methods", "rl"], "sizes"),
        (["timing", "--sizes", "13", "--classifiers", "dt"], "sizes"),
        (["evaluate", "--subset", "0", "--folds", "150"], "folds"),
        (["compare", "--sizes", "2", "--methods", "random", "--folds", "150"], "folds"),
        (["stability", "--runs", "1", "--folds", "150"], "folds"),
    ])
    def test_flag_beyond_the_data_exits_one_before_any_fit(self, tmp_path, capsys, fits, argv, field):
        # 12 features, about 120 rows per class
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert f"config error: {field}:" in captured.err and captured.out == ""
        assert fits == [] and not (tmp_path / "out").exists()

    # a method list is converted by the driver, a classifier list by the parser
    @pytest.mark.parametrize("argv, message", [
        (["compare", "--sizes", "2", "--methods", ""], "config error: methods:"),
        (["compare", "--sizes", "2", "--methods", "random,genetic"], "config error: methods:"),
        (["evaluate", "--subset", "0", "--classifiers", ""], "argument --classifiers:"),
        (["timing", "--classifiers", "dt,cnn"], "argument --classifiers:"),
    ])
    def test_bad_list_flag_exits_one_naming_it(self, tmp_path, capsys, fits, argv, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(argv + ["--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err
        assert fits == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, field", [("--ngram-n", "ngram_n"), ("--ngram-k", "ngram_k")])
    def test_featurize_zero_ngram_flag_exits_one_naming_it(self, tmp_path, capsys, reads, flag, field):
        for label_dir in ("malware", "benign"):
            (tmp_path / "in" / label_dir).mkdir(parents=True)
            write_sample(tmp_path / "in" / label_dir, "s", ["move", "return"], ["android.permission.X"])
        out_csv = tmp_path / "f.csv"
        argv = ["featurize", "--inputs", str(tmp_path / "in"), "--out-csv", str(out_csv), flag, "0"]
        assert main(argv) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert reads == [] and not out_csv.exists()

    def test_featurize_ngram_n_above_limit_exits_one_before_reading_inputs(self, tmp_path, capsys, reads):
        # the inputs directory is missing, so exit 1 (not 2) shows the check runs before the inputs are looked at
        out_csv = tmp_path / "f.csv"
        argv = ["featurize", "--inputs", str(tmp_path / "missing"), "--out-csv", str(out_csv),
                "--ngram-n", str(featurize.MAX_NGRAM_N + 1)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: ngram_n:" in err and str(featurize.MAX_NGRAM_N + 1) in err
        assert reads == [] and not out_csv.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--subset", "0,1", "--classifiers", "dt", "--folds", "4"],
        ["compare", "--sizes", "2", "--methods", "information_gain", "--folds", "4"],
        ["stability", "--runs", "1", "--folds", "4"],
        ["timing", "--sizes", "2", "--classifiers", "dt"],
    ], ids=lambda argv: argv[0])
    def test_loads_a_csv_matrix_once(self, tmp_path, monkeypatch, argv):
        # evaluate, compare and stability load it in the driver; timing's CLI path loads it and passes it on
        csv_path = tmp_path / "m.csv"
        save_csv(generate_synthetic(SyntheticSpec(200, 8, (0,), q=0.9, seed=3)), csv_path)
        cfg = tiny_config(tmp_path / "out", csv_path=str(csv_path), synthetic=None, subset_size=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        loads = []

        def counted_load_csv(path):
            loads.append(path)
            return load_csv(path)

        monkeypatch.setattr(dataset, "load_csv", counted_load_csv)
        assert main(argv + ["--config", str(cfg_path)]) == 0
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
