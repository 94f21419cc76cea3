"""The run-config schema: strict JSON reading, field paths in errors, and the paper-scale point."""

import codecs
import json
import re
from pathlib import Path

import pytest

from rlselect.config import PAPER_SCALE, ConfigError, RunConfig

from conftest import BAD_CONFIG_VALUES, BAD_SVM_VALUES, SVM, config_dict_with, tiny_config


class TestRunConfig:
    def test_round_trip_through_dict(self):
        cfg = tiny_config("/tmp/x", cell="lstm", base_rate=0.5)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "byte-order-mark"])
    def test_json_file_round_trip(self, tmp_path, bom):
        cfg = tiny_config(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_bytes(bom + json.dumps(cfg.to_dict()).encode("utf-8"))
        assert RunConfig.from_file(path) == cfg

    def test_json_file_is_utf8(self, tmp_path):
        cfg = tiny_config(tmp_path / "ex\u00e4mple")
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(cfg.to_dict(), ensure_ascii=False).encode("utf-8"))
        assert RunConfig.from_file(path) == cfg
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigError, match="is not UTF-8"):
            RunConfig.from_file(path)

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

    @pytest.mark.parametrize("path, value", BAD_SVM_VALUES)
    def test_bad_svm_value_rejected_with_its_path(self, path, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            RunConfig.from_dict(config_dict_with("/tmp/x", path, value, **SVM))

    def test_an_infinite_clip_norm_loads(self):
        cfg = RunConfig.from_dict(config_dict_with("/tmp/x", "optimizer.clip_norm", float("inf")))
        assert cfg.optimizer_state().clip_norm == float("inf")

    def test_readme_example_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert RunConfig.from_dict(json.loads(block)) == RunConfig()
