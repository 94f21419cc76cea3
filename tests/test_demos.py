"""Pinned runs must regenerate their committed artifacts byte for byte.

Demo 6 covers the experiment drivers with an RNN at gamma 0. The pinned GRU
training config uses gamma 0.5, so its report also pins the DDQN-target path.
The pinned corpus pins the ingest path: featurize, then the IG and chi-square
scores of the CSV it writes.
Demos 1, 2, 4 and 5 are smoke-run: they must exit 0. Demo 3 (about 9 s)
is left out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rlselect.baselines import chi_square, information_gain
from rlselect.dataset import load_csv

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "runs" / "demo-protocols"
PINNED = ROOT / "tests" / "pinned"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def reproducible(directory: Path) -> list[str]:
    # timing.* record wall-clock fit times, which no rerun reproduces
    return sorted(p.name for p in directory.iterdir() if not p.name.startswith("timing."))


@pytest.mark.parametrize("name", [
    "01_synthetic_dataset.py", "02_featurize_pipeline.py", "04_decision_network.py", "05_train_selector.py",
])
def test_demo_runs_clean(tmp_path, name):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=ENV, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_demo_06_regenerates_committed_artifacts(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_experiment_protocols.py")],
        cwd=tmp_path, env=ENV, check=True, capture_output=True,
    )
    written = tmp_path / "runs" / "demo-protocols"
    names = reproducible(written)
    assert names == reproducible(COMMITTED)
    for name in names:
        assert (written / name).read_bytes() == (COMMITTED / name).read_bytes(), name


def test_pinned_gru_training_writes_committed_report(tmp_path):
    # 400x20 synthetic matrix, GRU H=32, gamma 0.5, 40 episodes, seed 5
    subprocess.run(
        [sys.executable, "-m", "rlselect.cli", "train", "--config", str(PINNED / "train_gru.json")],
        cwd=tmp_path, env=ENV, check=True, capture_output=True,
    )
    written = tmp_path / "runs" / "pinned-train" / "report.json"
    assert written.read_bytes() == (PINNED / "train_gru.report.json").read_bytes()


def test_pinned_corpus_featurizes_to_committed_csv_and_scores(tmp_path):
    # 8 benign + 8 malware samples; a constant column and one-class columns included
    written = tmp_path / "corpus.csv"
    subprocess.run(
        [sys.executable, "-m", "rlselect.cli", "featurize", "--inputs", str(PINNED / "corpus"),
         "--ngram-n", "3", "--ngram-k", "20", "--out-csv", str(written)],
        cwd=tmp_path, env=ENV, check=True, capture_output=True,
    )
    assert written.read_bytes() == (PINNED / "corpus.csv").read_bytes()
    matrix = load_csv(written)
    committed = json.loads((PINNED / "corpus.scores.json").read_text())
    assert information_gain(matrix).scores.tolist() == committed["information_gain"]
    assert chi_square(matrix).scores.tolist() == committed["chi_square"]
