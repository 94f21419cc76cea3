"""Pinned runs must regenerate their committed artifacts byte for byte.

Demo 6 covers the experiment drivers with an RNN at gamma 0. The pinned GRU
training config uses gamma 0.5, so its report also pins the DDQN-target path.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "runs" / "demo-protocols"
PINNED = ROOT / "tests" / "pinned"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def reproducible(directory: Path) -> list[str]:
    # timing.* record wall-clock fit times, which no rerun reproduces
    return sorted(p.name for p in directory.iterdir() if not p.name.startswith("timing."))


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
