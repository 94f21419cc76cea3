"""Demo 6 must regenerate the committed protocol artifacts byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "runs" / "demo-protocols"


def reproducible(directory: Path) -> list[str]:
    # timing.* record wall-clock fit times, which no rerun reproduces
    return sorted(p.name for p in directory.iterdir() if not p.name.startswith("timing."))


def test_demo_06_regenerates_committed_artifacts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_experiment_protocols.py")],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    written = tmp_path / "runs" / "demo-protocols"
    names = reproducible(written)
    assert names == reproducible(COMMITTED)
    for name in names:
        assert (written / name).read_bytes() == (COMMITTED / name).read_bytes(), name
