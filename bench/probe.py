"""Set-up probe: a fresh process does what a user's run does before any work.

    python3 bench/probe.py select CONFIG.json
    python3 bench/probe.py ingest

It imports the package and, for a selection run, reads the config, loads the
CSV, and builds the reward oracle and both networks. It then prints
``time.monotonic()``; the caller subtracts the time it started the process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rlselect import harness, net  # noqa: E402
from rlselect.env import RewardOracle  # noqa: E402


def main(argv: list[str]) -> None:
    if argv[0] == "select":
        config = harness.RunConfig.from_file(argv[1])
        matrix = harness.load_matrix(config)
        RewardOracle(
            config.classifier, matrix, harness.sub_seed(config.seed, "oracle"),
            fit_fraction=config.oracle_fit_fraction,
        )
        theta1 = net.init(config.network_config(matrix.n_features), harness.sub_seed(config.seed, "init"))
        theta1.copy()
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
