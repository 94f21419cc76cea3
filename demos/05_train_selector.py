"""A complete (small) selection run: warm-up, DDQN training, greedy evaluation.

Ten of forty features are informative; the agent has to find them from
classifier-accuracy rewards alone. Shrunk from the desk-scale defaults so it
finishes in under a minute; bump the numbers back up for the real thing.
"""

import numpy as np

from rlselect import SyntheticSpec
from rlselect.classifiers import ClassifierKind
from rlselect.config import RunConfig
from rlselect.run import run_training

config = RunConfig(
    synthetic=SyntheticSpec(n_samples=800, n_features=40, informative=tuple(range(10)), q=0.8, seed=21),
    classifier=ClassifierKind.decision_tree(),
    cell="rnn",
    embed_dim=4,
    hidden_dim=128,
    subset_size=6,
    total_episodes=150,
    warmup_steps=600,
    learn_frequency=1,
    batch_size=32,
    gamma=0.0,
    base_rate=0.1,
    seed=5,
)

result = run_training(config)
report = result.report

rewards = [e["final_reward"] for e in report.episodes]
print("episode-final reward by 25-episode block:")
for start in range(0, len(rewards), 25):
    block = rewards[start : start + 25]
    print(f"  episodes {start + 1:3d}-{start + len(block):3d}: mean {np.mean(block):.3f}")

informative = set(range(10))
subset = set(report.final_subset)
print(f"\ngreedy subset (0-based): {report.final_subset}")
print(f"informative among them: {len(subset & informative)}/{len(subset)}")
print(f"final reward: {report.final_reward:.3f}")
print(f"oracle fits {report.oracle_stats['fits']}, cache hits {report.oracle_stats['cache_hits']}")
