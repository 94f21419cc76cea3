"""The experiment drivers: method comparison, stability, curves, timing.

Everything here is a pure function of (config, root seed): rerunning a
driver reproduces its CSVs byte for byte. Sizes are kept tiny; each driver
writes its table under runs/demo-protocols/.
"""

from rlselect import SyntheticSpec
from rlselect.classifiers import ClassifierKind
from rlselect.config import RunConfig
from rlselect.harness import cmd_compare, cmd_curves, cmd_stability, cmd_timing

config = RunConfig(
    synthetic=SyntheticSpec(n_samples=600, n_features=25, informative=(0, 1, 2, 3), q=0.8, seed=13),
    classifier=ClassifierKind.decision_tree(),
    cell="rnn",
    embed_dim=4,
    hidden_dim=96,
    subset_size=4,
    total_episodes=80,
    warmup_steps=300,
    learn_frequency=1,
    batch_size=32,
    gamma=0.0,
    base_rate=0.1,
    seed=2,
    out_dir="runs/demo-protocols",
)

print("== compare: filter baselines vs random at sizes 2 and 4 ==")
rows = cmd_compare(config, sizes=[2, 4], methods=["information_gain", "chi_square", "random"],
                   random_draws=5, folds=5)
for r in rows:
    std = f"  (std {r['accuracy_std']:.3f})" if r["method"] == "random" else ""
    print(f"  {r['method']:>16s} size {r['size']}: {r['accuracy']:.3f}{std}")

print("\n== stability: two independent trainings ==")
payload = cmd_stability(config, runs=2, folds=5)
for summary in payload["summary"]:
    print(f"  size {summary['size']}: mean {summary['mean']:.3f}, range {summary['range']:.3f}")

print("\n== curves: greedy accuracy during training (period = 20) ==")
curves = cmd_curves(config, period=20)
for p in curves["periods"]:
    print(f"  episodes {p['episode_from']:3d}-{p['episode_to']:3d}: "
          f"reward {p['mean_final_reward']:.3f}, train acc {p['mean_train_accuracy']:.3f}, "
          f"test acc {p['mean_test_accuracy']:.3f}")

print("\n== timing: fit-time ratio of small subsets vs all 25 features ==")
rows = cmd_timing(config, subsets=[[0, 1, 2, 3], list(range(12))],
                  kinds=[ClassifierKind.decision_tree()], repeats=3)
for r in rows:
    print(f"  {r['classifier']} size {r['subset_size']:2d}: {r['ratio_pct']:.1f}% of full fit time")
