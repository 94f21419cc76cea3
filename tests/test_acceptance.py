"""Acceptance gates. Each test prints one PASS/FAIL line (run with -s to see them).

The end-to-end gates share five full training runs on the planted synthetic
(100 features, 10 informative at q=0.75, 2000 samples, subset size 10, 300
episodes, decision-tree reward oracle) and dominate the suite's runtime.
"""

import itertools
import time

import numpy as np
import pytest

from rlselect import net
from rlselect.agent import EpsilonSchedule, ReplayMemory, Transition, ddqn_target, masked_argmax, select_action
from rlselect.baselines import chi_square, information_gain, random_subset
from rlselect.classifiers import ClassifierKind, cv_accuracy, fit
from rlselect.dataset import SplitKind, SyntheticSpec, generate_synthetic, project, stratified_split
from rlselect.env import insert_sorted
from rlselect.featurize import map_dalvik_to_letters, build_vocabulary, vectorize_ngrams
from rlselect.harness import RunConfig, run_training
from rlselect.net import NetworkConfig

from conftest import finite_difference_gradients, matrix_from_rows, max_relative_error
from test_classifiers import best_depth2_accuracy


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- gradients


def test_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for cell in ("rnn", "gru", "lstm"):
        for head in ("linear", "softmax"):
            rng = np.random.default_rng(abs(hash((cell, head))) % 2**32)
            for _ in range(20):
                n = int(rng.integers(3, 7))
                cfg = NetworkConfig(
                    vocab_size=n + 1,
                    embed_dim=int(rng.integers(2, 5)),
                    hidden_dim=int(rng.integers(2, 6)),
                    cell=cell,
                    output_dim=n,
                    head=head,
                )
                params = net.init(cfg, int(rng.integers(0, 1_000_000)))
                k = int(rng.integers(0, min(4, n) + 1))
                state = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
                action = int(rng.integers(1, n + 1))
                target = float(rng.normal())
                analytic = net.backward(params, state, action, target)
                numeric = finite_difference_gradients(params, state, action, target, h=1e-5)
                worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    report(
        "gradient correctness (3 cells x 2 heads x 20 configs)",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------- DDQN target


def test_ddqn_target_oracle():
    q1 = lambda s: np.array([0.0, 0.4, 0.0])
    q2 = lambda s: np.array([0.1, 0.5, 0.3])

    terminal = Transition((1, 2), 3, 0.93, (1, 2, 3), True)
    ok = ddqn_target(terminal, q1, q2, gamma=0.99) == 0.93

    gamma0 = Transition((), 1, 0.5, (1,), False)
    ok &= ddqn_target(gamma0, q1, q2, gamma=0.0) == 0.5

    # printed-case: theta2 argmax picks feature 2, theta1 scores it 0.4
    printed = Transition((), 1, 0.9, (1,), False)
    ok &= ddqn_target(printed, q1, q2, gamma=0.99) == 0.9 + 0.99 * 0.4

    # masking: feature 2 is taken, so theta2's 0.9 is skipped for 0.6 at feature 3
    masked = Transition((2,), 1, 0.8, (1, 2), False)
    q2m = lambda s: np.array([0.5, 0.9, 0.6])
    q1m = lambda s: np.array([0.1, 0.2, 0.3])
    ok &= ddqn_target(masked, q1m, q2m, gamma=1.0) == 0.8 + 0.3

    # ties go to the lower index
    tie = Transition((), 3, 0.1, (3,), False)
    q2t = lambda s: np.array([0.5, 0.5, 0.0])
    q1t = lambda s: np.array([10.0, 20.0, 30.0])
    ok &= ddqn_target(tie, q1t, q2t, gamma=1.0) == 0.1 + 10.0

    report("DDQN target oracle (terminal, gamma=0, printed 1.296, masked, tie)", ok)


# ---------------------------------------------------------------- schedule


def test_epsilon_schedule():
    ok = True
    for total, p in ((100, 0.9), (1000, 0.8), (3, 1.0), (7, 0.37)):
        sched = EpsilonSchedule(total, p)
        ok &= sched.epsilon(0) == 1.0
        ok &= abs(sched.epsilon(total) - (1.0 - p)) < 1e-12
        values = [sched.epsilon(e) for e in range(total + 1)]
        ok &= all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        for e in range(total + 1):
            ok &= abs(values[e] - (1.0 - p * e / total)) < 1e-12
    report("epsilon schedule linearity and endpoints", ok)


# ------------------------------------------------------------------ replay


def test_replay_fifo_and_uniform_sampling():
    mem = ReplayMemory(capacity=3)
    ts = [Transition((), i, 0.5, (i,), False) for i in range(1, 6)]
    for t in ts:
        mem.push(t)
    fifo_ok = mem.contents() == ts[2:]

    mem = ReplayMemory(capacity=100)
    for i in range(1, 11):
        mem.push(Transition((), i, 0.5, (i,), False))
    rng = np.random.default_rng(2024)
    actions = []
    for _ in range(1000):
        actions.extend(t.action for t in mem.sample(10, rng))
    counts = np.bincount(actions, minlength=11)[1:]
    sigma = np.sqrt(10_000 * 0.1 * 0.9)
    uniform_ok = bool(np.all(np.abs(counts - 1000) <= 3 * sigma))
    report(
        "replay FIFO eviction + uniform sampling",
        fifo_ok and uniform_ok,
        f"count spread {counts.min()}..{counts.max()} (3-sigma band {1000 - 3 * sigma:.0f}..{1000 + 3 * sigma:.0f})",
    )


# -------------------------------------------------------- state invariances


def test_state_invariances():
    ok = insert_sorted((5, 9), 3) == (3, 5, 9)

    params = net.init(NetworkConfig.for_features(6, 3, 4, "gru"), 77)
    rng = np.random.default_rng(8)
    states = [()]
    for size in (1, 2, 3):
        states.extend(itertools.combinations(range(1, 7), size))
    for state in states:
        ok &= select_action(state, 0.0, params, rng) not in state
        for _ in range(5):
            ok &= select_action(state, 1.0, params, rng) not in state
        ok &= masked_argmax(net.forward(params, state), state) not in state

    a = net.forward(params, (1, 3, 5))
    b = net.forward(params, (1, 3, 5))
    ok &= bool(np.array_equal(a, b))
    report("state invariances (sorted insert, masking exhaustive N=6, forward determinism)", ok)


# ------------------------------------------------------- classifier oracles


def test_classifier_oracles():
    rng = np.random.default_rng(31)
    dt_ok = True
    for _ in range(25):
        n = int(rng.integers(4, 17))
        X = rng.integers(0, 2, size=(n, 2))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m = matrix_from_rows(X, y)
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        train_acc = float(np.mean(clf.model.predict(m.X) == m.y))
        dt_ok &= train_acc == best_depth2_accuracy(X, y)

    hand = matrix_from_rows([[0], [0], [1], [1]], [0, 0, 0, 1])
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25)) - 0.5
    ig_ok = abs(information_gain(hand).scores[0] - expected) < 1e-9

    indep = matrix_from_rows([[0], [1], [0], [1]], [0, 0, 1, 1])
    ig_ok &= abs(information_gain(indep).scores[0]) < 1e-9
    chi_ok = abs(chi_square(indep).scores[0]) < 1e-9
    perfect = matrix_from_rows([[0]] * 6 + [[1]] * 6, [0] * 6 + [1] * 6)
    chi_ok &= abs(chi_square(perfect).scores[0] - 12.0) < 1e-9

    report(
        "classifier oracles (DT vs brute-force small trees, IG 0.3113 case, chi-square)",
        dt_ok and ig_ok and chi_ok,
    )


# ------------------------------------------------------------- featurizer


def test_featurizer_conformance():
    spots = {
        "invoke-direct": "V",
        "return-void": "R",
        "goto/16": "G",
        "aput": "P",
        "iget": "T",
        "move/16": "M",
        "if-eq": "I",
    }
    ok = all(map_dalvik_to_letters([m]) == letter for m, letter in spots.items())

    vocab = build_vocabulary(["MMRV", "MMI"], n=2, k=1)
    ok &= vocab.grams == ("MM",)
    ok &= vectorize_ngrams("MMRV", build_vocabulary(["MMRV"], 2, 3)).tolist() == [1, 1, 1]
    ok &= vectorize_ngrams("MMMM", build_vocabulary(["MM"], 2, 1)).tolist() == [1]
    ok &= vectorize_ngrams("IG", build_vocabulary(["MMRV"], 2, 2)).tolist() == [0, 0]
    report("featurizer conformance (alphabet spot checks, presence semantics)", ok)


# ----------------------------------------------------------- end-to-end RL


ACCEPTANCE_SPEC = SyntheticSpec(
    n_samples=2000, n_features=100, informative=tuple(range(10)), q=0.75, seed=7
)
INFORMATIVE = set(range(10))
SUBSET_SIZE = 10
RUN_SEEDS = (1, 2, 3, 4, 5)


def acceptance_config(seed: int) -> RunConfig:
    # desk-scale defaults pinned explicitly so drift in RunConfig defaults
    # cannot silently change what this gate measures
    return RunConfig(
        synthetic=ACCEPTANCE_SPEC,
        classifier=ClassifierKind.decision_tree(),
        cell="rnn",
        embed_dim=8,
        hidden_dim=256,
        head="linear",
        subset_size=SUBSET_SIZE,
        total_episodes=300,
        p=0.5,
        warmup_steps=2000,
        batch_size=32,
        gamma=0.0,
        learn_frequency=1,
        sync_frequency=100,
        replay_capacity=20_000,
        base_rate=0.1,
        clip_norm=5.0,
        seed=seed,
        out_dir=f"runs/acceptance/seed{seed}",
    )


@pytest.fixture(scope="module")
def training_runs(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("acceptance")
    matrix = generate_synthetic(ACCEPTANCE_SPEC)
    plan = stratified_split(matrix, SplitKind.kfold(10), seed=901)

    def cv_of(subset) -> float:
        projected = project(matrix, sorted(subset))
        sub_plan = stratified_split(projected, SplitKind.kfold(10), seed=901)
        mean, _ = cv_accuracy(ClassifierKind.decision_tree(), projected, sub_plan, seed=17)
        return mean

    runs = []
    t0 = time.perf_counter()
    for seed in RUN_SEEDS:
        cfg = acceptance_config(seed)
        cfg = type(cfg)(**{**cfg.__dict__, "out_dir": str(out_root / f"seed{seed}")})
        result = run_training(cfg, matrix=matrix)
        subset = result.report.final_subset
        runs.append(
            {
                "seed": seed,
                "subset": subset,
                "hits": len(set(subset) & INFORMATIVE),
                "cv": cv_of(subset),
                "rewards": [e["final_reward"] for e in result.report.episodes],
            }
        )
    random_cvs = [
        cv_of(random_subset(100, SUBSET_SIZE, seed=5000 + d)) for d in range(20)
    ]
    return {
        "runs": runs,
        "random_mean": float(np.mean(random_cvs)),
        "elapsed": time.perf_counter() - t0,
    }


def test_end_to_end_selection_quality(training_runs):
    runs = training_runs["runs"]
    random_mean = training_runs["random_mean"]
    hits = [r["hits"] for r in runs]
    good_runs = sum(h >= 6 for h in hits)
    margin_ok = all(r["cv"] >= random_mean + 0.05 for r in runs)
    detail = (
        f"hits {hits}, cv {[round(r['cv'], 3) for r in runs]}, "
        f"random mean {random_mean:.3f}, total {training_runs['elapsed']:.0f}s"
    )
    report(
        "end-to-end selection quality (>=6 informative in >=4/5 runs, cv > random + 5pts)",
        good_runs >= 4 and margin_ok and training_runs["elapsed"] < 1800,
        detail,
    )


def test_stability_of_final_accuracy(training_runs):
    cvs = [r["cv"] for r in training_runs["runs"]]
    spread = max(cvs) - min(cvs)
    report(
        "stability across 5 runs (final-subset CV range <= 5 points)",
        spread <= 0.05,
        f"cv values {[round(c, 3) for c in cvs]}, range {spread:.3f}",
    )


def test_learning_curve_improves(training_runs):
    ok = True
    details = []
    for r in training_runs["runs"]:
        rewards = r["rewards"]
        first = float(np.mean(rewards[:50]))
        last = float(np.mean(rewards[-50:]))
        details.append(f"seed {r['seed']}: {first:.3f}->{last:.3f}")
        ok &= last - first >= 0.03
    report(
        "learning curve (period-50 mean episode-final reward up >= 3 points)",
        ok,
        "; ".join(details),
    )


# ----------------------------------------------------------------- timing


def test_fit_time_ratio():
    """Gates a ratio: the 24-feature DT fit time over the 1000-feature fit time, both medians of five.

    It times ``fit``, not the reward oracle. Because the full-width fit is the
    denominator, a change that makes that fit faster and leaves the narrow fit
    as it is raises the ratio and can fail the gate.
    """
    matrix = generate_synthetic(SyntheticSpec(2000, 1000, tuple(range(10)), q=0.8, seed=3))
    subset = random_subset(1000, 24, seed=11)
    kind = ClassifierKind.decision_tree()

    def median_fit(m):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fit(kind, m, seed=0)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    full = median_fit(matrix)
    small = median_fit(project(matrix, subset))
    ratio = 100.0 * small / full
    report(
        "fit-time ratio (24-feature DT fit < 25% of 1000-feature fit)",
        ratio < 25.0,
        f"{ratio:.2f}% ({small * 1000:.0f}ms vs {full * 1000:.0f}ms)",
    )
