"""Every metric the benchmark reports: name, unit, and which direction is better.

``BENCHMARK.json`` at the repository root lists the same names and units;
the self-tests hold the two in step.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("subset_acc", "fraction", "higher"),
)

CLASSIFIERS = ("dt", "rf", "knn", "svm")
CELLS = ("rnn", "gru", "lstm")
MODULES = ("harness", "dataset", "featurize", "baselines", "classifiers", "env", "agent", "net")

PER_LAYER = (
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.save_csv_s", "s", "lower"),
    ("dataset.project_calls", "count", "lower"),
    ("dataset.project_s", "s", "lower"),
    ("featurize.samples", "count", "lower"),
    ("featurize.map_s", "s", "lower"),
    ("featurize.vocab_s", "s", "lower"),
    ("featurize.vectorize_s", "s", "lower"),
    ("baselines.information_gain_ms", "ms", "lower"),
    ("baselines.chi_square_ms", "ms", "lower"),
    ("classifiers.fit_calls", "count", "lower"),
    *((f"classifiers.{k}.{op}_s", "s", "lower") for k in CLASSIFIERS for op in ("fit", "predict")),
    ("env.oracle_calls", "count", "lower"),
    ("env.oracle_fits", "count", "lower"),
    ("env.oracle_hits", "count", "higher"),
    ("env.oracle_hit_ratio", "fraction", "higher"),
    ("env.oracle_s", "s", "lower"),
    ("agent.select_action_calls", "count", "lower"),
    ("agent.select_action_s", "s", "lower"),
    ("agent.train_step_calls", "count", "lower"),
    ("agent.train_step_s", "s", "lower"),
    ("agent.replay_sample_s", "s", "lower"),
    ("net.forward_calls", "count", "lower"),
    ("net.forward_s", "s", "lower"),
    ("net.backward_calls", "count", "lower"),
    ("net.backward_s", "s", "lower"),
    ("net.step_s", "s", "lower"),
    ("harness.warmup_s", "s", "lower"),
    ("harness.train_s", "s", "lower"),
    ("harness.eval_s", "s", "lower"),
    ("harness.cv_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    *((f"classifiers.dt.fit_ms.{w}", "ms", "lower") for w in ("w1", "w5", "w10", "w24", "full")),
    ("classifiers.dt.fit_ratio_pct.w24", "%", "lower"),
    *((f"classifiers.{k}.fit_ms.w24", "ms", "lower") for k in ("rf", "knn", "svm")),
    *((f"net.{c}.{op}_ms", "ms", "lower") for c in CELLS for op in ("forward", "backward", "train_step")),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def layer_metrics(full: dict, round_: dict, oracle_counts: tuple[int, int], timings: dict,
                  run_untraced: float, run_traced: float) -> dict[str, float]:
    """Per-layer figures from trace summaries.

    ``full`` covers set-up and the traced round, ``round_`` the round alone
    (so module self times add up to the traced round); ``oracle_counts`` is
    (fits, hits) of the traced round's oracle; ``timings`` the untraced
    round's own ``RunReport.timings``.
    """

    def total(name, summary=full):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name, summary=full):
        return summary.get(name, {}).get("count", 0)

    fits, hits = oracle_counts
    calls = count("env.oracle")
    out = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.save_csv_s": total("dataset.save_csv"),
        "dataset.project_calls": count("dataset.project"),
        "dataset.project_s": total("dataset.project"),
        "featurize.samples": count("featurize.map"),
        "featurize.map_s": total("featurize.map"),
        "featurize.vocab_s": total("featurize.vocab"),
        "featurize.vectorize_s": total("featurize.vectorize"),
        "baselines.information_gain_ms": 1000.0 * total("baselines.information_gain"),
        "baselines.chi_square_ms": 1000.0 * total("baselines.chi_square"),
        "classifiers.fit_calls": sum(count(f"classifiers.{k}.fit") for k in CLASSIFIERS),
        "env.oracle_calls": calls,
        "env.oracle_fits": fits,
        "env.oracle_hits": hits,
        "env.oracle_hit_ratio": hits / calls if calls else 0.0,
        "env.oracle_s": total("env.oracle"),
        "agent.select_action_calls": count("agent.select_action"),
        "agent.select_action_s": total("agent.select_action"),
        "agent.train_step_calls": count("agent.train_step"),
        "agent.train_step_s": total("agent.train_step"),
        "agent.replay_sample_s": total("agent.replay_sample"),
        "net.forward_calls": count("net.forward"),
        "net.forward_s": total("net.forward"),
        "net.backward_calls": count("net.backward"),
        "net.backward_s": total("net.backward"),
        "net.step_s": total("net.step"),
        "harness.warmup_s": timings.get("warmup_s", 0.0),
        "harness.train_s": timings.get("train_s", 0.0),
        "harness.eval_s": timings.get("eval_s", 0.0),
        "harness.cv_s": total("harness.cv"),
        "trace.overhead_s": run_traced - run_untraced,
        "trace.run_s": run_traced,
    }
    for k in CLASSIFIERS:
        out[f"classifiers.{k}.fit_s"] = total(f"classifiers.{k}.fit")
        out[f"classifiers.{k}.predict_s"] = total(f"classifiers.{k}.predict")
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v["self_s"] for name, v in round_.items() if name.split(".")[0] == m)
    return out
