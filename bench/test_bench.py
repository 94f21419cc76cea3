"""Self-tests of the benchmark: every workload at a tiny size, and every check
rejecting a deliberately corrupted output.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from rlselect import baselines, classifiers, dataset  # noqa: E402


def _prepared(name, tmp_path, seed=3):
    workload = workloads.make(name, tiny=True)
    work = tmp_path / name
    work.mkdir()
    workload.prepare(work, seed)
    workload.setup()
    return workload


def _cycle(name, tmp_path):
    """One cycle of a tiny workload: (workload, results). Checking a selection
    cycle calls its oracles, so each test takes a fresh one."""
    workload = _prepared(name, tmp_path)
    return workload, [workload.round(i) for i in range(workload.rounds)]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_measures_and_passes_its_checks(name, tmp_path):
    workload = _prepared(name, tmp_path)
    outcome = run.measure(workload, seconds=0.0)
    assert outcome["problems"] == []
    assert outcome["failed"] == 0 and outcome["attempted"] == workload.rounds
    assert set(outcome["metrics"]) == {"setup_s", "run_s", "peak_rss_mb", "subset_acc"}
    assert 0.0 < outcome["metrics"]["subset_acc"] <= 1.0


def test_times_are_scaled_by_the_reference_speed(tmp_path, monkeypatch):
    """A host running the reference at half its nominal speed halves the reported times."""
    workload = _prepared("ingest-eval", tmp_path)
    walls = []
    real_round = run.run_round

    def timed_round(w, i):
        result, seconds, fingerprint = real_round(w, i)
        walls.append(seconds)
        return result, seconds, fingerprint

    monkeypatch.setattr(run, "run_round", timed_round)
    monkeypatch.setattr(run.reference, "seconds", lambda: 2 * run.reference.NOMINAL_S)
    outcome = run.measure(workload, seconds=0.0)
    assert outcome["metrics"]["run_s"] == pytest.approx(statistics.median(walls) / 2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_trace_pass_reports_every_layer_metric(name, tmp_path):
    workload = workloads.make(name, tiny=True)
    work = tmp_path / "work"
    work.mkdir()
    workload.prepare(work, 3)
    outcome = run.trace_pass(workload, 3, tmp_path / "trace.json")
    assert outcome["problems"] == []
    assert {n for n, _, _ in metrics.PER_LAYER} == set(outcome["metrics"])
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert spans and all(start <= end for _, start, end, _ in spans)
    layer = outcome["metrics"]
    if name.startswith("select"):
        assert layer["env.oracle_calls"] == layer["env.oracle_fits"] + layer["env.oracle_hits"] > 0
        assert layer["agent.train_step_calls"] > 0 and layer["net.backward_calls"] > 0
    else:
        assert layer["featurize.samples"] == 40 and layer["harness.cv_s"] > 0


def test_same_seed_writes_same_inputs(tmp_path):
    trees = []
    for i in range(2):
        workload = workloads.make("ingest-eval", tiny=True)
        (tmp_path / str(i)).mkdir()
        workload.prepare(tmp_path / str(i), 5)
        trees.append({p.relative_to(tmp_path / str(i)): p.read_bytes() for p in (tmp_path / str(i)).rglob("*.*")})
    assert trees[0] == trees[1] and trees[0]


# ------------------------------------------------- corrupted outputs are caught


def test_select_checks_catch_a_bad_subset_and_a_dropped_oracle_count(tmp_path):
    workload, results = _cycle("select-dt", tmp_path)
    report, oracle = results[0].report, results[0].oracle
    n = workload.matrix.n_features
    assert checks.subset(report.final_subset, report.selection_order, len(report.final_subset), n) == []
    bad = list(report.final_subset)
    bad[0] = bad[1]
    assert checks.subset(bad, report.selection_order, len(bad), n)
    assert checks.subset(report.final_subset[:-1] + [n], report.selection_order, len(bad), n)
    args = (report.warmup_transitions, workload.configs[0].total_episodes, workload.configs[0].subset_size)
    assert checks.oracle_count(oracle.fit_count, oracle.hit_count, *args) == []
    assert checks.oracle_count(oracle.fit_count, oracle.hit_count - 1, *args)
    assert workload.check(results) == []
    oracle.fit_count -= 1
    assert any("oracle fits" in p for p in workload.check(results))


def test_dt_check_catches_one_flipped_prediction(tmp_path, monkeypatch):
    workload, results = _cycle("select-dt", tmp_path)
    oracle = results[0].oracle
    cols = sorted(results[0].report.final_subset[:2])
    fit_X, score_X = oracle.fit_part.X[:, cols], oracle.score_part.X[:, cols]
    clf = classifiers.fit(oracle.kind, dataset.project(oracle.fit_part, cols), 0)
    pred = classifiers.predict(clf, score_X)
    assert checks.dt_majority(fit_X, oracle.fit_part.y, score_X, pred) == []
    flipped = pred.copy()
    flipped[0] ^= 1
    assert checks.dt_majority(fit_X, oracle.fit_part.y, score_X, flipped)
    assert checks.reward(flipped, oracle.score_part.y, float(np.mean(pred == oracle.score_part.y)))

    # The same flip made by the program is caught by the workload's own check.
    real_predict = classifiers.predict

    def flip_first(clf, rows):
        out = real_predict(clf, rows).copy()
        out[0] ^= 1
        return out

    monkeypatch.setattr(classifiers, "predict", flip_first)
    assert any("majority label" in p for p in workload.check(results[:1]))


def test_identical_catches_one_changed_byte(tmp_path):
    workload, results = _cycle("select-net", tmp_path)
    first = workload.fingerprint(results[0])
    assert checks.identical("report", first, bytes(first)) == []
    changed = bytearray(first)
    changed[len(changed) // 2] ^= 1
    assert checks.identical("report", first, bytes(changed))


def test_ingest_checks_catch_flipped_bits_and_bad_scores(tmp_path):
    workload, results = _cycle("ingest-eval", tmp_path)
    out = results[0]
    assert workload.check(results) == []
    m, corpus = out["loaded"], workload.corpus
    names, cats = m.dictionary.names, m.dictionary.categories
    for category in ("permission", "intent", "ngram"):
        X = m.X.copy()
        X[0, cats.index(category)] ^= 1
        assert checks.same_matrix(out["featurized"], dataset.SampleMatrix(m.dictionary, X, m.y))
        if category == "ngram":
            assert checks.ngram_bits(names, cats, X, corpus.letters, corpus.labels, corpus.ngram_n, corpus.ngram_k)
        else:
            assert checks.declared_bits(names, cats, X, corpus.declared)

    ref_ig, ref_chi = checks.reference_scores(m.X, m.y)
    for ranked, ref in ((out["ig"], ref_ig), (out["chi"], ref_chi)):
        assert checks.scores("s", ranked.scores, ref) == []
        nudged = ranked.scores.copy()
        nudged[int(np.argmax(nudged))] *= 1 + 1e-8
        assert checks.scores("s", nudged, ref)


def test_fold_checks_catch_a_bad_fold_and_a_bad_mean(tmp_path):
    workload, results = _cycle("ingest-eval", tmp_path)
    out = results[0]
    mean, per_fold = out["cv"]["knn"]
    assert checks.folds("knn", per_fold, mean) == []
    assert checks.folds("knn", [1.01] + per_fold[1:], mean)
    assert checks.folds("knn", per_fold, mean + 1e-12)
    ref = checks.knn_reference(out["projected"].X, out["projected"].y, out["plan"].assignments, 5)
    assert checks.same_values("knn", per_fold, ref) == []
    assert checks.same_values("knn", [per_fold[0] + 1 / 40] + per_fold[1:], ref)
    top = out["top"]
    assert checks.same_values("top", top, baselines.top_k(out["ig"], len(top))) == []


# --------------------------------------------------- the benchmark's contract


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "select-dt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
