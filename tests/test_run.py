"""One training run: sub-seeds, stepping a ``TrainingRun``, and the calls a tracer sees."""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from rlselect import classifiers, harness, net
from rlselect.config import RunConfig, load_matrix
from rlselect.dataset import SyntheticSpec, generate_synthetic, save_csv
from rlselect.run import TrainingRun, run_training, sub_seed

from conftest import tiny_config, traced

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


class TestSubSeed:
    def test_stable_and_distinct(self):
        assert sub_seed(1, "oracle") == sub_seed(1, "oracle")
        assert sub_seed(1, "oracle") != sub_seed(1, "init")
        assert sub_seed(1, "oracle") != sub_seed(2, "oracle")


class TestTrainingRun:
    def test_greedy_rollouts_between_episodes_change_only_oracle_stats(self, tmp_path):
        # the learning-curve driver steps a run this way
        cfg = tiny_config(tmp_path, total_episodes=6, gamma=0.5)
        matrix = load_matrix(cfg)
        reference = run_training(cfg, matrix).report.to_dict()
        run = TrainingRun(cfg, matrix)
        run.warm_up()
        for _ in range(cfg.total_episodes):
            run.episode()
            run.rollout(0.0)
        stepped = run.finish().to_dict()
        stepped_calls, reference_calls = (
            sum(report.pop("oracle_stats").values()) for report in (stepped, reference)
        )
        assert stepped_calls == reference_calls + cfg.total_episodes * cfg.subset_size
        assert stepped == reference

    @pytest.mark.parametrize("overrides, sets_per_pass", [
        ({"warmup_steps": 13}, None),  # not a multiple of subset_size 3: five episodes, 15 transitions
        ({"warmup_steps": 30, "replay_capacity": 7}, None),  # the replay keeps the last 7
        ({"warmup_steps": 60}, 4),  # 240 rows, so passes of at most 4 sets
    ])
    def test_warm_up_equals_one_rollout_per_episode(self, tmp_path, monkeypatch, overrides, sets_per_pass):
        cfg = tiny_config(tmp_path, **overrides)
        matrix = load_matrix(cfg)
        reference = TrainingRun(cfg, matrix)
        while reference.replay.inserted < cfg.warmup_steps:
            reference.rollout(1.0, reference.replay)
        if sets_per_pass:
            monkeypatch.setattr(classifiers, "_PASS_ENTRIES", sets_per_pass * matrix.n_samples)
        run = TrainingRun(cfg, matrix)
        with mock.patch.object(run.oracle, "score", wraps=run.oracle.score) as score:
            run.warm_up()
        assert score.call_count == 1
        assert run.replay.contents() == reference.replay.contents()
        assert run.warmup_transitions == run.replay.inserted == reference.replay.inserted
        assert run.rng.bit_generator.state == reference.rng.bit_generator.state
        assert (run.oracle.fit_count, run.oracle.hit_count) == (reference.oracle.fit_count, reference.oracle.hit_count)
        per_pass = sets_per_pass or classifiers.sets_per_pass(cfg.classifier, matrix.n_samples)
        assert run.oracle.pass_count == -(-run.oracle.fit_count // per_pass)
        assert run.oracle.pass_count > 1 if sets_per_pass else run.oracle.pass_count == 1

    def test_finished_run_holds_no_workspace(self, tmp_path):
        # callers keep finished runs (a benchmark cycle keeps all of its runs), so
        # a run drops its train-step arrays and its target network when it finishes
        run = run_training(tiny_config(tmp_path, gamma=0.5))
        assert run.train_steps > 0
        assert run.workspace is None
        assert run.theta2 is None

    def test_a_run_at_gamma_zero_builds_no_target_network(self, tmp_path):
        # every DDQN target at gamma = 0 is the reward, so nothing reads theta2;
        # sync_frequency 3 makes episode 3 a sync episode, and it copies nothing
        cfg = tiny_config(tmp_path, gamma=0.0)
        run = TrainingRun(cfg)
        assert run.theta2 is None
        run.warm_up()
        with mock.patch.object(net, "sync", wraps=net.sync) as sync:
            for _ in range(cfg.total_episodes):
                run.episode()
        assert cfg.agent_config().sync_due(3)
        assert sync.call_count == 0
        assert run.theta2 is None
        assert run.train_steps > 0

    def test_finished_run_takes_no_more_episodes(self, tmp_path):
        run = run_training(tiny_config(tmp_path, gamma=0.5))
        with pytest.raises(RuntimeError, match="run is finished after 4 episodes"):
            run.episode()
        assert len(run.episodes) == 4

    def test_finish_on_a_finished_run_returns_its_report(self, tmp_path):
        run = run_training(tiny_config(tmp_path, gamma=0.5))
        report, counts = run.report.to_dict(), (run.oracle.fit_count, run.oracle.hit_count)
        with mock.patch.object(run.oracle, "score", wraps=run.oracle.score) as score:
            assert run.finish() is run.report
        assert score.call_count == 0
        assert run.report.to_dict() == report
        assert (run.oracle.fit_count, run.oracle.hit_count) == counts

    def test_finished_run_keeps_one_network(self):
        # the select-dt shape: 2000 x 100, RNN H = 256, subset 10. theta1 alone is 0.75 MiB, and the
        # oracle keeps only its split's row indices over the run's matrix (16 KiB); a second network
        # would add 0.75 MiB, and a copy of the matrix's rows in the oracle 0.2 MiB
        cfg = RunConfig(total_episodes=2, warmup_steps=40, batch_size=8, seed=3)
        matrix = load_matrix(cfg)
        run, kept, _ = traced(lambda: run_training(cfg, matrix))
        assert run.train_steps > 0
        assert kept < 0.9 * 2**20
        assert run.oracle.matrix is run.matrix is matrix

    @pytest.mark.parametrize("learn, sync, episodes", [(2, 3, 4), (1, 100, 5), (3, 2, 9), (4, 4, 8), (5, 1, 6)])
    def test_train_steps_are_the_cadence_summed_over_the_run(self, tmp_path, learn, sync, episodes):
        cfg = tiny_config(tmp_path, learn_frequency=learn, sync_frequency=sync, total_episodes=episodes)
        due = sum(map(cfg.agent_config().train_steps_due, range(1, episodes + 1)))
        assert due == episodes // learn + episodes // sync  # one per learn event, one more per target sync
        assert run_training(cfg).train_steps == due
        assert cfg.optimizer_state().total_steps == 2 * due


class TestTracing:
    def test_a_traced_csv_run_records_every_layer(self, tmp_path):
        # the benchmark's per-layer figures come from these spans; a traced function
        # imported by name into a module the tracer does not rebind records nothing
        csv_path = tmp_path / "m.csv"
        save_csv(generate_synthetic(SyntheticSpec(240, 12, (0, 1, 2), q=0.9, seed=5)), csv_path)
        cfg = tiny_config(tmp_path / "out", csv_path=str(csv_path), synthetic=None)
        tracer = spans.Tracer()
        with tracer.patched():
            harness.run_training(cfg, harness.load_matrix(cfg))
        counts = {name: entry["count"] for name, entry in tracer.summary().items()}
        for name in (
            "dataset.load_csv",
            "agent.select_action", "agent.train_step", "agent.replay_sample",
            "net.forward", "net.backward", "net.step",
            "env.step", "env.oracle",
        ):
            assert counts.get(name, 0) >= 1, name
