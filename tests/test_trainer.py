import math

import numpy as np
import pytest

from seqpolicy import trainer
from seqpolicy.corpora import collect_episodes
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import GridReach, GridReachExpert, TwoTaskBandit, TwoTaskBanditExpert
from seqpolicy.errors import CapacityError, NonFiniteAbort
from seqpolicy.model import ModelConfig, ModelState, parameter_count
from seqpolicy.trainer import (
    FinetuneConfig,
    OptimizerConfig,
    ScheduleConfig,
    TrainConfig,
    ablation_manifests,
    eval_protocol,
    finetune,
    init_optimizer_state,
    lr_schedule,
    moving_average,
    optimizer_step,
    pretrain,
    scaling_ladder,
)


class TestSchedule:
    def test_endpoints(self):
        s = ScheduleConfig(lr_max=1e-4)
        assert lr_schedule(0, s) == pytest.approx(1e-7)
        assert lr_schedule(15_000, s) == pytest.approx(1e-4)
        assert lr_schedule(15_000 + 1_000_000, s) == pytest.approx(1e-5)
        assert lr_schedule(15_000 + 2_000_000, s) == pytest.approx(1e-5)

    def test_continuity_at_warmup(self):
        s = ScheduleConfig(lr_max=2e-4)
        before = lr_schedule(s.warmup_steps - 1, s)
        at = lr_schedule(s.warmup_steps, s)
        assert abs(at - before) < (s.lr_max - s.lr_start) / s.warmup_steps * 1.01

    def test_non_increasing_after_warmup(self):
        s = ScheduleConfig(warmup_steps=10, lr_max=1e-3, decay_steps=500)
        values = [lr_schedule(t, s) for t in range(10, 600)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, ScheduleConfig())


class TestOptimizer:
    def test_zero_grad_zero_decay_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(2)}, state, 1e-3, OptimizerConfig(weight_decay=0.0))
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))

    def test_single_step_matches_hand_computation(self):
        # quadratic f(w) = w^2 at w=3: grad 6
        cfg = OptimizerConfig(beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.1)
        lr = 1e-2
        w0, g = 3.0, 6.0
        params = {"w": np.array([w0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.array([g])}, state, lr, cfg)
        m = 0.1 * g
        v = 0.05 * g * g
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.95)
        expected = w0 - lr * (mhat / (math.sqrt(vhat) + 1e-8) + 0.1 * w0)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_decay_only_shrinks(self):
        cfg = OptimizerConfig(weight_decay=0.1)
        lr = 1e-2
        params = {"w": np.array([2.0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(1)}, state, lr, cfg)
        assert params["w"][0] == pytest.approx(2.0 * (1 - lr * 0.1))

    def test_non_finite_grad_aborts(self):
        params = {"w": np.array([1.0])}
        state = init_optimizer_state(params)
        with pytest.raises(NonFiniteAbort) as exc:
            optimizer_step(params, {"w": np.array([np.nan])}, state, 1e-3, OptimizerConfig())
        assert "w" in exc.value.diagnostics["parameters"]

    def test_deterministic_given_state(self):
        def run():
            params = {"w": np.linspace(-1, 1, 5)}
            state = init_optimizer_state(params)
            for g in ([0.1] * 5, [0.3] * 5, [-0.2] * 5):
                optimizer_step(params, {"w": np.array(g)}, state, 1e-2, OptimizerConfig())
            return params["w"].copy()

        assert np.array_equal(run(), run())


class TestEvalProtocol:
    def test_constant(self):
        assert eval_protocol([3.5] * 8) == 3.5

    def test_step_change(self):
        assert eval_protocol([0, 0, 0, 0, 0, 10, 10, 10, 10, 10]) == 10.0

    def test_short_windows_average_available(self):
        assert eval_protocol([4.0, 6.0]) == 5.0

    def test_max_over_checkpoints(self):
        assert eval_protocol([1, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0]) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eval_protocol([])

    def test_moving_average(self):
        assert moving_average([1, 2, 3], 2) == [1.0, 1.5, 2.5]


def _tiny_state(**overrides):
    base = dict(
        blocks=1,
        heads=2,
        width=16,
        ff_hidden=32,
        kv_size=8,
        context=32,
        local_pos_table=16,
        stochastic_depth=0.1,
        dropout=0.1,
    )
    base.update(overrides)
    return ModelState.initialize(ModelConfig(**base), seed=0)


def _grid_sampler(n_episodes=4, seq_len=16, seed=0, weight=1.0, name="grid"):
    episodes = collect_episodes(GridReach(seed=11), GridReachExpert(), n_episodes)
    ds = LoadedDataset(DatasetManifest(name=name, paths=[], sample_weight=weight), episodes)
    return MixtureSampler([ds], seq_len=seq_len, rng=np.random.default_rng(seed))


class TestPretrain:
    def test_overfit_loss_decreases(self):
        sampler = _grid_sampler(n_episodes=1)
        state = _tiny_state()
        cfg = TrainConfig(
            steps=120,
            batch_size=4,
            seq_len=16,
            schedule=ScheduleConfig(warmup_steps=10, lr_max=3e-3, decay_steps=500),
            checkpoint_every=0,
        )
        result = pretrain(sampler, state, cfg)
        losses = result.metrics.column("loss_mean")
        smoothed = moving_average(losses, 50)
        assert smoothed[-1] < smoothed[49] * 0.7
        tail = smoothed[49:]
        increases = sum(b > a + 1e-9 for a, b in zip(tail, tail[1:]))
        assert increases / len(tail) < 0.05

    def test_same_seed_identical_logs(self):
        def run():
            sampler = _grid_sampler(seed=3)
            state = _tiny_state()
            cfg = TrainConfig(steps=12, batch_size=4, seq_len=16, checkpoint_every=0)
            return pretrain(sampler, state, cfg).metrics.text()

        assert run() == run()

    def test_prompted_fraction(self):
        sampler = _grid_sampler(n_episodes=6)
        state = _tiny_state()
        cfg = TrainConfig(steps=80, batch_size=16, seq_len=32, checkpoint_every=0)
        result = pretrain(sampler, state, cfg)
        assert abs(result.prompted_fraction - 0.25) < 0.05

    def test_per_dataset_loss_partitions_total(self):
        a = LoadedDataset(
            DatasetManifest(name="grid_a", paths=[], sample_weight=0.5),
            collect_episodes(GridReach(seed=1), GridReachExpert(), 2),
        )
        b = LoadedDataset(
            DatasetManifest(name="grid_b", paths=[], sample_weight=0.5),
            collect_episodes(GridReach(seed=2), GridReachExpert(), 2),
        )
        sampler = MixtureSampler([a, b], seq_len=16, rng=np.random.default_rng(0))
        state = _tiny_state()
        result = pretrain(sampler, state, TrainConfig(steps=6, batch_size=8, seq_len=16,
                                                      checkpoint_every=0))
        for line in result.metrics.lines:
            fields = dict(part.split("=", 1) for part in line.split())
            total = float(fields["loss"])
            parts = [float(v) for k, v in fields.items() if k.startswith("loss/")]
            assert sum(parts) == pytest.approx(total, rel=1e-9)

    def test_checkpoints_written(self, tmp_path):
        sampler = _grid_sampler()
        state = _tiny_state()
        cfg = TrainConfig(steps=4, batch_size=2, seq_len=16, checkpoint_every=2)
        pretrain(sampler, state, cfg, out_dir=tmp_path)
        assert (tmp_path / "step0000002.ckpt").exists()
        assert (tmp_path / "step0000004.ckpt").exists()
        assert (tmp_path / "final.ckpt").exists()

    def test_seq_len_beyond_context_rejected_before_drawing(self):
        # every window here is shorter than 64, so trimmed batches would fit
        sampler = _grid_sampler(n_episodes=1, seq_len=64)
        before = sampler.rng.bit_generator.state
        state = _tiny_state(context=32)
        cfg = TrainConfig(steps=2, batch_size=2, seq_len=64, checkpoint_every=0)
        with pytest.raises(CapacityError, match="seq_len 64 exceeds context 32"):
            pretrain(sampler, state, cfg)
        assert sampler.rng.bit_generator.state == before

    def test_non_finite_loss_aborts_with_dump(self, tmp_path):
        sampler = _grid_sampler()
        state = _tiny_state()
        state.params["embed/vocab"][:] = np.nan
        cfg = TrainConfig(steps=3, batch_size=2, seq_len=16, checkpoint_every=0)
        with pytest.raises(NonFiniteAbort):
            pretrain(sampler, state, cfg, out_dir=tmp_path)
        assert (tmp_path / "abort_dump.json").exists()


class TestFinetune:
    def test_zero_steps_returns_input(self):
        sampler = _grid_sampler()
        state = _tiny_state()
        before = {k: v.copy() for k, v in state.params.items()}
        result = finetune(state, sampler, FinetuneConfig(steps=0, batch_size=2, seq_len=16))
        for k in before:
            assert np.array_equal(result.state.params[k], before[k])

    def test_single_task_enforced(self):
        a = LoadedDataset(
            DatasetManifest(name="a", paths=[], sample_weight=1.0),
            collect_episodes(TwoTaskBandit("a"), TwoTaskBanditExpert("a"), 2),
        )
        b = LoadedDataset(
            DatasetManifest(name="b", paths=[], sample_weight=1.0),
            collect_episodes(TwoTaskBandit("b"), TwoTaskBanditExpert("b"), 2),
        )
        sampler = MixtureSampler([a, b], seq_len=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="single task"):
            finetune(_tiny_state(), sampler, FinetuneConfig(steps=1, batch_size=2, seq_len=8))

    def test_eval_hook_and_curve(self):
        sampler = _grid_sampler()
        state = _tiny_state()
        calls = []

        def eval_fn(model_state):
            calls.append(1)
            return float(len(calls))

        result = finetune(
            state,
            sampler,
            FinetuneConfig(steps=6, batch_size=2, seq_len=16, eval_every=2),
            eval_fn=eval_fn,
        )
        assert len(calls) == 3
        assert result.eval_scores == [1.0, 2.0, 3.0]
        assert eval_protocol(result.eval_scores) == 2.0  # trailing mean of [1,2,3]


class TestHarnesses:
    def test_scaling_ladder_strictly_increasing(self):
        counts = []
        for cfg in scaling_ladder():
            counts.append(parameter_count(ModelState.initialize(cfg, seed=0).params))
        assert counts[0] < counts[1] < counts[2]

    def test_ablation_arm_selection(self):
        manifests = [
            DatasetManifest(name="grid_expert", paths=[], sample_weight=1.0),
            DatasetManifest(name="line_expert", paths=[], sample_weight=1.0),
            DatasetManifest(name="text_docs", paths=[], sample_weight=1.0),
        ]
        all_arm, use = ablation_manifests("all", manifests, "grid")
        assert len(all_arm) == 3 and use
        same, use = ablation_manifests("same_domain", manifests, "grid")
        assert [m.name for m in same] == ["grid_expert"] and use
        noctl, use = ablation_manifests("no_control", manifests, "grid")
        assert [m.name for m in noctl] == ["text_docs"] and use
        scratch, use = ablation_manifests("scratch", manifests, "grid")
        assert scratch == [] and not use
        with pytest.raises(ValueError):
            ablation_manifests("bogus", manifests, "grid")
