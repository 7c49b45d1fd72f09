import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqpolicy
from seqpolicy import trainer
from seqpolicy.corpora import collect_episodes
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import (
    GridReach,
    GridReachExpert,
    LineReacher,
    LineReacherExpert,
    TwoTaskBandit,
    TwoTaskBanditExpert,
)
from seqpolicy.errors import CapacityError, NonFiniteAbort
from seqpolicy.model import ModelConfig, ModelState, parameter_count
from seqpolicy.trainer import (
    FinetuneConfig,
    TrainConfig,
    ablation_manifests,
    eval_protocol,
    finetune,
    init_optimizer_state,
    lr_schedule,
    moving_average,
    optimizer_step,
    pretrain,
)

from conftest import micro_cfg, mixed_sampler


class TestSchedule:
    def test_endpoints(self):
        s = TrainConfig(lr_max=1e-4)
        assert lr_schedule(0, s) == pytest.approx(1e-7)
        assert lr_schedule(15_000, s) == pytest.approx(1e-4)
        assert lr_schedule(15_000 + 1_000_000, s) == pytest.approx(1e-5)
        assert lr_schedule(15_000 + 2_000_000, s) == pytest.approx(1e-5)

    def test_continuity_at_warmup(self):
        s = TrainConfig(lr_max=2e-4)
        before = lr_schedule(s.warmup_steps - 1, s)
        at = lr_schedule(s.warmup_steps, s)
        assert abs(at - before) < (s.lr_max - trainer.LR_START) / s.warmup_steps * 1.01

    def test_non_increasing_after_warmup(self):
        s = TrainConfig(warmup_steps=10, lr_max=1e-3, decay_steps=500)
        values = [lr_schedule(t, s) for t in range(10, 600)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, TrainConfig())


class TestOptimizer:
    def test_zero_grad_zero_decay_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(2)}, state, 1e-3, weight_decay=0.0)
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))

    def test_single_step_matches_hand_computation(self):
        # quadratic f(w) = w^2 at w=3: grad 6
        lr = 1e-2
        w0, g = 3.0, 6.0
        params = {"w": np.array([w0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.array([g])}, state, lr, weight_decay=0.1)
        m = 0.1 * g
        v = 0.05 * g * g
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.95)
        expected = w0 - lr * (mhat / (math.sqrt(vhat) + 1e-8) + 0.1 * w0)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_decay_only_shrinks(self):
        lr = 1e-2
        params = {"w": np.array([2.0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(1)}, state, lr, weight_decay=0.1)
        assert params["w"][0] == pytest.approx(2.0 * (1 - lr * 0.1))

    def test_non_finite_grad_aborts(self):
        params = {"w": np.array([1.0])}
        state = init_optimizer_state(params)
        with pytest.raises(NonFiniteAbort) as exc:
            optimizer_step(params, {"w": np.array([np.nan])}, state, 1e-3, weight_decay=0.1)
        assert "w" in exc.value.diagnostics["parameters"]

    def test_deterministic_given_state(self):
        def run():
            params = {"w": np.linspace(-1, 1, 5)}
            state = init_optimizer_state(params)
            for g in ([0.1] * 5, [0.3] * 5, [-0.2] * 5):
                optimizer_step(params, {"w": np.array(g)}, state, 1e-2, weight_decay=0.1)
            return params["w"].copy()

        assert np.array_equal(run(), run())


def _reference_optimizer_step(params, grads, state, lr, weight_decay):
    """The per-tensor AdamW loop with full-size scratch buffers, kept verbatim."""
    state["step"] += 1
    t = state["step"]
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    scratch = state.setdefault("scratch", {})
    for k, p in params.items():
        g = grads[k]
        m = state["m"][k]
        v = state["v"][k]
        if k not in scratch or scratch[k][0].shape != p.shape:
            scratch[k] = (np.empty_like(p), np.empty_like(p))
        s1, s2 = scratch[k]
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v *= b2
        v += s1
        np.multiply(g, 1.0 - b1, out=s1)
        m *= b1
        m += s1
        np.divide(v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += trainer.ADAM_EPS
        np.divide(m, bias1, out=s1)
        s1 /= s2
        if weight_decay:
            np.multiply(p, weight_decay, out=s2)
            s1 += s2
        s1 *= lr
        p -= s1


def _optimizer_tensors(dtype, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"big": (2 * trainer.ADAM_BLOCK + 5,), "matrix": (300, 7), "bias": (7,)}
    return {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}


class TestBlockedOptimizer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_bit_identical_to_per_tensor_loop(self, dtype, weight_decay):
        params, ref_params = _optimizer_tensors(dtype), _optimizer_tensors(dtype)
        state, ref_state = init_optimizer_state(params), init_optimizer_state(ref_params)
        for step in range(3):
            grads = _optimizer_tensors(dtype, seed=step + 1)
            optimizer_step(params, grads, state, 1e-2, weight_decay)
            _reference_optimizer_step(ref_params, grads, ref_state, 1e-2, weight_decay)
        assert state["step"] == ref_state["step"] == 3
        assert "scratch" not in state
        for k in params:
            for got, want in ((params, ref_params), (state["m"], ref_state["m"]),
                              (state["v"], ref_state["v"])):
                assert got[k].dtype == dtype
                assert np.array_equal(got[k], want[k]), k

    def test_nan_past_first_block_of_last_tensor_aborts_untouched(self):
        params = _optimizer_tensors(np.float32)
        state = init_optimizer_state(params)
        optimizer_step(params, _optimizer_tensors(np.float32, seed=1), state, 1e-2,
                       weight_decay=0.1)
        grads = _optimizer_tensors(np.float32, seed=2)
        grads = {"bias": grads["bias"], "matrix": grads["matrix"], "big": grads["big"]}
        grads["big"][trainer.ADAM_BLOCK + 3] = np.nan
        params = {k: params[k] for k in grads}
        before = {k: (params[k].copy(), state["m"][k].copy(), state["v"][k].copy())
                  for k in params}
        with pytest.raises(NonFiniteAbort) as exc:
            optimizer_step(params, grads, state, 1e-2, weight_decay=0.1)
        assert exc.value.diagnostics["parameters"] == ["big"]
        assert state["step"] == 1
        for k, (p, m, v) in before.items():
            assert np.array_equal(params[k], p)
            assert np.array_equal(state["m"][k], m)
            assert np.array_equal(state["v"][k], v)


class TestAbsentGradient:
    """A parameter with no gradient entry takes the update of a zero gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_bit_identical_to_explicit_zeros(self, dtype, weight_decay, warm):
        runs = []
        for explicit in (False, True):
            params = _optimizer_tensors(dtype)
            state = init_optimizer_state(params)
            if warm:  # nonzero moments for every tensor
                optimizer_step(params, _optimizer_tensors(dtype, seed=1), state, 1e-2,
                               weight_decay)
            before = params["matrix"].copy()
            grads = _optimizer_tensors(dtype, seed=2)
            del grads["matrix"]
            if explicit:
                grads["matrix"] = np.zeros_like(params["matrix"])
            optimizer_step(params, grads, state, 1e-2, weight_decay)
            runs.append((params, state))
        (params, state), (ref_params, ref_state) = runs
        assert state["step"] == ref_state["step"]
        for k in params:
            for got, want in ((params, ref_params), (state["m"], ref_state["m"]),
                              (state["v"], ref_state["v"])):
                assert got[k].dtype == dtype
                assert got[k].tobytes() == want[k].tobytes(), k
        # only zero decay with zero moments leaves the tensor where it was
        moved = not np.array_equal(params["matrix"], before)
        assert moved == (warm or weight_decay > 0)


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
            warmup_steps=10,
            lr_max=3e-3,
            decay_steps=500,
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
        # every window here is shorter than 64, so packed batches would fit
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

    def test_constant_lr_follows_optimizer_step_exactly(self):
        result = finetune(_tiny_state(), _grid_sampler(),
                          FinetuneConfig(steps=4, batch_size=2, seq_len=16, lr=3e-5, eval_every=0))
        assert result.metrics.column("lr") == [3e-5] * 4
        assert result.optimizer_state["step"] == 4
        flat = TrainConfig(warmup_steps=0, lr_max=3e-5, decay_factor=1.0)
        assert {lr_schedule(t, flat) for t in (0, 1, 999_999, 1_000_000, 5_000_000)} == {3e-5}

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


def scaling_ladder(context: int = 128) -> list[ModelConfig]:
    """Three shapes with strictly increasing parameter counts."""
    return [
        ModelConfig(blocks=2, heads=2, width=32, ff_hidden=128, kv_size=16,
                    context=context, stochastic_depth=0.1, dropout=0.1),
        ModelConfig(blocks=2, heads=4, width=64, ff_hidden=256, kv_size=16,
                    context=context, stochastic_depth=0.1, dropout=0.1),
        ModelConfig(blocks=4, heads=4, width=96, ff_hidden=384, kv_size=24,
                    context=context, stochastic_depth=0.1, dropout=0.1),
    ]


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
        all_arm = ablation_manifests("all", manifests, "grid")
        assert len(all_arm) == 3
        same = ablation_manifests("same_domain", manifests, "grid")
        assert [m.name for m in same] == ["grid_expert"]
        noctl = ablation_manifests("no_control", manifests, "grid")
        assert [m.name for m in noctl] == ["text_docs"]
        with pytest.raises(ValueError):
            ablation_manifests("bogus", manifests, "grid")


def _training_run_digests() -> dict[str, str]:
    """SHA-256 of each micro run's final parameters, both AdamW moments and
    metrics log: ``pretrain`` with weight decay and stochastic depth on a
    corpus with image episodes, and ``finetune`` on LineReacher, which has
    none. Batches of 2 windows of 16 keep every step under 32 loss-bearing
    positions: from there on, OpenBLAS splits ``dlogits @ embed/vocab``
    (K = 2049) by thread, and the bytes depend on the thread count."""
    line = LoadedDataset(
        DatasetManifest(name="line", paths=[], sample_weight=1.0),
        collect_episodes(LineReacher(seed=5), LineReacherExpert(), 6),
    )
    runs = {
        "pretrain": lambda: pretrain(
            mixed_sampler(seed=3),
            ModelState.initialize(micro_cfg(local_pos_table=64, stochastic_depth=0.25), seed=1),
            TrainConfig(steps=10, batch_size=2, seq_len=16, warmup_steps=2, lr_max=1e-3,
                        decay_steps=10, checkpoint_every=0),
        ),
        "finetune": lambda: finetune(
            ModelState.initialize(micro_cfg(dropout=0.1), seed=2),
            MixtureSampler([line], seq_len=16, rng=np.random.default_rng(4)),
            FinetuneConfig(steps=10, batch_size=2, seq_len=16, lr=1e-3, eval_every=0),
        ),
    }
    digests = {}
    for name, run in runs.items():
        result = run()
        h = hashlib.sha256()
        for key in sorted(result.state.params):
            h.update(key.encode())
            for tensors in (result.state.params, result.optimizer_state["m"],
                            result.optimizer_state["v"]):
                h.update(tensors[key].tobytes())
        h.update(result.metrics.text().encode())
        digests[name] = h.hexdigest()
    return digests


# Pinned before the gradients of parameters a batch does not reach were left
# out of loss_and_grads; AdamW must treat an absent gradient as exactly zero.
TRAINING_DIGESTS = {
    "pretrain": "748d1136178ac39868489c567f59fe075defe9b3e1919f042344126688054dc0",
    "finetune": "bd46c37366d1ccae3d87ae1ccd038ac6da9aa886342cb107dfbd1680e190fc9f",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_digests_pinned(threads):
    """A fresh interpreter per BLAS thread count, set before NumPy loads."""
    tests = Path(__file__).parent
    code = "import json, test_trainer; print(json.dumps(test_trainer._training_run_digests()))"
    path = os.pathsep.join([str(Path(seqpolicy.__file__).parents[1]), str(tests)])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=tests)
    assert json.loads(run.stdout) == TRAINING_DIGESTS
