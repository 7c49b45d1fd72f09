"""Exactness gates for training on padding-trimmed batches and the GELU cache.

Padding only trails and attention is causal, so cutting a batch after its
longest real row leaves every real position's inputs, and therefore the
loss and gradients, unchanged up to floating-point roundoff.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from seqpolicy import model as M
from seqpolicy.corpora import collect_episodes, synthetic_text_episodes
from seqpolicy.datastore import DatasetManifest, LoadedDataset, MixtureSampler
from seqpolicy.envs import GridReach, GridReachExpert
from seqpolicy.model.ops import gelu_bwd, gelu_fwd
from seqpolicy.sequencer import (
    ElementSource,
    MaskedBatch,
    apply_prompt,
    assemble_batch,
    flatten_episode,
    sample_subsequence,
)
from seqpolicy.trainer import TrainConfig, _draw_batch, pretrain

from conftest import micro_cfg, rich_episode

L = 64


def mixed_batch() -> MaskedBatch:
    """Text, GridReach, image-patch and one prompted GridReach row, all padded."""
    rng = np.random.default_rng(5)
    grid = [flatten_episode(ep) for ep in collect_episodes(GridReach(seed=4), GridReachExpert(), 3)]
    text = flatten_episode(synthetic_text_episodes(1, seed=2, words_per_doc=4)[0])
    rich = flatten_episode(rich_episode(seed=1))
    items = [sample_subsequence(seq, L, rng) for seq in (text, grid[0], rich)]
    prompted, was_prompted = apply_prompt(
        sample_subsequence(grid[1], L, rng), grid[2], rng, prompt_probability=1.0
    )
    assert was_prompted
    batch = assemble_batch(items + [prompted])
    assert batch.patch_pixels is not None
    return batch


def _model_cfg():
    return micro_cfg(vocab=33025, context=L, local_pos_table=64)


class TestTrimmedBatch:
    def test_cut_after_longest_real_row(self):
        batch = mixed_batch()
        trimmed = batch.trimmed()
        real = batch.sources != ElementSource.PAD
        longest = max(int(np.nonzero(row)[0][-1]) + 1 for row in real)
        assert longest < L
        assert trimmed.seq_len == longest
        assert not (trimmed.sources[:, -1] == ElementSource.PAD).all()
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "timestep"):
            full, cut = getattr(batch, name), getattr(trimmed, name)
            assert np.shares_memory(full, cut)
            np.testing.assert_array_equal(cut, full[:, :longest])
        assert trimmed.patch_pixels is batch.patch_pixels
        assert trimmed.patch_slots is batch.patch_slots
        assert trimmed.patch_intervals is batch.patch_intervals
        assert trimmed.provenance == batch.provenance
        np.testing.assert_array_equal(trimmed.shifted_mask(), batch.shifted_mask()[:, :longest])

    def test_full_batch_is_returned_itself(self):
        batch = mixed_batch().trimmed()
        assert batch.trimmed() is batch

    @pytest.mark.parametrize(
        "dtype, tol",
        [(np.float64, dict(rtol=1e-12)), (np.float32, dict(rtol=1e-5, atol=1e-6))],
    )
    def test_eval_loss_and_grads_match_untrimmed(self, dtype, tol):
        cfg = _model_cfg()
        params = M.init_params(cfg, seed=3, dtype=dtype)
        batch = mixed_batch()
        full_loss, full_grads = M.loss_and_grads(params, cfg, batch, mode="eval")
        cut_loss, cut_grads = M.loss_and_grads(params, cfg, batch.trimmed(), mode="eval")
        assert cut_loss.masked_tokens == full_loss.masked_tokens > 0
        np.testing.assert_allclose(cut_loss.total, full_loss.total, rtol=tol["rtol"])
        np.testing.assert_allclose(cut_loss.per_item, full_loss.per_item, rtol=tol["rtol"])
        for name in params:
            np.testing.assert_allclose(cut_grads[name], full_grads[name], err_msg=name, **tol)


def _mixed_sampler(seed):
    def dataset(name, episodes):
        return LoadedDataset(DatasetManifest(name=name, paths=[], sample_weight=1.0), episodes)

    datasets = [
        dataset("grid", collect_episodes(GridReach(seed=7), GridReachExpert(), 4)),
        dataset("text", synthetic_text_episodes(4, seed=8, words_per_doc=4)),
        dataset("rich", [rich_episode(seed=s, task="rich") for s in range(3)]),
    ]
    return MixtureSampler(datasets, seq_len=L, rng=np.random.default_rng(seed))


def test_training_batches_are_trimmed():
    batch, _ = _draw_batch(_mixed_sampler(seed=9), 4, 0.0, {"prompt_skipped": 0})
    assert batch.seq_len < L
    assert batch.trimmed() is batch


def _pretrain_run():
    sampler = _mixed_sampler(seed=9)
    state = M.ModelState.initialize(_model_cfg().replace(stochastic_depth=0.3), seed=4)
    cfg = TrainConfig(steps=4, batch_size=4, seq_len=L, checkpoint_every=0)
    return pretrain(sampler, state, cfg), sampler


def test_pretrain_cursors_match_untrimmed(monkeypatch):
    cut, cut_sampler = _pretrain_run()
    monkeypatch.setattr(MaskedBatch, "trimmed", lambda self: self)
    full, full_sampler = _pretrain_run()
    assert cut.state.streams.state_dict() == full.state.streams.state_dict()
    assert cut_sampler.rng.bit_generator.state == full_sampler.rng.bit_generator.state
    for key in ("masked", "tokens", "prompted"):
        assert cut.metrics.column(key) == full.metrics.column(key)
    np.testing.assert_allclose(
        cut.metrics.column("loss"), full.metrics.column("loss"), rtol=1e-5
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bit_identical_to_reference(dtype):
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((64, 33)) * 3).astype(dtype)
    dy = rng.standard_normal((64, 33)).astype(dtype)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    y_ref = 0.5 * x * (1.0 + erf(x * inv_sqrt2))
    cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
    dx_ref = dy * (cdf + x * (np.exp(-0.5 * x * x) * inv_sqrt2pi))
    y, cache = gelu_fwd(x)
    dx = gelu_bwd(dy, cache)
    assert y.dtype == dx.dtype == dtype
    assert np.array_equal(y, y_ref)
    assert np.array_equal(dx, dx_ref)
