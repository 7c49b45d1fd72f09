"""Padding trimming and the GELU cache.

A batch in which no two windows can share a row comes back from
:meth:`MaskedBatch.packed` cut after its longest real row. Padding only
trails and attention is causal, so every real position's inputs, and
therefore the loss and gradients, are unchanged (gated with the packed
batches in ``test_pack.py``).
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from seqpolicy import model as M
from seqpolicy.model.ops import gelu_bwd, gelu_fwd
from seqpolicy.sequencer import ElementSource, MaskedBatch
from seqpolicy.trainer import TrainConfig, pretrain

from conftest import MIXED_LEN, micro_cfg, mixed_sampler, unpackable_batch

L = MIXED_LEN


def _model_cfg():
    return micro_cfg(vocab=33025, context=L, local_pos_table=64)


class TestTrimmedBatch:
    def test_cut_after_longest_real_row(self):
        batch = unpackable_batch()
        trimmed = batch.packed()
        real = batch.sources != ElementSource.PAD
        longest = max(int(np.nonzero(row)[0][-1]) + 1 for row in real)
        assert longest < L
        assert trimmed.batch_size == batch.batch_size
        assert trimmed.seq_len == longest
        assert not (trimmed.sources[:, -1] == ElementSource.PAD).all()
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "timestep", "segments"):
            full, cut = getattr(batch, name), getattr(trimmed, name)
            np.testing.assert_array_equal(cut, full[:, :longest])
        assert trimmed.patch_pixels is batch.patch_pixels
        np.testing.assert_array_equal(trimmed.patch_slots, batch.patch_slots)
        assert trimmed.patch_intervals is batch.patch_intervals
        assert trimmed.provenance == batch.provenance
        np.testing.assert_array_equal(trimmed.shifted_mask(), batch.shifted_mask()[:, :longest])

    def test_full_batch_is_returned_itself(self):
        batch = unpackable_batch().packed()
        again = batch.packed()
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "timestep", "segments",
                     "patch_slots"):
            np.testing.assert_array_equal(getattr(again, name), getattr(batch, name))


def _pretrain_run():
    sampler = mixed_sampler(seed=9)
    state = M.ModelState.initialize(_model_cfg().replace(stochastic_depth=0.3), seed=4)
    cfg = TrainConfig(steps=4, batch_size=4, seq_len=L, checkpoint_every=0)
    return pretrain(sampler, state, cfg), sampler


def test_pretrain_cursors_match_untrimmed(monkeypatch):
    cut, cut_sampler = _pretrain_run()
    monkeypatch.setattr(MaskedBatch, "packed", lambda self: self)
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
