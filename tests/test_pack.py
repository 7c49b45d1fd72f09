"""Exactness gates for training on packed batches.

Packing puts several windows in one row. The attention mask never crosses a
window, local positions count within a timestep, every other operation works
per position, and a window's last position predicts nothing, so the loss,
the per-window losses and the gradients equal those of the unpacked batch
up to floating-point roundoff.
"""

from dataclasses import replace

import numpy as np
import pytest

from seqpolicy import model as M
from seqpolicy.errors import SchemaError
from seqpolicy.model.network import embed_batch, hidden_fwd
from seqpolicy.sequencer import TARGET_NONE, ElementSource, assemble_batch
from seqpolicy.trainer import _draw_batch

from conftest import (
    MIXED_LEN,
    manual_sequence,
    micro_cfg,
    mixed_batch,
    mixed_sampler,
    unpackable_batch,
)


def _model_cfg():
    return micro_cfg(vocab=33025, context=MIXED_LEN, local_pos_table=64)


def _text_window(length, pad, first_token=1):
    spec = [("text", first_token + i) for i in range(length)] + [("pad",)] * pad
    return manual_sequence(spec, dataset=f"len{length}")


def _layout_batch():
    """Windows of real length 3, 2, 6, 1 and 4, each padded to 8."""
    return assemble_batch([_text_window(n, 8 - n, first_token=10 * i + 1)
                           for i, n in enumerate((3, 2, 6, 1, 4))])


class TestPackedLayout:
    def test_first_fit_decreasing_rows(self):
        # placed 2 (6), 4 (4), 0 (3), 1 (2), 3 (1) into rows of capacity 6;
        # rows then ordered by lowest window, windows by index
        packed = _layout_batch().packed()
        np.testing.assert_array_equal(
            packed.segments, [[0, 0, 0, 3, 3, 3], [1, 1, 4, 4, 4, 4], [2, 2, 2, 2, 2, 2]]
        )
        np.testing.assert_array_equal(
            packed.tokens,
            [[1, 2, 3, 31, -1, -1], [11, 12, 41, 42, 43, 44], [21, 22, 23, 24, 25, 26]],
        )
        assert packed.provenance == _layout_batch().provenance

    def test_window_boundary_predicts_nothing(self):
        packed = _layout_batch().packed()
        tgt, msk = packed.shifted_targets(), packed.shifted_mask()
        # window 0 ends before window 3's text token at column 3
        assert packed.mask[0, 3] == 1 and packed.targets[0, 3] == 31
        assert tgt[0, 2] == TARGET_NONE and msk[0, 2] == 0
        ends = np.ones(packed.segments.shape, dtype=bool)
        ends[:, :-1] = packed.segments[:, 1:] != packed.segments[:, :-1]
        assert (tgt[ends] == TARGET_NONE).all() and (msk[ends] == 0).all()
        assert msk.sum() == _layout_batch().shifted_mask().sum() == 2 + 1 + 5 + 0 + 3

    def test_patch_order_kept(self):
        batch = mixed_batch()
        packed = batch.packed()
        assert packed.batch_size < batch.batch_size
        assert packed.patch_pixels is batch.patch_pixels
        assert packed.patch_intervals is batch.patch_intervals
        for (b, pos), (r, col) in zip(batch.patch_slots, packed.patch_slots):
            assert packed.segments[r, col] == b
            start = int(np.argmax(packed.segments[r] == b))
            assert col - start == pos
            assert packed.sources[r, col] == ElementSource.PATCH
            assert packed.local_pos[r, col] == batch.local_pos[b, pos]

    def test_full_batch_is_returned_itself(self):
        batch = assemble_batch([_text_window(4, 0), _text_window(4, 0)])
        packed = batch.packed()
        for name in ("tokens", "sources", "local_pos", "mask", "targets", "timestep", "segments"):
            np.testing.assert_array_equal(getattr(packed, name), getattr(batch, name))
        assert packed.provenance == batch.provenance

    def test_unpackable_batch_is_trimmed(self):
        batch = assemble_batch([_text_window(4, 2), _text_window(3, 3)])
        packed = batch.packed()
        assert packed.batch_size == 2 and packed.seq_len == 4
        np.testing.assert_array_equal(packed.segments, [[0] * 4, [1] * 4])

    def test_unbatch_refuses_packed_batch(self):
        with pytest.raises(ValueError, match="5 windows packed into 3 rows"):
            _layout_batch().packed().unbatch()

    def test_padding_before_real_element_rejected(self):
        gap = manual_sequence([("text", 1), ("pad",), ("text", 2), ("pad",)])
        with pytest.raises(SchemaError, match="padding before a real element"):
            assemble_batch([gap, _text_window(1, 3)]).packed()


class TestPackedModel:
    @pytest.mark.parametrize(
        "dtype, tol",
        [(np.float64, dict(rtol=1e-12, atol=1e-15)), (np.float32, dict(rtol=1e-5, atol=1e-6))],
    )
    def test_eval_loss_and_grads_match_unpacked(self, dtype, tol):
        """On a batch that packs and on one where nothing packs (only trimmed)."""
        cfg = _model_cfg()
        params = M.init_params(cfg, seed=3, dtype=dtype)
        for batch, packs in ((mixed_batch(), True), (unpackable_batch(), False)):
            packed = batch.packed()
            assert (packed.batch_size < batch.batch_size) == packs
            assert packed.seq_len < batch.seq_len
            assert packed.shifted_mask().sum() == batch.shifted_mask().sum()
            full_loss, full_grads = M.loss_and_grads(params, cfg, batch, mode="eval")
            pack_loss, pack_grads = M.loss_and_grads(params, cfg, packed, mode="eval")
            assert pack_loss.masked_tokens == full_loss.masked_tokens > 0
            assert len(pack_loss.per_item) == batch.batch_size
            np.testing.assert_allclose(pack_loss.total, full_loss.total, **tol)
            np.testing.assert_allclose(pack_loss.per_item, full_loss.per_item, **tol)
            for name in params:
                np.testing.assert_allclose(pack_grads[name], full_grads[name], err_msg=name, **tol)

    def test_no_attention_across_windows(self):
        cfg = _model_cfg()
        params = M.init_params(cfg, seed=3)
        packed = mixed_batch().packed()
        row = next(r for r in range(packed.batch_size) if len(set(packed.segments[r])) > 1)
        changed_window = int(packed.segments[row, 0])
        edited = packed.tokens.copy()
        sel = (packed.segments == changed_window) & (packed.tokens >= 0)
        edited[sel] = (edited[sel] + 7) % 256

        def hidden(tokens):
            batch = replace(packed, tokens=tokens)
            emb, _ = embed_batch(params, cfg, batch, "eval", None)
            return hidden_fwd(params, cfg, emb, "eval", None, batch.segments)[0]

        before, after = hidden(packed.tokens), hidden(edited)
        others = packed.segments != changed_window
        assert not np.array_equal(before[~others], after[~others])
        assert np.array_equal(before[others], after[others])


def test_training_batches_are_packed():
    counters = {"prompt_skipped": 0}
    batch, _ = _draw_batch(mixed_sampler(seed=9), 8, 0.0, counters)
    assert len(batch.provenance) == 8
    assert batch.batch_size < 8
    assert batch.segments.max() == 7
