"""Exactness gates for training on packed batches.

Packing puts several windows in one row. The attention mask never crosses a
window, local positions count within a timestep, every other operation works
per position, and a window's last position predicts nothing, so the loss,
the per-window losses and the gradients equal those of each window batched
alone up to floating-point roundoff.
"""

from dataclasses import replace

import numpy as np
import pytest

from seqpolicy import model as M
from seqpolicy.model.network import embed_batch, hidden_fwd
from seqpolicy.sequencer import TARGET_NONE, ElementSource, assemble_batch, mask_of, targets_of
from seqpolicy.trainer import _draw_batch

from conftest import (
    MIXED_LEN,
    manual_sequence,
    micro_cfg,
    mixed_items,
    mixed_sampler,
    unpackable_items,
)


def _model_cfg():
    return micro_cfg(vocab=33025, context=MIXED_LEN, local_pos_table=64)


def _text_window(length, first_token=1):
    spec = [("text", first_token + i) for i in range(length)]
    return manual_sequence(spec, dataset=f"len{length}")


def _layout_items():
    """Windows of length 3, 2, 6, 1 and 4."""
    return [_text_window(n, first_token=10 * i + 1) for i, n in enumerate((3, 2, 6, 1, 4))]


class TestPackedLayout:
    def test_first_fit_decreasing_rows(self):
        # placed 2 (6), 4 (4), 0 (3), 1 (2), 3 (1) into rows of capacity 6;
        # rows then ordered by lowest window, windows by index
        packed = assemble_batch(_layout_items())
        np.testing.assert_array_equal(
            packed.segments, [[0, 0, 0, 3, 3, 3], [1, 1, 4, 4, 4, 4], [2, 2, 2, 2, 2, 2]]
        )
        np.testing.assert_array_equal(
            packed.tokens,
            [[1, 2, 3, 31, -1, -1], [11, 12, 41, 42, 43, 44], [21, 22, 23, 24, 25, 26]],
        )
        np.testing.assert_array_equal(packed.sources[0, 4:], [ElementSource.PAD] * 2)
        assert packed.provenance == [(w.task_id, w.dataset) for w in _layout_items()]

    def test_window_boundary_predicts_nothing(self):
        packed = assemble_batch(_layout_items())
        tgt, msk = packed.shifted_targets(), packed.shifted_mask()
        # window 0 ends before window 3's text token at column 3
        assert mask_of(packed.sources)[0, 3] == 1
        assert targets_of(packed.sources, packed.tokens)[0, 3] == 31
        assert tgt[0, 2] == TARGET_NONE and msk[0, 2] == 0
        ends = np.ones(packed.segments.shape, dtype=bool)
        ends[:, :-1] = packed.segments[:, 1:] != packed.segments[:, :-1]
        assert (tgt[ends] == TARGET_NONE).all() and (msk[ends] == 0).all()
        alone = sum(int(assemble_batch([w]).shifted_mask().sum()) for w in _layout_items())
        assert msk.sum() == alone == 2 + 1 + 5 + 0 + 3

    def test_patch_order_kept(self):
        items = mixed_items()
        packed = assemble_batch(items)
        assert packed.batch_size < len(items)
        order = [
            (w, j, pos)
            for w, item in enumerate(items)
            for j, pos in enumerate(np.flatnonzero(item.sources == ElementSource.PATCH))
        ]
        assert len(order) == len(packed.patch_slots) > 0
        for k, ((w, j, pos), (r, col)) in enumerate(zip(order, packed.patch_slots)):
            assert packed.segments[r, col] == w
            start = int(np.argmax(packed.segments[r] == w))
            assert col - start == pos
            assert packed.sources[r, col] == ElementSource.PATCH
            assert packed.local_pos[r, col] == items[w].local_pos[pos]
            assert np.array_equal(packed.patch_pixels[k], items[w].patch_pixels[j])

    def test_full_batch_is_returned_itself(self):
        items = [_text_window(4), _text_window(4, first_token=5)]
        packed = assemble_batch(items)
        for name in ("tokens", "sources", "local_pos"):
            np.testing.assert_array_equal(
                getattr(packed, name), np.stack([getattr(w, name) for w in items])
            )
        np.testing.assert_array_equal(packed.segments, [[0] * 4, [1] * 4])

    def test_unpackable_batch_is_trimmed(self):
        packed = assemble_batch([_text_window(4), _text_window(3)])
        assert packed.batch_size == 2 and packed.seq_len == 4
        np.testing.assert_array_equal(packed.segments, [[0] * 4, [1] * 4])


class TestPackedModel:
    @pytest.mark.parametrize(
        "dtype, tol",
        [(np.float64, dict(rtol=1e-12, atol=1e-15)), (np.float32, dict(rtol=1e-5, atol=1e-6))],
    )
    def test_eval_loss_and_grads_match_unpacked(self, dtype, tol):
        """Against each window batched alone, on windows that pack and on
        windows that do not (rows as long as the longest window)."""
        cfg = _model_cfg()
        params = M.init_params(cfg, seed=3, dtype=dtype)
        for items, packs in ((mixed_items(), True), (unpackable_items(), False)):
            packed = assemble_batch(items)
            assert (packed.batch_size < len(items)) == packs
            assert packed.seq_len == max(len(w) for w in items) < MIXED_LEN
            pack_loss, pack_grads = M.loss_and_grads(params, cfg, packed, mode="eval")
            assert len(pack_loss.per_item) == len(items)
            alone = [M.loss_and_grads(params, cfg, assemble_batch([w]), mode="eval")
                     for w in items]
            masked = sum(loss.masked_tokens for loss, _ in alone)
            assert pack_loss.masked_tokens == masked > 0
            np.testing.assert_allclose(
                pack_loss.total, sum(loss.total for loss, _ in alone), **tol
            )
            np.testing.assert_allclose(
                pack_loss.per_item, [loss.total for loss, _ in alone], **tol
            )
            # a window without patches reaches no patch parameter: its absent
            # gradients are exactly those, and count as zero in the sum
            patch_names = {n for n in params if n.startswith(("patch/", "embed/patch_"))}
            assert len(patch_names) == 14
            for window, (_, grads) in zip(items, alone):
                has_patch = (window.sources == ElementSource.PATCH).any()
                assert params.keys() - grads.keys() == (set() if has_patch else patch_names)
            for name in params:
                summed = sum(grads.get(name, 0.0) for _, grads in alone)
                np.testing.assert_allclose(pack_grads[name], summed, err_msg=name, **tol)

    def test_no_attention_across_windows(self):
        cfg = _model_cfg()
        params = M.init_params(cfg, seed=3)
        packed = assemble_batch(mixed_items())
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
    batch, _ = _draw_batch(mixed_sampler(seed=9), 8, 0.0)
    assert len(batch.provenance) == 8
    assert batch.batch_size < 8
    assert batch.segments.max() == 7
