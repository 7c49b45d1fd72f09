import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf, erfc

import seqpolicy
from seqpolicy import codec
from seqpolicy import model as M
from seqpolicy.errors import (
    CapacityError,
    ChecksumError,
    ConfigError,
    RecordFormatError,
    TruncatedRecordError,
)
from seqpolicy.framing import Reader
from seqpolicy.model import network, ops, patch_embed
from seqpolicy.model.network import embed_batch, hidden_fwd
from seqpolicy.model.ops import gelu_bwd, gelu_fwd
from seqpolicy.sequencer import assemble_batch
from seqpolicy.trainer import _draw_batch

from conftest import (
    frame_body,
    framed,
    golden_checkpoint,
    manual_sequence,
    masked_nll_loss,
    micro_cfg,
    mixed_sampler,
)

# SHA-256 of ``init_params(tiny(), seed=0)``: each name, dtype, shape and bytes.
TINY_INIT_SHA256 = "70e1a1d39362cb29aae4437b5455e3d3d3bbf70e00a09c7d8415d530d8fe9cae"


def small_item(L=12, seed=0, with_sep=True):
    """Two timesteps mixing every element kind; separators optional so that
    reduced-vocabulary configs can be exercised (the separator id is 2048)."""
    sep = [("sep",)] if with_sep else []
    spec = (
        [("text", 45), ("patch", (0.25, 0.5), (0.4, 0.6)), ("tensor", 7)]
        + sep
        + [("action", 3), ("ts",), ("text", 33), ("patch", (0.0, 0.5), (0.5, 1.0)), ("tensor", 7)]
        + sep
        + [("action", 9)]
    )
    n_elements = len([e for e in spec if e[0] != "ts"])
    spec = spec + [("pad",)] * (L - n_elements)
    return manual_sequence(spec, seed=seed)


def small_batch(L=12, seed=0, with_sep=True):
    return assemble_batch([small_item(L, seed, with_sep)])


def _reference_patch_index(interval, mode, rng=None, vocab=128):
    """The one-patch index computation before it took arrays, kept verbatim."""
    lo, hi = interval
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"patch interval ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")
    lo_q = int(np.rint(lo * vocab))
    hi_q = int(np.rint(hi * vocab))
    # keep indices addressable in the vocab-row table
    lo_q = min(lo_q, vocab - 1)
    hi_q = min(hi_q, vocab - 1)
    if mode in ("pretrain", "finetune", "train"):
        if rng is None:
            raise ValueError("train-mode patch positions need a random stream")
        return int(rng.integers(lo_q, hi_q + 1))
    return int(np.rint((lo_q + hi_q) / 2.0))


def _reference_patch_loop(intervals, mode, rng, vocab):
    """Row then column indices, one call per patch, as embedding once did."""
    row_idx = np.array(
        [
            _reference_patch_index((lo, hi), mode, rng, vocab)
            for lo, hi in intervals[:, 0:2]
        ],
        dtype=np.int64,
    )
    col_idx = np.array(
        [
            _reference_patch_index((lo, hi), mode, rng, vocab)
            for lo, hi in intervals[:, 2:4]
        ],
        dtype=np.int64,
    )
    return row_idx, col_idx


def _random_intervals(rng, count):
    """(count, 4) patch extents, many so narrow that lo and hi quantize alike."""
    lo = rng.uniform(0.0, 1.0, size=(count, 2))
    width = 10.0 ** rng.uniform(-4, 0, size=(count, 2))
    hi = np.minimum(lo + width, 1.0)
    return np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1)


class TestPatchPositions:
    def test_vectorized_matches_per_patch_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            vocab = (8, 128)[trial % 2]
            intervals = _random_intervals(rng, int(rng.integers(1, 40)))
            if trial == 0:
                _, intervals = codec.image_to_patches(np.zeros((80, 64, 1), np.uint8))
            for mode in ("pretrain", "eval"):
                ref_rng, new_rng = np.random.default_rng(trial), np.random.default_rng(trial)
                expected = _reference_patch_loop(intervals, mode, ref_rng, vocab)
                rows = M.patch_position_index(intervals[:, 0:2], mode, new_rng, vocab)
                cols = M.patch_position_index(intervals[:, 2:4], mode, new_rng, vocab)
                assert rows.dtype == cols.dtype == np.int64
                assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_worked_example_as_array(self):
        intervals = np.array([[0.25, 0.5], [0.4, 0.6]])
        assert M.patch_position_index(intervals, mode="eval").tolist() == [48, 64]

    def test_worked_example_row(self):
        assert M.quantize_patch_interval((0.25, 0.5)) == (32, 64)
        assert M.patch_position_index((0.25, 0.5), mode="eval") == 48

    def test_worked_example_col(self):
        assert M.quantize_patch_interval((0.4, 0.6)) == (51, 77)
        assert M.patch_position_index((0.4, 0.6), mode="eval") == 64

    def test_full_span_clamped(self):
        lo, hi = M.quantize_patch_interval((0.0, 1.0))
        assert (lo, hi) == (0, 127)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="'train'"):
            M.patch_position_index((0.25, 0.5), "train", np.random.default_rng(0))

    def test_train_uniform_over_interval(self):
        rng = np.random.default_rng(0)
        draws = np.array(
            [M.patch_position_index((0.25, 0.5), "pretrain", rng) for _ in range(20_000)]
        )
        assert draws.min() == 32 and draws.max() == 64
        counts = np.bincount(draws - 32, minlength=33)
        expected = 20_000 / 33
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 62.5  # 32 dof, p = 0.001

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            M.quantize_patch_interval((0.5, 0.5))
        with pytest.raises(ValueError):
            M.quantize_patch_interval((-0.1, 0.5))


class TestLocalPositions:
    def test_timestep_pattern(self):
        cfg = micro_cfg()
        seq = manual_sequence(
            [("tensor", 1), ("tensor", 2), ("tensor", 3), ("sep",), ("action", 0), ("action", 1)]
        )
        idx = M.resolve_local_indices(seq.sources, seq.local_pos, cfg)
        sep, act = cfg.separator_local_index, cfg.action_local_index
        assert idx.tolist() == [0, 1, 2, sep, act, act]

    def test_identical_timesteps_identical_patterns(self):
        cfg = micro_cfg()
        step = [("tensor", 1), ("tensor", 2), ("sep",), ("action", 0)]
        seq = manual_sequence(step + [("ts",)] + step)
        idx = M.resolve_local_indices(seq.sources, seq.local_pos, cfg)
        assert idx[:4].tolist() == idx[4:].tolist()

    def test_capacity_error(self):
        cfg = M.tiny()  # table 512, capacity 510
        spec = [("tensor", 0)] * 512 + [("sep",)]
        seq = manual_sequence(spec)
        with pytest.raises(CapacityError):
            M.resolve_local_indices(seq.sources, seq.local_pos, cfg)


class TestEmbedding:
    def test_all_padding_embeds_to_zero(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=0)
        batch = assemble_batch([manual_sequence([("pad",)] * 6)])
        emb, _ = embed_batch(params, cfg, batch, "eval", None)
        assert not emb.any()

    def test_same_token_same_local_equal_vectors(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=0)
        step = [("tensor", 5), ("sep",), ("action", 1)]
        batch = assemble_batch([manual_sequence(step + [("ts",)] + step)])
        emb, _ = embed_batch(params, cfg, batch, "eval", None)
        assert np.array_equal(emb[0, 0], emb[0, 3])
        assert np.array_equal(emb[0, 2], emb[0, 5])

    def test_patch_embedding_eval_deterministic(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=0)
        batch = small_batch()
        a, _ = embed_batch(params, cfg, batch, "eval", None)
        b, _ = embed_batch(params, cfg, batch, "eval", None)
        assert np.array_equal(a, b)

    def test_token_range_checked(self):
        cfg = micro_cfg(vocab=50)
        params = M.init_params(cfg, seed=0)
        batch = assemble_batch([manual_sequence([("tensor", 51), ("action", 0)])])
        with pytest.raises(ValueError):
            embed_batch(params, cfg, batch, "eval", None)


# Rows 0 and 1 repeat, 2 and 3 stand alone; the second batch is one row four times.
REPEATED_PATCH_ROWS = ([0, 1, 0, 2, 1, 0, 3], [2, 2, 2, 2])


def _repeated_pixels(order):
    return np.random.default_rng(0).uniform(-0.25, 0.25, size=(4, 16, 16, 3))[order]


class TestDistinctPatches:
    """The embedder runs once per distinct patch and copies the result."""

    @pytest.mark.parametrize("order", REPEATED_PATCH_ROWS)
    def test_equals_one_call_per_patch(self, order):
        cfg = micro_cfg()
        params = {k: v.astype(np.float64) for k, v in M.init_params(cfg, seed=3).items()}
        pixels = _repeated_pixels(order)
        dout = np.random.default_rng(1).normal(size=(len(pixels), cfg.width))
        out, cache = patch_embed.patch_embed_fwd(params, cfg, pixels)
        grads = patch_embed.patch_embed_bwd(dout, cache, params)
        ref_out, ref_grads = [], {}
        for i in range(len(pixels)):
            one, one_cache = patch_embed.patch_embed_fwd(params, cfg, pixels[i : i + 1])
            ref_out.append(one)
            for name, g in patch_embed.patch_embed_bwd(dout[i : i + 1], one_cache, params).items():
                ref_grads[name] = ref_grads.get(name, 0.0) + g
        assert np.allclose(out, np.concatenate(ref_out), rtol=1e-13, atol=1e-15)
        assert grads.keys() == ref_grads.keys()
        # patch/conv1/b is zero in exact arithmetic (GroupNorm follows it), so
        # each error is bounded against the norm of the whole gradient.
        scale = np.sqrt(sum(np.linalg.norm(g) ** 2 for g in ref_grads.values()))
        for name, ref in ref_grads.items():
            assert np.linalg.norm(grads[name] - ref) <= 64 * np.finfo(np.float64).eps * scale, name

    def test_convolutions_see_only_distinct_patches(self, monkeypatch):
        order = REPEATED_PATCH_ROWS[0]
        spec = [("patch", (0.0, 0.5), (0.0, 0.5))] * len(order) + [("sep",), ("action", 1)]
        batch = assemble_batch([manual_sequence(spec)])
        batch.patch_pixels = _repeated_pixels(order)
        conv_rows, embed_rows = [], []

        def recording_conv2d_fwd(x, w, b):
            conv_rows.append(x.shape[0])
            return ops.conv2d_fwd(x, w, b)

        def recording_patch_embed_fwd(params, cfg, pixels):
            out, cache = patch_embed.patch_embed_fwd(params, cfg, pixels)
            embed_rows.append(out.shape[0])
            return out, cache

        monkeypatch.setattr(patch_embed, "conv2d_fwd", recording_conv2d_fwd)
        monkeypatch.setattr(network, "patch_embed_fwd", recording_patch_embed_fwd)
        cfg = micro_cfg()
        M.loss_and_grads(M.init_params(cfg, seed=0), cfg, batch, "eval")
        assert conv_rows == [len(set(order))] * 3  # conv1, conv2 and the skip
        assert embed_rows == [len(order)]


PATCH_PARAMS = {
    "embed/patch_row", "embed/patch_col", "patch/gn1/g", "patch/gn1/b", "patch/conv1/w",
    "patch/conv1/b", "patch/gn2/g", "patch/gn2/b", "patch/conv2/w", "patch/conv2/b",
    "patch/skip/w", "patch/skip/b", "patch/proj/w", "patch/proj/b",
}
SUB_LAYER_PARAMS = (
    ("ln1/g", "ln1/b", "attn/wq", "attn/bq", "attn/wk", "attn/bk", "attn/wv", "attn/bv",
     "attn/wo", "attn/bo"),
    ("ln2/g", "ln2/b", "ffn/wg", "ffn/bg", "ffn/wv", "ffn/bv", "ffn/wo", "ffn/bo"),
)


class TestGradientKeys:
    """``loss_and_grads`` returns a gradient for each parameter the batch reached."""

    def _check(self, dtype, batch, mode="eval", streams=None):
        cfg = micro_cfg(vocab=64, stochastic_depth=0.5)
        params = M.init_params(cfg, seed=2, dtype=dtype)
        _, grads = M.loss_and_grads(params, cfg, batch, mode=mode, streams=streams)
        for name, g in grads.items():
            assert g.dtype == params[name].dtype == dtype, name
            assert g.shape == params[name].shape, name
            assert not any(np.may_share_memory(g, p) for p in params.values()), name
        return params.keys() - grads.keys()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_patch_batch_has_every_name(self, dtype):
        assert self._check(dtype, small_batch(with_sep=False)) == set()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_patchless_batch_lacks_the_patch_names(self, dtype):
        spec = [("text", 5), ("tensor", 7), ("action", 3), ("ts",), ("tensor", 9), ("action", 1)]
        batch = assemble_batch([manual_sequence(spec)])
        assert self._check(dtype, batch) == PATCH_PARAMS

    @pytest.mark.parametrize("skipped", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_skipped_sub_layer_lacks_its_names(self, dtype, skipped, scripted_rng):
        # draws per block: attention, then feedforward; a draw below 0.5 skips
        block, layer = divmod(skipped, 2)
        streams = M.RngStreams(0)
        streams.stochastic_depth = scripted_rng(randoms=[0.0 if i == skipped else 0.9
                                                         for i in range(4)])
        missing = self._check(dtype, small_batch(with_sep=False), "pretrain", streams)
        expected = {f"block{block}/{name}" for name in SUB_LAYER_PARAMS[layer]}
        assert missing == expected


class TestForward:
    def test_causality(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=1)
        base = [("tensor", 3), ("tensor", 4), ("sep",), ("action", 1), ("ts",),
                ("tensor", 5), ("tensor", 6), ("sep",), ("action", 0)]
        logits_a = M.forward_logits(params, cfg, assemble_batch([manual_sequence(base)]))
        j = 4  # element index of the first timestep-2 observation
        changed = list(base)
        changed[5] = ("tensor", 9)  # list index 5 == element index 4 (ts marker)
        logits_b = M.forward_logits(params, cfg, assemble_batch([manual_sequence(changed)]))
        assert np.array_equal(logits_a[0, :j], logits_b[0, :j])
        assert not np.allclose(logits_a[0, j:], logits_b[0, j:])

    def test_eval_bit_reproducible(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=2)
        batch = small_batch()
        a = M.forward_logits(params, cfg, batch)
        b = M.forward_logits(params, cfg, batch)
        assert np.array_equal(a, b)

    def test_zero_output_projection_uniform_softmax(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=3)
        params["embed/vocab"] = np.zeros_like(params["embed/vocab"])
        batch = small_batch()
        logits = M.forward_logits(params, cfg, batch)
        assert np.allclose(logits, 0.0)

    def test_context_overflow(self):
        cfg = micro_cfg(context=4)
        params = M.init_params(cfg, seed=0)
        batch = small_batch(L=12)
        with pytest.raises(CapacityError):
            M.forward_logits(params, cfg, batch)

    def test_stochastic_depth_never_skip_equals_eval(self):
        cfg = micro_cfg(stochastic_depth=0.4)
        params = M.init_params(cfg, seed=4)
        batch = small_batch()

        class NeverSkip:
            def random(self):
                return 1.0  # never below the skip probability

        streams = M.RngStreams(0)
        streams.stochastic_depth = NeverSkip()
        emb, _ = embed_batch(params, cfg, batch, "eval", None)
        train_h, _ = hidden_fwd(params, cfg, emb, "pretrain", streams)
        eval_h, _ = hidden_fwd(params, cfg, emb, "eval", None)
        assert np.array_equal(train_h, eval_h)

    def test_stochastic_depth_skips_change_output(self):
        cfg = micro_cfg(stochastic_depth=0.9)
        params = M.init_params(cfg, seed=4)
        batch = small_batch()
        streams = M.RngStreams(0)
        emb, _ = embed_batch(params, cfg, batch, "eval", None)
        train_h, _ = hidden_fwd(params, cfg, emb, "pretrain", streams)
        eval_h, _ = hidden_fwd(params, cfg, emb, "eval", None)
        assert not np.array_equal(train_h, eval_h)

    def test_pretrain_stochastic_depth_needs_streams(self):
        cfg = micro_cfg(stochastic_depth=0.1)
        params = M.init_params(cfg, seed=4)
        batch = assemble_batch([manual_sequence([("tensor", 3), ("sep",), ("action", 1)])])
        with pytest.raises(ValueError, match="pretrain"):
            M.loss_and_grads(params, cfg, batch)  # defaults: pretrain, no streams

    def test_finetune_dropout_needs_streams(self):
        cfg = micro_cfg(dropout=0.1)
        params = M.init_params(cfg, seed=4)
        emb, _ = embed_batch(params, cfg, small_batch(), "eval", None)
        with pytest.raises(ValueError, match="finetune"):
            hidden_fwd(params, cfg, emb, "finetune", None)

    def test_unknown_mode_rejected(self):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=4)
        batch = assemble_batch([manual_sequence([("tensor", 3), ("sep",), ("action", 1)])])
        with pytest.raises(ValueError, match="'train'"):
            M.loss_and_grads(params, cfg, batch, mode="train", streams=M.RngStreams(0))


class TestMaskedLoss:
    def test_uniform_logits_single_target(self):
        V = 33025
        logits = np.zeros((1, 1, V))
        res = masked_nll_loss(logits, np.array([[7]]), np.array([[1]]))
        assert res.total == pytest.approx(math.log(V), rel=1e-12)
        assert res.masked_tokens == 1
        assert res.mean == pytest.approx(math.log(V), rel=1e-12)

    def test_all_zero_mask(self):
        logits = np.random.default_rng(0).normal(size=(2, 3, 5))
        res = masked_nll_loss(logits, np.full((2, 3), -1), np.zeros((2, 3)))
        assert res.total == 0.0 and res.masked_tokens == 0 and res.mean == 0.0

    def test_matches_double_precision_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 4, 7))
        targets = rng.integers(0, 7, size=(2, 4))
        mask = rng.integers(0, 2, size=(2, 4))
        res = masked_nll_loss(logits, targets, mask)
        # independent oracle: direct double-precision softmax cross-entropy
        expected = 0.0
        for b in range(2):
            for l in range(4):
                if mask[b, l]:
                    row = logits[b, l].astype(np.float64)
                    p = np.exp(row) / np.exp(row).sum()
                    expected -= math.log(p[targets[b, l]])
        assert res.total == pytest.approx(expected, abs=1e-10)

    def test_mask_zero_targets_irrelevant(self):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=5, dtype=np.float64)
        batch = small_batch(with_sep=False)
        res1, grads1 = M.loss_and_grads(params, cfg, batch, mode="eval")
        # clobber targets wherever the shifted mask is zero
        batch2 = small_batch(with_sep=False)
        clobbered = batch2.shifted_targets()
        clobbered[batch2.shifted_mask() == 0] = 11
        batch2.shifted_targets = lambda: clobbered
        res2, grads2 = M.loss_and_grads(params, cfg, batch2, mode="eval")
        assert res1.total == res2.total
        for k in grads1:
            assert np.array_equal(grads1[k], grads2[k])

    def test_loss_linearity(self):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=6, dtype=np.float64)
        item = small_item(with_sep=False)
        single = assemble_batch([item])
        double = assemble_batch([item, item])
        res1, grads1 = M.loss_and_grads(params, cfg, single, mode="eval")
        res2, grads2 = M.loss_and_grads(params, cfg, double, mode="eval")
        assert res2.total == pytest.approx(2 * res1.total, rel=1e-12)
        for k in grads1:
            assert np.allclose(2 * grads1[k], grads2[k], rtol=1e-9, atol=1e-12)

    def test_unused_vocab_rows_zero_grad(self):
        # With nothing masked there is no output-projection contribution, so
        # rows never fed as inputs must have exactly zero gradient. (With a
        # shared embedding and masked targets present, the softmax partition
        # function gives every row an output-side gradient by construction.)
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=7, dtype=np.float64)
        batch = small_batch(with_sep=False)
        batch.shifted_mask = lambda: np.zeros(batch.sources.shape, np.uint8)
        res, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
        assert res.masked_tokens == 0
        used = set(batch.tokens[batch.tokens >= 0].tolist())
        unused = sorted(set(range(64)) - used)
        assert unused, "fixture should leave some rows untouched"
        assert not grads["embed/vocab"][unused].any()

    def test_per_item_partition(self):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=8, dtype=np.float64)
        items = [small_item(seed=s, with_sep=False) for s in (0, 1)]
        batch = assemble_batch(items)
        res, _ = M.loss_and_grads(params, cfg, batch, mode="eval")
        assert res.per_item.sum() == pytest.approx(res.total, rel=1e-12)

    def test_chain_rule_consistency(self):
        # total sequence log-probability equals the sum of one-position-at-a-time
        # conditionals evaluated with growing prefixes
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=9, dtype=np.float64)
        spec = [("tensor", 3), ("tensor", 8), ("action", 1), ("ts",), ("tensor", 5), ("tensor", 9), ("action", 2)]
        full = assemble_batch([manual_sequence(spec)])
        res, _ = M.loss_and_grads(params, cfg, full, mode="eval")
        total = 0.0
        shifted_mask = full.shifted_mask()[0]
        shifted_tgt = full.shifted_targets()[0]
        for l in range(full.seq_len):
            if not shifted_mask[l]:
                continue
            prefix = assemble_batch([manual_sequence(spec).slice(0, l + 1)])
            logits = M.forward_logits(params, cfg, prefix, positions=np.array([l]))
            logp = logits[0] - np.log(np.exp(logits[0] - logits[0].max()).sum()) - logits[0].max()
            total -= logp[shifted_tgt[l]]
        assert total == pytest.approx(res.total, rel=1e-9)


class TestSharedEmbedding:
    def test_input_and_output_contributions_accumulate(self):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=10, dtype=np.float64)
        batch = small_batch(with_sep=False)
        _, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
        # target-only rows (predicted but never fed as input) still get grads
        targets = set(batch.shifted_targets()[batch.shifted_mask() == 1].tolist())
        inputs = set(batch.tokens[batch.tokens >= 0].tolist())
        target_only = targets - inputs
        for t in target_only:
            assert grads["embed/vocab"][t].any()


class TestOutOfRangeIds:
    """Token id 5000 has no row in a model with 2049 rows."""

    def _model(self):
        cfg = micro_cfg()
        return cfg, M.init_params(cfg, seed=0)

    @pytest.mark.parametrize("call", ["embed", "logits", "loss"])
    def test_as_input(self, call):
        cfg, params = self._model()
        batch = assemble_batch([manual_sequence([("text", 7), ("text", 5000), ("text", 9)])])
        run = {
            "embed": lambda: embed_batch(params, cfg, batch, "eval", None),
            "logits": lambda: M.forward_logits(params, cfg, batch),
            "loss": lambda: M.loss_and_grads(params, cfg, batch, mode="eval"),
        }[call]
        with pytest.raises(ValueError, match="token id 5000 .*vocab 2049"):
            run()

    def test_as_masked_target(self):
        cfg, params = self._model()
        batch = assemble_batch([manual_sequence([("text", 7), ("text", 8), ("text", 9)])])
        assert batch.shifted_mask()[0, 1]
        targets = batch.shifted_targets()
        targets[0, 1] = 5000
        batch.shifted_targets = lambda: targets
        with pytest.raises(ValueError, match="token id 5000 .*vocab 2049"):
            M.loss_and_grads(params, cfg, batch, mode="eval")

    @pytest.mark.parametrize("bad", [-2, -1, codec.VOCAB_SIZE, 40_000])
    def test_ids_outside_the_rows(self, bad):
        # a negative id would otherwise index rows from the end
        cfg, params = self._model()
        batch = assemble_batch([manual_sequence([("tensor", 3), ("tensor", bad)])])
        with pytest.raises(ValueError, match=f"token id {bad} "):
            embed_batch(params, cfg, batch, "eval", None)


def test_gradients_with_separator_row_match_finite_differences():
    """Sampled entries of every parameter of a 2049-row model, the separator's
    row 2048 among them."""
    cfg = micro_cfg(context=24)
    params = M.init_params(cfg, seed=4, dtype=np.float64)
    cont = codec.CONTINUOUS_BASE
    spec = [
        ("text", 3), ("patch", (0.25, 0.5), (0.4, 0.6)), ("tensor", 1000), ("sep",),
        ("action", cont + 7), ("action", cont + 1020), ("ts",),
        ("text", 200), ("tensor", cont + 512), ("sep",), ("action", cont + 7),
    ]
    batch = assemble_batch([manual_sequence(spec, seed=1), manual_sequence(spec[:6], seed=2)])

    def dense_loss():
        logits = M.forward_logits(params, cfg, batch)
        return masked_nll_loss(logits, batch.shifted_targets(), batch.shifted_mask()).total

    res, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
    assert res.total == pytest.approx(dense_loss(), rel=1e-12)
    rng = np.random.default_rng(0)
    h = 1e-6
    for name in sorted(params):
        flat, gflat = params[name].reshape(-1), grads[name].reshape(-1)
        if name == "embed/vocab":
            used = [3, 1000, cont + 7, cont + 512, cont + 1020, codec.SEPARATOR_TOKEN, 500]
            indices = [i * cfg.width + int(rng.integers(cfg.width)) for i in used]
        else:
            indices = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + h
            up = dense_loss()
            flat[idx] = orig - h
            down = dense_loss()
            flat[idx] = orig
            fd, analytic = (up - down) / (2 * h), gflat[idx]
            diff = abs(analytic - fd)
            assert diff <= 1e-7 or diff / max(abs(analytic), abs(fd)) < 1e-4, (name, idx, fd)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            micro_cfg(width=18)  # not divisible by 4
        with pytest.raises(ConfigError):
            micro_cfg(blocks=0)
        with pytest.raises(ConfigError):
            micro_cfg(stochastic_depth=1.0)
        with pytest.raises(ConfigError, match="vocab must be >= 1"):
            micro_cfg(vocab=0)

    def test_presets(self):
        tiny = M.tiny()
        assert (tiny.blocks, tiny.heads, tiny.width) == (4, 4, 128)
        full = M.FULL_SCALE["79m"]
        assert (full.blocks, full.heads, full.width, full.kv_size) == (8, 24, 768, 32)
        assert M.FULL_SCALE["1.18b"].ff_hidden == 8192

    def test_tiny_init_digest(self):
        params = M.init_params(M.tiny(), seed=0)
        h = hashlib.sha256()
        for name in sorted(params):
            p = params[name]
            for part in (name, str(p.dtype), repr(p.shape)):
                h.update(part.encode())
            h.update(p.tobytes())
        assert h.hexdigest() == TINY_INIT_SHA256

    def test_truncated_normal_bounds_and_dtype(self):
        out = ops.truncated_normal(np.random.default_rng(0), (300, 7), 0.5, np.float32, bound=0.3)
        assert out.shape == (300, 7) and out.dtype == np.float32
        assert np.all(np.abs(out) <= np.float32(0.15)) and len(np.unique(out)) == out.size

    def test_param_count_monotone_in_width(self):
        small = M.init_params(micro_cfg(width=16), seed=0)
        large = M.init_params(micro_cfg(width=32, kv_size=16), seed=0)
        assert M.parameter_count(large) > M.parameter_count(small)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=11)
        streams = M.RngStreams(3)
        streams.stochastic_depth.random(5)  # advance a cursor
        opt = {
            "step": 17,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.ones_like(v) for k, v in params.items()},
        }
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, params, optimizer_state=opt,
                          rng_states=streams.state_dict(), extra={"step": 17})
        loaded = M.load_checkpoint(path)
        assert loaded["cfg"] == cfg
        assert set(loaded["params"]) == set(params)
        for k in params:
            assert np.array_equal(loaded["params"][k], params[k])
        assert loaded["optimizer_state"]["step"] == 17
        assert np.array_equal(loaded["optimizer_state"]["v"]["final_ln/g"], np.ones(16, np.float32))
        restored = M.RngStreams(0)
        restored.load_state(loaded["rng_states"])
        assert restored.stochastic_depth.random() == streams.stochastic_depth.random()
        assert loaded["extra"] == {"step": 17}

    @pytest.mark.parametrize("rows", [33025, 3000])
    def test_former_layout_keeps_text_bin_and_separator_rows(self, tmp_path, rows):
        # text rows first, then the bins and the separator as the last 1025 rows
        cfg = micro_cfg(vocab=rows)
        params = M.init_params(cfg, seed=12)
        rng = np.random.default_rng(0)
        opt = {"step": 3,
               "m": {k: rng.normal(size=v.shape).astype(v.dtype) for k, v in params.items()},
               "v": {k: rng.random(v.shape).astype(v.dtype) for k, v in params.items()}}
        path = tmp_path / "former.ckpt"
        M.save_checkpoint(path, cfg, params, optimizer_state=opt)
        loaded = M.load_checkpoint(path)
        assert loaded["cfg"] == micro_cfg() and loaded["cfg"].vocab == 2049
        kept = np.r_[0:1024, rows - 1025:rows]
        for saved, got in ((params, loaded["params"]), (opt["m"], loaded["optimizer_state"]["m"]),
                           (opt["v"], loaded["optimizer_state"]["v"])):
            assert got["embed/vocab"].shape == (2049, 16)
            assert got["embed/vocab"].tobytes() == saved["embed/vocab"][kept].tobytes()
            for name in saved:
                if name != "embed/vocab":
                    assert got[name].tobytes() == saved[name].tobytes(), name

    def test_current_layout_loads_byte_identically(self, tmp_path):
        cfg = micro_cfg()
        params = M.init_params(cfg, seed=13)
        opt = {"step": 1, "m": {k: v * 2 for k, v in params.items()},
               "v": {k: v * v for k, v in params.items()}}
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, params, optimizer_state=opt)
        loaded = M.load_checkpoint(path)
        assert loaded["cfg"] == cfg
        # saving what was loaded writes the same bytes, every tensor's included
        again = tmp_path / "again.ckpt"
        M.save_checkpoint(again, loaded["cfg"], loaded["params"],
                          optimizer_state=loaded["optimizer_state"])
        assert again.read_bytes() == path.read_bytes()

    def test_corruption_detected(self, tmp_path):
        cfg = micro_cfg(vocab=64)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, M.init_params(cfg, seed=0))
        data = bytearray(path.read_bytes())
        data[50] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            M.load_checkpoint(path)

    @staticmethod
    def _traced_peak(fn):
        """(fn(), the peak of traced allocation while it ran, in bytes)."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    def test_save_and_load_stream_through_the_file(self, tmp_path):
        cfg = M.tiny()
        params = M.init_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        opt = {"step": 4,
               "m": {k: rng.standard_normal(v.shape, np.float32) for k, v in params.items()},
               "v": {k: rng.random(v.shape, np.float32) for k, v in params.items()}}
        path = tmp_path / "tiny.ckpt"
        _, save_peak = self._traced_peak(
            lambda: M.save_checkpoint(path, cfg, params, optimizer_state=opt, extra={"step": 4}))
        size = path.stat().st_size
        assert save_peak < 0.05 * size
        loaded, load_peak = self._traced_peak(lambda: M.load_checkpoint(path))
        groups = (loaded["params"], loaded["optimizer_state"]["m"], loaded["optimizer_state"]["v"])
        arrays = sum(a.nbytes for g in groups for a in g.values())
        assert load_peak <= arrays + 2 * 2**20
        for saved, got in zip((params, opt["m"], opt["v"]), groups):
            for name in saved:
                assert got[name].tobytes() == saved[name].tobytes(), name

    def test_float64_model_roundtrips_as_float32(self, tmp_path):
        cfg = micro_cfg(vocab=64)
        params = M.init_params(cfg, seed=5, dtype=np.float64)
        opt = {"step": 2, "m": {k: v * 3 for k, v in params.items()},
               "v": {k: v * v for k, v in params.items()}}
        single = {k: v.astype(np.float32) for k, v in params.items()}
        path, expected = tmp_path / "f64.ckpt", tmp_path / "f32.ckpt"
        M.save_checkpoint(path, cfg, params, optimizer_state=opt)
        M.save_checkpoint(expected, cfg, single, optimizer_state={
            "step": 2, **{g: {k: v.astype(np.float32) for k, v in opt[g].items()} for g in "mv"}})
        assert path.read_bytes() == expected.read_bytes()
        loaded = M.load_checkpoint(path)
        for name, value in loaded["params"].items():
            assert value.dtype == np.float32 and value.tobytes() == single[name].tobytes()
        # a float64 state converts one tensor at a time
        big = M.init_params(M.tiny(), seed=0, dtype=np.float64)
        _, peak = self._traced_peak(lambda: M.save_checkpoint(path, M.tiny(), big))
        assert peak <= max(v.nbytes for v in big.values()) // 2 + 2**20

    @staticmethod
    def _with_first_dim(data: bytes, dim) -> bytes:
        """CRC-valid checkpoint bytes whose first tensor's first dimension is
        ``dim(remaining body bytes after the dims, the other dims' product)``."""
        magic, version = M.checkpoint.MAGIC, M.checkpoint.CHECKPOINT_VERSION
        body = frame_body(data, magic, version)
        r = Reader(io.BytesIO(data), magic, version)
        r.string(), r.u32(), r.string()
        ndim, dims_at = r.u8(), r.pos
        rest = math.prod([r.u32() for _ in range(ndim)][1:])
        first = dim(len(body) - r.pos, rest)
        return framed(magic, version, lambda w: (
            w.raw(body[:dims_at]), w.u32(first), w.raw(body[dims_at + 4:])))

    @pytest.mark.parametrize("dim", [
        lambda left, rest: left // (4 * rest) + 1,  # one row more than the body holds
        lambda left, rest: 2**32 - 1,  # far more than memory holds
    ], ids=["one-row-past", "u32-max"])
    def test_tensor_past_the_body_is_refused(self, tmp_path, dim):
        path = tmp_path / "golden.ckpt"
        golden_checkpoint(path)
        path.write_bytes(self._with_first_dim(path.read_bytes(), dim))
        with pytest.raises(RecordFormatError, match="frame body ends at byte"):
            M.load_checkpoint(path)

    def test_checksum_is_checked_before_parsing(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        golden_checkpoint(path)
        data = path.read_bytes()
        # a tensor past the body, under the intact file's CRC
        path.write_bytes(self._with_first_dim(data, lambda left, rest: 2**32 - 1)[:-4] + data[-4:])
        with pytest.raises(ChecksumError, match="SQCK checksum mismatch"):
            M.load_checkpoint(path)

    def test_body_len_past_end_of_file(self, tmp_path):
        path = tmp_path / "golden.ckpt"
        golden_checkpoint(path)
        data = bytearray(path.read_bytes())
        data[6:14] = (len(data) - 14 - 4 + 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedRecordError, match="SQCK frame claims 293262 body bytes, only 293261"):
            M.load_checkpoint(path)


def test_gelu_float64_within_roundoff_of_reference():
    """``math.erf`` and scipy's erf differ by a few ulp, so the float64 GELU is
    held to absolute bounds: ``1 + erf`` cancels for very negative x, where a
    few ulp of erf are many ulp of y."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 33)) * 3
    dy = rng.standard_normal((64, 33))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    y_ref = 0.5 * x * (1.0 + erf(x * inv_sqrt2))
    cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
    dx_ref = dy * (cdf + x * (np.exp(-0.5 * x * x) * inv_sqrt2pi))
    y, cache = gelu_fwd(x)
    dx = gelu_bwd(dy, cache)
    eps = float(np.finfo(np.float64).eps)
    assert y.dtype == dx.dtype == np.float64
    assert np.all(np.abs(y - y_ref) <= 4 * eps * np.abs(x))
    assert np.all(np.abs(dx - dx_ref) <= 4 * eps * np.abs(dy))


def test_runtime_imports_no_scipy():
    """The runtime needs NumPy alone. A fresh interpreter checks it, since
    this test session imports scipy itself."""
    code = (
        "import sys, seqpolicy.cli, seqpolicy.trainer, seqpolicy.policy; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(seqpolicy.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def _scipy_gelu_fwd(x):
    """GELU with ``scipy.special.erf`` in x's dtype, the float32 baseline the
    rational erf is held to; its cache is the derivative ``gelu_bwd`` takes."""
    e = erf(x * (1.0 / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return 0.5 * x * (1.0 + e), 0.5 * (1.0 + e) + x * pdf


def _gelu_float64(x):
    """GELU and its derivative in float64; erfc below zero keeps Phi's digits."""
    x = x.astype(np.float64)
    z = x / math.sqrt(2.0)
    cdf = np.where(x < 0, 0.5 * erfc(-z), 0.5 * (1.0 + erf(z)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x * cdf, cdf + x * pdf


def _float32_sweep():
    """A dense grid on [-20, 20], geometric grids toward +-0 down to the
    smallest subnormal, and +-3e38."""
    toward_zero = np.geomspace(1.0, float(np.finfo(np.float32).smallest_subnormal), 2000)
    toward_zero = toward_zero.astype(np.float32)
    return np.concatenate([
        np.linspace(-20.0, 20.0, 400_001, dtype=np.float32),
        toward_zero,
        -toward_zero,
        np.array([3e38, -3e38], np.float32),
    ])


@pytest.mark.parametrize("gelu", [gelu_fwd, _scipy_gelu_fwd], ids=["rational", "scipy"])
def test_gelu_float32_within_roundoff_of_float64(gelu):
    x = _float32_sweep()
    y64, d64 = _gelu_float64(x)
    with np.errstate(over="ignore"):  # x * x overflows to inf at 3e38 on both paths
        y, d = gelu(x)
    eps = float(np.finfo(np.float32).eps)
    # below the normal range y rounds to the subnormal grid, which no multiple of |x| bounds
    subnormal = float(np.finfo(np.float32).smallest_subnormal)
    assert y.dtype == d.dtype == np.float32
    assert np.all(np.abs(y - y64) <= 4 * eps * np.abs(x.astype(np.float64)) + subnormal)
    assert np.all(np.abs(d - d64) <= 4 * eps)


def test_gelu_float32_propagates_non_finite_like_scipy():
    x = np.array([np.inf, -np.inf, np.nan, 1.5], np.float32)
    with np.errstate(invalid="ignore"):  # inf * 0
        y, d = gelu_fwd(x)
        y_ref, d_ref = _scipy_gelu_fwd(x)
    assert np.array_equal(y[:3], [np.inf, np.nan, np.nan], equal_nan=True)
    assert np.array_equal(np.isfinite(y), np.isfinite(y_ref))
    assert np.array_equal(y[:3], y_ref[:3], equal_nan=True)
    assert np.array_equal(d[:3], d_ref[:3], equal_nan=True)


def _patch_bearing_batch():
    batch, _ = _draw_batch(mixed_sampler(seed=9), 8, 0.0)
    assert batch.patch_pixels is not None
    return batch


def test_float32_loss_and_grads_stay_float32(monkeypatch):
    caches = []

    def recording_gelu_fwd(x):
        y, cache = gelu_fwd(x)
        caches.append(cache)
        return y, cache

    monkeypatch.setattr(network, "gelu_fwd", recording_gelu_fwd)
    monkeypatch.setattr(patch_embed, "gelu_fwd", recording_gelu_fwd)
    cfg = M.tiny()
    _, grads = M.loss_and_grads(M.init_params(cfg, seed=3), cfg, _patch_bearing_batch(), "eval")
    assert len(caches) == cfg.blocks + 2  # one per FFN, two in the patch embedder
    assert all(cache.dtype == np.float32 for cache in caches)
    assert all(g.dtype == np.float32 for g in grads.values())
    # An in-place pass keeps a float32 array float32 even when a float64 scalar
    # makes it compute in float64, so the kernel's scalars are checked as well.
    scalars = [
        c
        for value in vars(ops).values()
        for c in (value if isinstance(value, tuple) else (value,))
        if isinstance(c, np.floating)
    ]
    assert scalars and all(c.dtype == np.float32 for c in scalars)


def test_float32_gradients_as_close_to_float64_as_with_scipy_erf(monkeypatch):
    """Per-tensor allclose cannot serve: some gradients (attn/bk, patch/conv1/b)
    are zero in exact arithmetic and hold only roundoff. So each float32
    gradient's error norm against float64 is bounded by twice the error of
    float32 with scipy's erf."""
    cfg = M.tiny()
    batch = _patch_bearing_batch()
    params = M.init_params(cfg, seed=3)
    exact, exact_grads = M.loss_and_grads(
        {k: v.astype(np.float64) for k, v in params.items()}, cfg, batch, "eval"
    )
    res, grads = M.loss_and_grads(params, cfg, batch, "eval")
    monkeypatch.setattr(network, "gelu_fwd", _scipy_gelu_fwd)
    monkeypatch.setattr(patch_embed, "gelu_fwd", _scipy_gelu_fwd)
    base, base_grads = M.loss_and_grads(params, cfg, batch, "eval")
    assert abs(res.total - exact.total) <= 2 * abs(base.total - exact.total)
    for name, exact_grad in exact_grads.items():
        err = np.linalg.norm(grads[name] - exact_grad)
        assert err <= 2 * np.linalg.norm(base_grads[name] - exact_grad), name
