"""Exactness gates for the model's id-to-row table.

A model with ``vocab`` rows holds text ids ``[0, vocab - 1025)`` and then
``[32000, 33025)``. A compact model whose rows are copied from a full model's
used rows gives the full model's logits at those ids. Its loss and gradients
equal the full model's with every other logit at -inf, and its rollouts take
the same actions.
"""

from dataclasses import replace

import numpy as np
import pytest

from seqpolicy import codec
from seqpolicy import model as M
from seqpolicy.corpora import run_policy_episode
from seqpolicy.envs import ENV_NAMES, make_env, make_expert
from seqpolicy.model.network import embed_batch, embed_bwd, hidden_bwd, hidden_fwd
from seqpolicy.policy import RolloutConfig, rollout
from seqpolicy.sequencer import assemble_batch

from conftest import MIXED_LEN, manual_sequence, masked_nll_loss, micro_cfg, mixed_items

FULL = codec.VOCAB_SIZE
COMPACT = codec.COMPACT_VOCAB


class TestTable:
    def test_layouts(self):
        assert COMPACT == 2049
        ids, rows = M.vocab_table(FULL)
        np.testing.assert_array_equal(ids, np.arange(FULL))
        np.testing.assert_array_equal(rows, np.arange(FULL))
        ids, rows = M.vocab_table(COMPACT)
        np.testing.assert_array_equal(ids[:1024], np.arange(1024))
        np.testing.assert_array_equal(ids[1024:], np.arange(32000, 33025))
        assert rows[1023] == 1023 and rows[1024] == rows[31999] == -1
        assert rows[32000] == 1024 and rows[codec.SEPARATOR_TOKEN] == COMPACT - 1
        ids, rows = M.vocab_table(3000)
        assert ids[950] == 950 and ids[1975] == 32000
        for small in (40, 128, COMPACT - 1):
            ids, rows = M.vocab_table(small)
            np.testing.assert_array_equal(ids, np.arange(small))
            assert rows[small - 1] == small - 1 and rows[small] == -1

    def test_built_once_and_read_only(self):
        ids, rows = M.vocab_table(COMPACT)
        assert M.vocab_table(COMPACT)[0] is ids
        with pytest.raises(ValueError):
            rows[0] = 5

    def test_tiny_is_compact(self):
        assert M.tiny().vocab == COMPACT
        assert M.ModelConfig(1, 1, 4, 4, 4, 4).vocab == FULL
        assert M.micro().vocab == COMPACT


class TestOutOfLayoutIds:
    """Text id 5000 has no row in a compact model."""

    def _model(self):
        cfg = micro_cfg(vocab=COMPACT)
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
        with pytest.raises(ValueError, match=f"token id 5000 .*vocab {COMPACT}"):
            run()

    def test_as_masked_target(self):
        cfg, params = self._model()
        batch = assemble_batch([manual_sequence([("text", 7), ("text", 8), ("text", 9)])])
        assert batch.shifted_mask()[0, 1]
        targets = batch.shifted_targets()
        targets[0, 1] = 5000
        batch.shifted_targets = lambda: targets
        with pytest.raises(ValueError, match=f"token id 5000 .*vocab {COMPACT}"):
            M.loss_and_grads(params, cfg, batch, mode="eval")

    @pytest.mark.parametrize("bad", [-2, FULL, 40_000])
    def test_ids_outside_every_layout(self, bad):
        cfg, params = self._model()
        batch = assemble_batch([manual_sequence([("tensor", 3), ("tensor", bad)])])
        with pytest.raises(ValueError, match=f"token id {bad} "):
            embed_batch(params, cfg, batch, "eval", None)


def _compact_copy(cfg, params):
    """A compact model holding the full model's rows for the ids it keeps."""
    compact_cfg = replace(cfg, vocab=COMPACT)
    compact = dict(params)
    compact["embed/vocab"] = params["embed/vocab"][M.vocab_table(COMPACT)[0]].copy()
    return compact_cfg, compact


def _reference_loss_and_grads(params, cfg, batch, mode, streams, used):
    """The full model's masked loss with every logit outside ``used`` at -inf."""
    emb, emb_cache = embed_batch(params, cfg, batch, mode, streams)
    hidden, h_cache = hidden_fwd(params, cfg, emb, mode, streams, batch.segments)
    rows, cols = np.nonzero(batch.shifted_mask())
    hsel = hidden[rows, cols]
    picked = batch.shifted_targets()[rows, cols]
    logits = hsel @ params["embed/vocab"].T
    logits[:, ~used] = -np.inf
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    nll = -logp[np.arange(rows.size), picked]
    per_item = np.zeros(len(batch.provenance))
    np.add.at(per_item, batch.segments[rows, cols], nll)
    dlogits = np.exp(logp)
    dlogits[np.arange(rows.size), picked] -= 1.0
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["embed/vocab"] += dlogits.T @ hsel
    dhidden = np.zeros_like(hidden)
    dhidden[rows, cols] = dlogits @ params["embed/vocab"]
    demb = hidden_bwd(dhidden, h_cache, params, cfg, grads)
    embed_bwd(demb, emb_cache, params, grads)
    return nll.sum(), per_item, grads


class TestCompactEqualsFull:
    def _full(self):
        cfg = micro_cfg(vocab=FULL, context=MIXED_LEN, local_pos_table=64, dropout=0.2)
        return cfg, M.init_params(cfg, seed=3, dtype=np.float64)

    def test_logits_are_the_full_logits_at_used_ids(self):
        cfg, params = self._full()
        compact_cfg, compact = _compact_copy(cfg, params)
        batch = assemble_batch(mixed_items())
        full_logits = M.forward_logits(params, cfg, batch)
        compact_logits = M.forward_logits(compact, compact_cfg, batch)
        assert compact_logits.shape == batch.tokens.shape + (COMPACT,)
        np.testing.assert_allclose(
            compact_logits, full_logits[..., M.vocab_table(COMPACT)[0]], rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("mode", ["eval", "finetune"])
    def test_loss_and_grads_equal_full_with_unused_logits_at_minus_inf(self, mode):
        cfg, params = self._full()
        compact_cfg, compact = _compact_copy(cfg, params)
        batch = assemble_batch(mixed_items())
        kept = M.vocab_table(COMPACT)[0]
        used = np.zeros(FULL, dtype=bool)
        used[kept] = True
        assert batch.shifted_targets()[batch.shifted_mask() == 1].min() >= 0
        assert (batch.tokens >= codec.CONTINUOUS_BASE).any()
        ref_total, ref_items, ref_grads = _reference_loss_and_grads(
            params, cfg, batch, mode, M.RngStreams(4), used
        )
        loss, grads = M.loss_and_grads(compact, compact_cfg, batch, mode, M.RngStreams(4))
        tol = dict(rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(loss.total, ref_total, **tol)
        np.testing.assert_allclose(loss.per_item, ref_items, **tol)
        assert not ref_grads["embed/vocab"][~used].any()
        np.testing.assert_allclose(grads["embed/vocab"], ref_grads["embed/vocab"][kept], **tol)
        for name in params:
            if name != "embed/vocab":
                np.testing.assert_allclose(grads[name], ref_grads[name], err_msg=name, **tol)


def test_compact_gradients_match_finite_differences():
    """Sampled entries of every parameter, including the separator's row."""
    cfg = micro_cfg(vocab=COMPACT, context=24)
    params = M.init_params(cfg, seed=4, dtype=np.float64)
    cont = codec.CONTINUOUS_BASE
    spec = [
        ("text", 3), ("patch", (0.25, 0.5), (0.4, 0.6)), ("tensor", 1000), ("sep",),
        ("action", cont + 7), ("action", cont + 1020), ("ts",),
        ("text", 200), ("tensor", cont + 512), ("sep",), ("action", cont + 7),
    ]
    batch = assemble_batch([manual_sequence(spec, seed=1), manual_sequence(spec[:6], seed=2)])
    rows_of = M.vocab_table(COMPACT)[1]

    def dense_loss():
        logits = M.forward_logits(params, cfg, batch)
        targets = np.where(batch.shifted_mask() == 1, rows_of[batch.shifted_targets()], -1)
        return masked_nll_loss(logits, targets, batch.shifted_mask()).total

    res, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
    assert res.total == pytest.approx(dense_loss(), rel=1e-12)
    rng = np.random.default_rng(0)
    h = 1e-6
    for name in sorted(params):
        flat, gflat = params[name].reshape(-1), grads[name].reshape(-1)
        if name == "embed/vocab":
            used = [3, 1000, cont + 7, cont + 512, cont + 1020, codec.SEPARATOR_TOKEN, 500]
            indices = [int(rows_of[i]) * cfg.width + int(rng.integers(cfg.width)) for i in used]
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


def _prompt(env_name):
    return run_policy_episode(make_env(env_name, seed=99), make_expert(env_name))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rollouts_of_compact_copy_equal_full(dtype):
    """Actions, returns, forward passes and truncations, across every env,
    prompted or not, wide and narrow context, greedy and at temperature 0.7."""
    compared = 0
    cfg = micro_cfg(vocab=FULL, width=32, kv_size=16, context=128, local_pos_table=32)
    full = M.ModelState(cfg, M.init_params(cfg, seed=5, dtype=dtype), M.RngStreams(0))
    compact_cfg, compact_params = _compact_copy(cfg, full.params)
    compact = M.ModelState(compact_cfg, compact_params, M.RngStreams(0))
    for env_name in ENV_NAMES:
        prompt = _prompt(env_name)
        for prompted in (False, True):
            for context in (1024, 12):
                for temperature in (0.0, 0.7):
                    rcfg = RolloutConfig(
                        prompt=prompt if prompted else None, context=context,
                        temperature=temperature,
                    )
                    runs = [
                        rollout(state, make_env(env_name, seed=3), rcfg,
                                np.random.default_rng(8))
                        for state in (full, compact)
                    ]
                    (ep_f, ret_f, st_f), (ep_c, ret_c, st_c) = runs
                    assert ep_c == ep_f and ret_c == ret_f
                    assert st_c.forward_passes == st_f.forward_passes
                    assert st_c.truncations == st_f.truncations
                    compared += 1
    assert compared == len(ENV_NAMES) * 2 * 2 * 2 == 32
