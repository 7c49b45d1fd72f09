"""Central finite-difference verification of every parameter gradient.

The difference quotient uses the dense-logits + standalone-loss path while
the analytic gradients come from the fused training path, so the check also
pins the two implementations to each other.
"""

import numpy as np
import pytest

from seqpolicy import model as M
from seqpolicy.sequencer import assemble_batch

from conftest import manual_sequence, masked_nll_loss

H = 1e-6
REL_TOL = 1e-4
ABS_FLOOR = 1e-7  # central-difference roundoff floor for near-zero entries


def fd_cfg(**overrides):
    base = dict(
        blocks=2,
        heads=2,
        width=8,
        ff_hidden=16,
        kv_size=4,
        context=16,
        vocab=40,
        local_pos_table=8,
        patch_pos_vocab=8,
        stochastic_depth=0.0,
        dropout=0.0,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def fd_batch(with_sep=False, with_patches=True):
    sep = [("sep",)] if with_sep else []
    patch_a = [("patch", (0.25, 0.5), (0.4, 0.6))] if with_patches else [("tensor", 13)]
    patch_b = [("patch", (0.5, 1.0), (0.0, 0.25))] if with_patches else [("tensor", 14)]
    row_a = (
        [("text", 3)] + patch_a + [("tensor", 7)]
        + sep
        + [("action", 5), ("action", 2), ("ts",), ("text", 9), ("tensor", 1)]
        + sep
        + [("action", 4), ("pad",), ("pad",)]
    )
    row_b = (
        [("tensor", 11)] + patch_b + [("text", 6)]
        + sep
        + [("action", 8), ("ts",), ("tensor", 2), ("text", 30)]
        + sep
        + [("action", 1), ("pad",), ("pad",), ("pad",)]
    )
    return assemble_batch(
        [manual_sequence(row_a, seed=1), manual_sequence(row_b, seed=2)]
    )


def dense_loss(params, cfg, batch) -> float:
    logits = M.forward_logits(params, cfg, batch)
    return masked_nll_loss(logits, batch.shifted_targets(), batch.shifted_mask()).total


def check_entries(params, cfg, batch, grads, name, indices):
    arr = params[name]
    flat = arr.reshape(-1)
    gflat = grads[name].reshape(-1)
    worst = 0.0
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + H
        up = dense_loss(params, cfg, batch)
        flat[idx] = orig - H
        down = dense_loss(params, cfg, batch)
        flat[idx] = orig
        fd = (up - down) / (2 * H)
        a = gflat[idx]
        diff = abs(a - fd)
        rel = diff / max(abs(a), abs(fd), 1e-12)
        worst = max(worst, rel)
        assert diff <= ABS_FLOOR or rel < REL_TOL, (
            f"{name}[{idx}]: analytic {a}, fd {fd}, rel {rel}"
        )
    return worst


def test_fused_loss_matches_dense_op():
    cfg = fd_cfg()
    params = M.init_params(cfg, seed=0, dtype=np.float64)
    batch = fd_batch()
    res, _ = M.loss_and_grads(params, cfg, batch, mode="eval")
    assert res.total == pytest.approx(dense_loss(params, cfg, batch), rel=1e-12)


def test_every_parameter_entry_matches_finite_differences():
    cfg = fd_cfg()
    params = M.init_params(cfg, seed=0, dtype=np.float64)
    batch = fd_batch()
    _, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
    M.validate_gradients(params, grads)
    for name in sorted(params):
        check_entries(params, cfg, batch, grads, name, range(params[name].size))


def test_pretrain_mode_without_skips_matches_eval_gradients():
    # patchless batch: train-mode patch positions are sampled, eval takes means
    cfg = fd_cfg()
    params = M.init_params(cfg, seed=3, dtype=np.float64)
    batch = fd_batch(with_patches=False)
    _, g_eval = M.loss_and_grads(params, cfg, batch, mode="eval")
    _, g_train = M.loss_and_grads(
        params, cfg, batch, mode="pretrain", streams=M.RngStreams(0)
    )
    for k in g_eval:
        assert np.array_equal(g_eval[k], g_train[k])


def test_sampled_entries_full_vocab_with_separator():
    # exercises the separator token path; embedding rows sampled, not exhaustive
    cfg = fd_cfg(vocab=33025)
    params = M.init_params(cfg, seed=4, dtype=np.float64)
    batch = fd_batch(with_sep=True)
    _, grads = M.loss_and_grads(params, cfg, batch, mode="eval")
    rng = np.random.default_rng(0)
    for name in sorted(params):
        size = params[name].size
        if name == "embed/vocab":
            width = cfg.width
            # used tokens and unused rows; the separator's row 2048 is checked by
            # test_gradients_with_separator_row_match_finite_differences
            rows = [3, 7, 9, 33024, 12345]
            indices = [r * width + int(rng.integers(0, width)) for r in rows]
        elif size > 256:
            indices = sorted(int(i) for i in rng.choice(size, size=48, replace=False))
        else:
            indices = range(size)
        check_entries(params, cfg, batch, grads, name, indices)
