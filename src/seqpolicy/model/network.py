"""Embedding function, decoder-only transformer, and the masked loss.

Parameters live in a flat ``{name: ndarray}`` dict. Forward passes stash the
caches needed for the hand-written reverse pass; ``loss_and_grads`` returns
exact gradients for the parameters the batch reached, with the shared
vocabulary matrix accumulating both its input-lookup and output-projection
contributions. A parameter it did not reach, such as the patch embedder on a
batch without patches or a sub-layer that stochastic depth skipped, has no
entry: its gradient is zero.
Token id ``i`` is ``embed/vocab`` row ``i``, and logits have one entry per row.

Modes: ``"pretrain"`` applies stochastic depth (sub-layers skipped with the
configured probability), ``"finetune"`` applies dropout on attention weights
and feedforward outputs instead, ``"eval"`` applies neither and is
deterministic. Random draws come from named streams whose cursors are
checkpointable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CapacityError, MissingGradientError
from ..sequencer import HAS_TOKEN, ElementSource, MaskedBatch
from .config import ModelConfig, mode_rules
from .ops import (
    gelu_bwd,
    gelu_fwd,
    layernorm_bwd,
    layernorm_fwd,
    linear_bwd,
    linear_fwd,
    softmax_bwd,
    softmax_last,
    truncated_normal,
)
from .patch_embed import init_patch_params, patch_embed_bwd, patch_embed_fwd
from .positions import patch_position_index, resolve_local_indices

STREAM_NAMES = ("stochastic_depth", "dropout", "patch_pos")


class RngStreams:
    """Named random streams with save/restore-able cursors."""

    def __init__(self, seed: int | None = 0):
        children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
        for name, seq in zip(STREAM_NAMES, children):
            setattr(self, name, np.random.Generator(np.random.PCG64(seq)))

    def state_dict(self) -> dict:
        return {name: getattr(self, name).bit_generator.state for name in STREAM_NAMES}

    def load_state(self, states: dict) -> None:
        for name in STREAM_NAMES:
            getattr(self, name).bit_generator.state = states[name]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def init_params(
    cfg: ModelConfig, seed: int = 0, dtype=np.float32
) -> dict[str, np.ndarray]:
    """Truncated-normal (std 0.02) weights, zero biases, unit norm gains."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    std = 0.02
    p: dict[str, np.ndarray] = {
        "embed/vocab": truncated_normal(rng, (cfg.vocab, cfg.width), std, dtype),
        "embed/local_pos": truncated_normal(rng, (cfg.local_pos_table, cfg.width), std, dtype),
        "embed/patch_row": truncated_normal(rng, (cfg.patch_pos_vocab, cfg.width), std, dtype),
        "embed/patch_col": truncated_normal(rng, (cfg.patch_pos_vocab, cfg.width), std, dtype),
    }
    p.update(init_patch_params(cfg, rng, dtype))
    hk = cfg.heads * cfg.kv_size
    for i in range(cfg.blocks):
        pfx = f"block{i}"
        p[f"{pfx}/ln1/g"] = np.ones(cfg.width, dtype)
        p[f"{pfx}/ln1/b"] = np.zeros(cfg.width, dtype)
        p[f"{pfx}/attn/wq"] = truncated_normal(rng, (cfg.width, hk), std, dtype)
        p[f"{pfx}/attn/bq"] = np.zeros(hk, dtype)
        p[f"{pfx}/attn/wk"] = truncated_normal(rng, (cfg.width, hk), std, dtype)
        p[f"{pfx}/attn/bk"] = np.zeros(hk, dtype)
        p[f"{pfx}/attn/wv"] = truncated_normal(rng, (cfg.width, hk), std, dtype)
        p[f"{pfx}/attn/bv"] = np.zeros(hk, dtype)
        p[f"{pfx}/attn/wo"] = truncated_normal(rng, (hk, cfg.width), std, dtype)
        p[f"{pfx}/attn/bo"] = np.zeros(cfg.width, dtype)
        p[f"{pfx}/ln2/g"] = np.ones(cfg.width, dtype)
        p[f"{pfx}/ln2/b"] = np.zeros(cfg.width, dtype)
        p[f"{pfx}/ffn/wg"] = truncated_normal(rng, (cfg.width, cfg.ff_hidden), std, dtype)
        p[f"{pfx}/ffn/bg"] = np.zeros(cfg.ff_hidden, dtype)
        p[f"{pfx}/ffn/wv"] = truncated_normal(rng, (cfg.width, cfg.ff_hidden), std, dtype)
        p[f"{pfx}/ffn/bv"] = np.zeros(cfg.ff_hidden, dtype)
        p[f"{pfx}/ffn/wo"] = truncated_normal(rng, (cfg.ff_hidden, cfg.width), std, dtype)
        p[f"{pfx}/ffn/bo"] = np.zeros(cfg.width, dtype)
    p["final_ln/g"] = np.ones(cfg.width, dtype)
    p["final_ln/b"] = np.zeros(cfg.width, dtype)
    return p


def parameter_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(v.size for v in params.values()))


def validate_gradients(params: dict, grads: dict) -> None:
    """Refuse gradients that miss a parameter; holds only for a batch that
    reaches every parameter, since ``loss_and_grads`` leaves out the rest."""
    missing = set(params) - set(grads)
    if missing:
        raise MissingGradientError(f"no gradient for parameters: {sorted(missing)}")


def vocab_rows(cfg: ModelConfig, ids: np.ndarray) -> np.ndarray:
    """The ``embed/vocab`` rows of ``ids``: the ids, once checked to be in ``[0, vocab)``."""
    bad = (ids < 0) | (ids >= cfg.vocab)
    if bad.any():
        raise ValueError(f"token id {ids[bad][0]} has no row in a model with vocab {cfg.vocab}")
    return ids


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embed_batch(
    params: dict,
    cfg: ModelConfig,
    batch: MaskedBatch,
    mode: str,
    streams: RngStreams | None,
):
    """Element sequences to (B, L, width) vectors; padding embeds to zero."""
    dtype = params["embed/vocab"].dtype
    b, length = batch.tokens.shape
    if length > cfg.context:
        raise CapacityError(f"sequence length {length} exceeds context {cfg.context}")
    emb = np.zeros((b, length, cfg.width), dtype=dtype)

    token_mask = HAS_TOKEN[batch.sources]
    token_rows = vocab_rows(cfg, batch.tokens[token_mask].astype(np.int64))
    emb[token_mask] = params["embed/vocab"][token_rows]

    add_mask = batch.sources != ElementSource.PAD
    local_sel = resolve_local_indices(batch.sources[add_mask], batch.local_pos[add_mask], cfg)
    emb[add_mask] += params["embed/local_pos"][local_sel]

    patch_cache = None
    row_idx = col_idx = None
    if batch.patch_pixels is not None and len(batch.patch_pixels):
        pe, patch_cache = patch_embed_fwd(params, cfg, batch.patch_pixels)
        rng = streams.patch_pos if streams is not None else None
        vocab = cfg.patch_pos_vocab
        row_idx = patch_position_index(batch.patch_intervals[:, 0:2], mode, rng, vocab)
        col_idx = patch_position_index(batch.patch_intervals[:, 2:4], mode, rng, vocab)
        pe = pe + params["embed/patch_row"][row_idx] + params["embed/patch_col"][col_idx]
        emb[batch.patch_slots[:, 0], batch.patch_slots[:, 1]] += pe

    cache = (token_mask, token_rows, add_mask, local_sel, patch_cache, row_idx, col_idx, batch)
    return emb, cache


def embed_bwd(demb: np.ndarray, cache, params: dict, grads: dict) -> None:
    token_mask, token_rows, add_mask, local_sel, patch_cache, row_idx, col_idx, batch = cache
    np.add.at(grads["embed/vocab"], token_rows, demb[token_mask])
    grads["embed/local_pos"] = np.zeros_like(params["embed/local_pos"])
    np.add.at(grads["embed/local_pos"], local_sel, demb[add_mask])
    if patch_cache is not None:
        dpe = demb[batch.patch_slots[:, 0], batch.patch_slots[:, 1]]
        for name, idx in (("embed/patch_row", row_idx), ("embed/patch_col", col_idx)):
            grads[name] = np.zeros_like(params[name])
            np.add.at(grads[name], idx, dpe)
        grads.update(patch_embed_bwd(dpe, patch_cache, params))


# ---------------------------------------------------------------------------
# transformer
# ---------------------------------------------------------------------------

def _attention_fwd(x, params, pfx, cfg, dropout_p, drop_rng, allowed, past=None, pick=None):
    b, length, _ = x.shape
    h, k = cfg.heads, cfg.kv_size
    if pick is not None:  # queries at the picked positions only; keys and values everywhere
        allowed = np.take_along_axis(allowed, pick[:, None], axis=2)
    xq = x if pick is None else np.take_along_axis(x, pick, axis=1)
    q2, cq = linear_fwd(xq, params[f"{pfx}/wq"], params[f"{pfx}/bq"])
    k2, ck = linear_fwd(x, params[f"{pfx}/wk"], params[f"{pfx}/bk"])
    v2, cv = linear_fwd(x, params[f"{pfx}/wv"], params[f"{pfx}/bv"])
    q = q2.reshape(b, -1, h, k).transpose(0, 2, 1, 3)
    kk = k2.reshape(b, length, h, k).transpose(0, 2, 1, 3)
    v = v2.reshape(b, length, h, k).transpose(0, 2, 1, 3)
    if past is not None:
        kk = np.concatenate([past[0], kk], axis=2)
        v = np.concatenate([past[1], v], axis=2)
    scores = (q @ kk.transpose(0, 1, 3, 2)) / math.sqrt(k)
    scores = np.where(allowed, scores, -np.inf)
    probs = softmax_last(scores)
    if dropout_p > 0.0:
        keep = (drop_rng.random(probs.shape) >= dropout_p).astype(x.dtype)
        keep /= 1.0 - dropout_p
        probs_used = probs * keep
    else:
        keep = None
        probs_used = probs
    ctx = (probs_used @ v).transpose(0, 2, 1, 3).reshape(b, -1, h * k)
    out, co = linear_fwd(ctx, params[f"{pfx}/wo"], params[f"{pfx}/bo"])
    cache = (cq, ck, cv, q, kk, v, probs, keep, co, (b, length, h, k))
    return out, cache


def _attention_bwd(dout, cache, params, pfx, grads):
    cq, ck, cv, q, kk, v, probs, keep, co, (b, length, h, k) = cache
    dctx, dwo, dbo = linear_bwd(dout, co, params[f"{pfx}/wo"])
    grads[f"{pfx}/wo"] = dwo
    grads[f"{pfx}/bo"] = dbo
    dctx = dctx.reshape(b, length, h, k).transpose(0, 2, 1, 3)
    probs_used = probs * keep if keep is not None else probs
    dprobs_used = dctx @ v.transpose(0, 1, 3, 2)
    dv = probs_used.transpose(0, 1, 3, 2) @ dctx
    dprobs = dprobs_used * keep if keep is not None else dprobs_used
    dscores = softmax_bwd(dprobs, probs) / math.sqrt(k)
    dq = dscores @ kk
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dq2 = dq.transpose(0, 2, 1, 3).reshape(b, length, h * k)
    dk2 = dk.transpose(0, 2, 1, 3).reshape(b, length, h * k)
    dv2 = dv.transpose(0, 2, 1, 3).reshape(b, length, h * k)
    dxq, dwq, dbq = linear_bwd(dq2, cq, params[f"{pfx}/wq"])
    dxk, dwk, dbk = linear_bwd(dk2, ck, params[f"{pfx}/wk"])
    dxv, dwv, dbv = linear_bwd(dv2, cv, params[f"{pfx}/wv"])
    grads[f"{pfx}/wq"] = dwq
    grads[f"{pfx}/bq"] = dbq
    grads[f"{pfx}/wk"] = dwk
    grads[f"{pfx}/bk"] = dbk
    grads[f"{pfx}/wv"] = dwv
    grads[f"{pfx}/bv"] = dbv
    return dxq + dxk + dxv


def _ffn_fwd(x, params, pfx, dropout_p, drop_rng):
    g, cg = linear_fwd(x, params[f"{pfx}/wg"], params[f"{pfx}/bg"])
    u, cu = linear_fwd(x, params[f"{pfx}/wv"], params[f"{pfx}/bv"])
    a, cge = gelu_fwd(g)
    hidden = a * u
    y, cy = linear_fwd(hidden, params[f"{pfx}/wo"], params[f"{pfx}/bo"])
    if dropout_p > 0.0:
        keep = (drop_rng.random(y.shape) >= dropout_p).astype(x.dtype)
        keep /= 1.0 - dropout_p
        y = y * keep
    else:
        keep = None
    return y, (cg, cu, cge, a, u, cy, keep)


def _ffn_bwd(dy, cache, params, pfx, grads):
    cg, cu, cge, a, u, cy, keep = cache
    if keep is not None:
        dy = dy * keep
    dhidden, dwo, dbo = linear_bwd(dy, cy, params[f"{pfx}/wo"])
    grads[f"{pfx}/wo"] = dwo
    grads[f"{pfx}/bo"] = dbo
    da = dhidden * u
    du = dhidden * a
    dg = gelu_bwd(da, cge)
    dxg, dwg, dbg = linear_bwd(dg, cg, params[f"{pfx}/wg"])
    dxu, dwv, dbv = linear_bwd(du, cu, params[f"{pfx}/wv"])
    grads[f"{pfx}/wg"] = dwg
    grads[f"{pfx}/bg"] = dbg
    grads[f"{pfx}/wv"] = dwv
    grads[f"{pfx}/bv"] = dbv
    return dxg + dxu


def hidden_fwd(params, cfg: ModelConfig, emb, mode: str, streams: RngStreams | None,
               segments: np.ndarray | None = None, past: list | None = None,
               rows: np.ndarray | None = None):
    """Pre-norm causal blocks, then the final layer norm.

    ``segments`` (B, L) names each position's window: attention is causal
    and never crosses windows. None means one window per row. Every position
    attends to itself, so no softmax row is empty. ``past`` holds one
    ``(keys, values)`` pair per block for the ``n`` positions of the same
    window that come before the rows of ``emb`` (then ``segments`` is None);
    each block's cache then holds the keys and values of all ``n + L``
    positions. In eval mode, ``rows`` (one position of ``emb`` per batch row)
    runs the last block past its keys and values, and the final norm, only
    there: the output is then (B, 1, width).
    """
    rules = mode_rules(mode)
    sd_p = cfg.stochastic_depth if rules.stochastic_depth else 0.0
    drop_p = cfg.dropout if rules.dropout else 0.0
    if streams is None and (sd_p > 0.0 or drop_p > 0.0):
        raise ValueError(f"{mode}-mode stochastic depth and dropout need random streams")
    drop_rng = streams.dropout if streams is not None else None
    n = past[0][0].shape[2] if past else 0
    allowed = np.tri(emb.shape[1], n + emb.shape[1], n, dtype=bool)[None, None]
    if segments is not None:
        allowed = allowed & (segments[:, None, :, None] == segments[:, None, None, :])
    x = emb
    caches = []
    for i in range(cfg.blocks):
        pick = rows[:, None, None] if rows is not None and i == cfg.blocks - 1 else None
        skip_attn = sd_p > 0.0 and streams.stochastic_depth.random() < sd_p
        skip_ffn = sd_p > 0.0 and streams.stochastic_depth.random() < sd_p
        if skip_attn:
            c_ln1 = c_attn = None
        else:
            h, c_ln1 = layernorm_fwd(x, params[f"block{i}/ln1/g"], params[f"block{i}/ln1/b"])
            kv = past[i] if past else None
            a, c_attn = _attention_fwd(
                h, params, f"block{i}/attn", cfg, drop_p, drop_rng, allowed, kv, pick
            )
            x = (x if pick is None else np.take_along_axis(x, pick, axis=1)) + a
        if skip_ffn:
            c_ln2 = c_ffn = None
        else:
            h, c_ln2 = layernorm_fwd(x, params[f"block{i}/ln2/g"], params[f"block{i}/ln2/b"])
            f, c_ffn = _ffn_fwd(h, params, f"block{i}/ffn", drop_p, drop_rng)
            x = x + f
        caches.append((skip_attn, c_ln1, c_attn, skip_ffn, c_ln2, c_ffn))
    out, c_lnf = layernorm_fwd(x, params["final_ln/g"], params["final_ln/b"])
    return out, (caches, c_lnf)


def hidden_bwd(dout, cache, params, cfg: ModelConfig, grads):
    caches, c_lnf = cache
    dx, dg, db = layernorm_bwd(dout, c_lnf)
    grads["final_ln/g"] = dg
    grads["final_ln/b"] = db
    for i in reversed(range(cfg.blocks)):
        skip_attn, c_ln1, c_attn, skip_ffn, c_ln2, c_ffn = caches[i]
        if not skip_ffn:
            dh = _ffn_bwd(dx, c_ffn, params, f"block{i}/ffn", grads)
            dln, dg, db = layernorm_bwd(dh, c_ln2)
            grads[f"block{i}/ln2/g"] = dg
            grads[f"block{i}/ln2/b"] = db
            dx = dx + dln
        if not skip_attn:
            dh = _attention_bwd(dx, c_attn, params, f"block{i}/attn", grads)
            dln, dg, db = layernorm_bwd(dh, c_ln1)
            grads[f"block{i}/ln1/g"] = dg
            grads[f"block{i}/ln1/b"] = db
            dx = dx + dln
    return dx


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

@dataclass
class LossResult:
    """Masked negative log-likelihood, as the raw sum and per-token mean."""

    total: float
    masked_tokens: int
    per_item: np.ndarray | None = None

    @property
    def mean(self) -> float:
        return self.total / self.masked_tokens if self.masked_tokens else 0.0


def loss_and_grads(
    params: dict,
    cfg: ModelConfig,
    batch: MaskedBatch,
    mode: str = "pretrain",
    streams: RngStreams | None = None,
    reduction: str = "sum",
):
    """Forward plus exact reverse pass for the parameters the batch reached;
    the gradient of any other parameter is zero and has no entry.

    ``reduction="sum"`` differentiates the raw summed loss; ``"mean"``
    scales gradients by 1/masked_tokens (the reported LossResult is
    unaffected: it always carries the sum and the count).
    """
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    emb, emb_cache = embed_batch(params, cfg, batch, mode, streams)
    hidden, h_cache = hidden_fwd(params, cfg, emb, mode, streams, batch.segments)

    tgt = batch.shifted_targets()
    msk = batch.shifted_mask()
    rows, cols = np.nonzero(msk != 0)
    per_item = np.zeros(len(batch.provenance), dtype=np.float64)

    hsel = hidden[rows, cols]
    picked = vocab_rows(cfg, tgt[rows, cols].astype(np.int64))
    logits = hsel @ params["embed/vocab"].T
    # fused log-softmax: one exp pass; nll gathered without a full logp array
    shifted = logits - logits.max(axis=-1, keepdims=True)
    arange = np.arange(rows.size)
    shifted_t = shifted[arange, picked].copy()
    np.exp(shifted, out=shifted)
    z = shifted.sum(axis=-1, keepdims=True)
    nll = np.log(z).ravel() - shifted_t
    np.add.at(per_item, batch.segments[rows, cols], nll.astype(np.float64))
    total = float(nll.sum(dtype=np.float64))

    dlogits = shifted
    dlogits /= z
    dlogits[arange, picked] -= 1.0
    if reduction == "mean":
        dlogits /= rows.size

    grads = {"embed/vocab": dlogits.T @ hsel}
    dhsel = dlogits @ params["embed/vocab"]
    dhidden = np.zeros_like(hidden)
    dhidden[rows, cols] = dhsel

    demb = hidden_bwd(dhidden, h_cache, params, cfg, grads)
    embed_bwd(demb, emb_cache, params, grads)
    return LossResult(total=total, masked_tokens=int(rows.size), per_item=per_item), grads


@dataclass
class KVCache:
    """Per-block attention keys and values of the first ``length`` positions
    of one context, with those positions' tokens, sources and local positions.

    No array is written in place (each pass concatenates new keys and
    values), so shallow copies may share them.
    """

    kv: list[tuple] = field(default_factory=list)  # per block, (1, H, length, K) keys and values
    tokens: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    sources: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    local_pos: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))

    @property
    def length(self) -> int:
        return len(self.tokens)

    def prefix(self, n: int) -> "KVCache":
        """A cache of the first ``n`` positions, as copies that keep none of
        this one's arrays alive."""
        kv = [(k[:, :, :n].copy(), v[:, :, :n].copy()) for k, v in self.kv]
        return KVCache(kv, *(a[:n].copy() for a in (self.tokens, self.sources, self.local_pos)))

    def tail(self, batch: MaskedBatch, positions: np.ndarray | None) -> MaskedBatch:
        """The positions of ``batch`` past the cached prefix, as a batch of
        their own; refuses a batch this cache cannot extend."""
        n = self.length
        if batch.batch_size != 1 or len(batch.provenance) != 1:
            raise ValueError(
                f"a K/V cache serves one window in one row, got {len(batch.provenance)} "
                f"windows in {batch.batch_size} rows"
            )
        cached = (self.tokens, self.sources, self.local_pos)
        prefix = (batch.tokens[0, :n], batch.sources[0, :n], batch.local_pos[0, :n])
        if not all(map(np.array_equal, prefix, cached)):
            raise ValueError(f"the batch's first {n} positions differ from the cached ones")
        if n and (positions is None or np.min(positions) < n):
            raise ValueError(f"logits requested inside the cached prefix of {n} positions")
        per_position = ("tokens", "sources", "local_pos", "segments")
        tail = replace(batch, **{name: getattr(batch, name)[:, n:] for name in per_position})
        if batch.patch_pixels is not None:
            new = batch.patch_slots[:, 1] >= n
            tail.patch_pixels = batch.patch_pixels[new]
            tail.patch_intervals = batch.patch_intervals[new]
            tail.patch_slots = batch.patch_slots[new] - np.array([0, n], np.int32)
        return tail


def forward_logits(
    params: dict,
    cfg: ModelConfig,
    batch: MaskedBatch,
    positions: np.ndarray | None = None,
    cache: KVCache | None = None,
) -> np.ndarray:
    """Eval-mode logits over the ``embed/vocab`` rows at all positions, or at
    ``positions``, which holds one position per batch row.

    With a ``cache``, ``batch`` is still the whole context: one window in one
    row whose first ``cache.length`` positions are the cached ones. Only the
    positions after them are embedded and run through the blocks, against the
    cached keys and values, and the cache then holds the whole context.
    ``positions`` must lie past the cached prefix. A batch the cache cannot
    extend raises ``ValueError``. With ``positions``, the last block runs
    past its keys and values only there.
    """
    start = 0 if cache is None else cache.length
    rows = None if positions is None else np.asarray(positions) - start
    if cache is None:
        emb, _ = embed_batch(params, cfg, batch, "eval", None)
        hidden, _ = hidden_fwd(params, cfg, emb, "eval", None, batch.segments, rows=rows)
    else:
        if batch.seq_len > cfg.context:
            raise CapacityError(f"sequence length {batch.seq_len} exceeds context {cfg.context}")
        tail = cache.tail(batch, positions)
        emb, _ = embed_batch(params, cfg, tail, "eval", None)
        hidden, (blocks, _) = hidden_fwd(params, cfg, emb, "eval", None, past=cache.kv, rows=rows)
        # each block's attention cache holds its past-and-new keys and values
        cache.kv = [c_attn[4:6] for _, _, c_attn, *_ in blocks]
        cache.tokens, cache.sources, cache.local_pos = (
            batch.tokens[0], batch.sources[0], batch.local_pos[0]
        )
    if rows is None:
        flat = hidden.reshape(-1, cfg.width) @ params["embed/vocab"].T
        return flat.reshape(batch.batch_size, hidden.shape[1], cfg.vocab)
    return hidden[:, 0] @ params["embed/vocab"].T


@dataclass
class ModelState:
    """A config, its parameters, and the model-side random streams."""

    cfg: ModelConfig
    params: dict[str, np.ndarray]
    streams: RngStreams

    @staticmethod
    def initialize(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> "ModelState":
        return ModelState(
            cfg=cfg, params=init_params(cfg, seed=seed, dtype=dtype), streams=RngStreams(seed)
        )
