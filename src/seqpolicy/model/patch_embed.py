"""Image patch embedder: one pre-activation residual block, then a projection.

Topology: GroupNorm -> GELU -> 3x3 conv, twice, with a 1x1 convolution on the
skip path to reconcile channel counts; the 16x16 output map is flattened and
projected to the model width. Norms use 32 groups, capped at the channel
count for narrow stages.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .config import ModelConfig
from .ops import (
    conv2d_bwd,
    conv2d_fwd,
    conv2d_param_grads,
    gelu_bwd,
    gelu_fwd,
    groupnorm_bwd,
    groupnorm_fwd,
    groupnorm_param_grads,
    linear_bwd,
    linear_fwd,
    truncated_normal,
)
from ..codec import PATCH_CHANNELS, PATCH_SIZE


def _groups_for(channels: int) -> int:
    groups = min(32, channels)
    if channels % groups:
        raise ConfigError(f"{channels} channels not divisible into {groups} norm groups")
    return groups


def init_patch_params(cfg: ModelConfig, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
    c, d, width = PATCH_CHANNELS, cfg.patch_hidden, cfg.width
    _groups_for(c), _groups_for(d)
    flat = PATCH_SIZE * PATCH_SIZE * d
    std = 0.02
    return {
        "patch/gn1/g": np.ones(c, dtype),
        "patch/gn1/b": np.zeros(c, dtype),
        "patch/conv1/w": truncated_normal(rng, (3, 3, c, d), std, dtype),
        "patch/conv1/b": np.zeros(d, dtype),
        "patch/gn2/g": np.ones(d, dtype),
        "patch/gn2/b": np.zeros(d, dtype),
        "patch/conv2/w": truncated_normal(rng, (3, 3, d, d), std, dtype),
        "patch/conv2/b": np.zeros(d, dtype),
        "patch/skip/w": truncated_normal(rng, (1, 1, c, d), std, dtype),
        "patch/skip/b": np.zeros(d, dtype),
        "patch/proj/w": truncated_normal(rng, (flat, width), std, dtype),
        "patch/proj/b": np.zeros(width, dtype),
    }


def patch_embed_fwd(params: dict, cfg: ModelConfig, pixels: np.ndarray):
    """pixels: (P, 16, 16, 3) normalized floats -> (P, width).

    Rendered frames repeat regions across timesteps and episodes, so each
    distinct patch (by its bytes) is embedded once and copied to its repeats.
    """
    rows = np.ascontiguousarray(pixels).reshape(len(pixels), -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    x = pixels[first].astype(params["patch/proj/w"].dtype, copy=False)
    g1 = _groups_for(PATCH_CHANNELS)
    g2 = _groups_for(cfg.patch_hidden)
    h1, c_gn1 = groupnorm_fwd(x, params["patch/gn1/g"], params["patch/gn1/b"], g1)
    a1, c_ge1 = gelu_fwd(h1)
    h2, c_cv1 = conv2d_fwd(a1, params["patch/conv1/w"], params["patch/conv1/b"])
    h3, c_gn2 = groupnorm_fwd(h2, params["patch/gn2/g"], params["patch/gn2/b"], g2)
    a2, c_ge2 = gelu_fwd(h3)
    h4, c_cv2 = conv2d_fwd(a2, params["patch/conv2/w"], params["patch/conv2/b"])
    skip, c_skip = conv2d_fwd(x, params["patch/skip/w"], params["patch/skip/b"])
    res = h4 + skip
    flat = res.reshape(res.shape[0], -1)
    out, c_proj = linear_fwd(flat, params["patch/proj/w"], params["patch/proj/b"])
    cache = (c_gn1, c_ge1, c_cv1, c_gn2, c_ge2, c_cv2, c_skip, c_proj, res.shape, inverse)
    return out[inverse], cache


def patch_embed_bwd(dout: np.ndarray, cache, params: dict) -> dict[str, np.ndarray]:
    c_gn1, c_ge1, c_cv1, c_gn2, c_ge2, c_cv2, c_skip, c_proj, res_shape, inverse = cache
    grads: dict[str, np.ndarray] = {}
    dsum = np.zeros((res_shape[0], dout.shape[1]), dout.dtype)
    np.add.at(dsum, inverse, dout)  # each distinct patch takes its copies' gradients
    dflat, grads["patch/proj/w"], grads["patch/proj/b"] = linear_bwd(
        dsum, c_proj, params["patch/proj/w"]
    )
    dres = dflat.reshape(res_shape)
    grads["patch/skip/w"], grads["patch/skip/b"] = conv2d_param_grads(dres, c_skip)
    da2, grads["patch/conv2/w"], grads["patch/conv2/b"] = conv2d_bwd(
        dres, c_cv2, params["patch/conv2/w"]
    )
    dh3 = gelu_bwd(da2, c_ge2)
    dh2, grads["patch/gn2/g"], grads["patch/gn2/b"] = groupnorm_bwd(dh3, c_gn2)
    da1, grads["patch/conv1/w"], grads["patch/conv1/b"] = conv2d_bwd(
        dh2, c_cv1, params["patch/conv1/w"]
    )
    dh1 = gelu_bwd(da1, c_ge1)
    grads["patch/gn1/g"], grads["patch/gn1/b"] = groupnorm_param_grads(dh1, c_gn1)
    return grads
