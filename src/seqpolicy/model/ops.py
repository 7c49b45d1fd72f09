"""Primitive forward/backward pairs shared by the embedder and transformer.

Every *_fwd returns (output, cache); the matching *_bwd consumes the cache
and the output gradient. All functions preserve the input dtype so the same
code path runs in float32 for training and float64 for gradient checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
GN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (..., in) @ w: (in, out) + b."""
    flat = x.reshape(-1, x.shape[-1])
    y = flat @ w + b
    return y.reshape(*x.shape[:-1], w.shape[1]), (flat, x.shape)


def linear_bwd(dy: np.ndarray, cache, w: np.ndarray):
    flat, x_shape = cache
    dflat = dy.reshape(-1, dy.shape[-1])
    dw = flat.T @ dflat
    db = dflat.sum(axis=0)
    dx = (dflat @ w.T).reshape(x_shape)
    return dx, dw, db


def gelu_fwd(x: np.ndarray):
    """Exact GELU; the cache keeps ``erf(x / sqrt 2)`` so backward skips it."""
    e = erf(x * _INV_SQRT2)
    y = 0.5 * x * (1.0 + e)
    return y, (x, e)


def gelu_bwd(dy: np.ndarray, cache):
    x, e = cache
    cdf = 0.5 * (1.0 + e)
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return dy * (cdf + x * pdf)


def layernorm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = LN_EPS):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gamma + beta, (xhat, inv_std, gamma)


def layernorm_bwd(dy: np.ndarray, cache):
    xhat, inv_std, gamma = cache
    n = xhat.shape[-1]
    dgamma = (dy * xhat).reshape(-1, n).sum(axis=0)
    dbeta = dy.reshape(-1, n).sum(axis=0)
    dxhat = dy * gamma
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return dx, dgamma, dbeta


def groupnorm_fwd(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int, eps: float = GN_EPS
):
    """NHWC group normalization over (H, W, channels-per-group)."""
    p, h, w, c = x.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by {groups} groups")
    xg = x.reshape(p, h, w, groups, c // groups)
    mean = xg.mean(axis=(1, 2, 4), keepdims=True)
    centered = xg - mean
    var = (centered * centered).mean(axis=(1, 2, 4), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (centered * inv_std).reshape(p, h, w, c)
    return xhat * gamma + beta, (xhat, inv_std, gamma, groups)


def groupnorm_bwd(dy: np.ndarray, cache):
    xhat, inv_std, gamma, groups = cache
    p, h, w, c = xhat.shape
    cg = c // groups
    m = h * w * cg
    dgamma = (dy * xhat).sum(axis=(0, 1, 2))
    dbeta = dy.sum(axis=(0, 1, 2))
    dxhat = (dy * gamma).reshape(p, h, w, groups, cg)
    xhat_g = xhat.reshape(p, h, w, groups, cg)
    sum_d = dxhat.sum(axis=(1, 2, 4), keepdims=True)
    sum_dx = (dxhat * xhat_g).sum(axis=(1, 2, 4), keepdims=True)
    dx = (dxhat - sum_d / m - xhat_g * (sum_dx / m)) * inv_std
    return dx.reshape(p, h, w, c), dgamma, dbeta


def conv2d_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """NHWC stride-1 convolution with same padding (odd kernels)."""
    kh, kw, cin, cout = w.shape
    p, h, wd, _ = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if (ph or pw) else x
    acc = np.zeros((p * h * wd, cout), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            seg = xp[:, di : di + h, dj : dj + wd, :].reshape(-1, cin)
            acc += seg @ w[di, dj]
    y = (acc + b).reshape(p, h, wd, cout)
    return y, (xp, x.shape, w.shape)


def conv2d_bwd(dy: np.ndarray, cache, w: np.ndarray):
    xp, x_shape, w_shape = cache
    kh, kw, cin, cout = w_shape
    p, h, wd, _ = x_shape
    ph, pw = kh // 2, kw // 2
    dacc = dy.reshape(-1, cout)
    db = dacc.sum(axis=0)
    dw = np.zeros(w_shape, dtype=dy.dtype)
    dxp = np.zeros_like(xp)
    for di in range(kh):
        for dj in range(kw):
            seg = xp[:, di : di + h, dj : dj + wd, :].reshape(-1, cin)
            dw[di, dj] = seg.T @ dacc
            dseg = (dacc @ w[di, dj].T).reshape(p, h, wd, cin)
            dxp[:, di : di + h, dj : dj + wd, :] += dseg
    dx = dxp[:, ph : ph + h, pw : pw + wd, :] if (ph or pw) else dxp
    return dx, dw, db


def softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_bwd(dy: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return probs * (dy - (dy * probs).sum(axis=-1, keepdims=True))


def truncated_normal(
    rng: np.random.Generator, shape, std: float, dtype, bound: float = 2.0
) -> np.ndarray:
    """Normal(0, std) with resampling outside ``bound`` standard deviations."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > bound
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > bound
    return (out * std).astype(dtype)
