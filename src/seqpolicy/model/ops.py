"""Primitive forward/backward pairs shared by the embedder and transformer.

Every *_fwd returns (output, cache); the matching *_bwd consumes the cache
and the output gradient. All functions preserve the input dtype so the same
code path runs in float32 for training and float64 for gradient checks; only
GELU picks its erf by dtype (see ``gelu_fwd``), from NumPy or the standard
library.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
GN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Abramowitz & Stegun 7.1.26: erfc(z) ~ (a1 t + ... + a5 t^5) exp(-z^2) with
# t = 1 / (1 + p z), z >= 0, |error| <= 1.5e-7. At z = |x| / sqrt 2 and with
# r = alpha / (1 / q + |x|), q = p / sqrt 2, t is r / (alpha q), so
# -Phi(-|x|) = -erfc(z) / 2 = (r^5 + b4 r^4 + ... + b1 r) exp(-x^2 / 2), where
# alpha makes the polynomial monic and b_k = -a_k / (2 (alpha q)^k). The
# kernel's constants are float32 scalars: a float64 one would upcast it, and a
# Python float costs a conversion on every call.
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_AS_Q = 0.3275911 * _INV_SQRT2
_AS_ALPHA_Q = -((0.5 * _AS_A[4]) ** 0.2)
_AS_INV_Q = np.float32(1.0 / _AS_Q)
_AS_ALPHA = np.float32(_AS_ALPHA_Q / _AS_Q)
_AS_B = tuple(np.float32(-0.5 * _AS_A[k - 1] / _AS_ALPHA_Q**k) for k in (4, 3, 2, 1))
_F32_HALF = np.float32(0.5)
_F32_MINUS_HALF = np.float32(-0.5)
_F32_INV_SQRT2PI = np.float32(_INV_SQRT2PI)
_SIGN_BIT = np.int32(-(2**31))
# Elements per float32 GELU pass: the four block-sized operands (input, output,
# derivative and one scratch buffer) stay within a core's 2 MB L2 cache.
GELU_BLOCK = 65536


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
    """GELU ``x * Phi(x)``; the cache is its derivative ``Phi(x) + x * phi(x)``.

    float32 takes Phi from the rational erf of Abramowitz & Stegun 7.1.26
    (|error| <= 1.5e-7), computed in float32 in blocks of ``GELU_BLOCK``
    elements; any other dtype, float64 for the gradient checks, maps the
    standard library's ``math.erf`` over the values.
    """
    if x.dtype != np.float32:
        z = (x * _INV_SQRT2).ravel().tolist()
        e = np.fromiter(map(math.erf, z), x.dtype, len(z)).reshape(x.shape)
        y = 0.5 * x * (1.0 + e)
        return y, 0.5 * (1.0 + e) + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI)
    y = np.empty(x.shape, np.float32)
    d = np.empty(x.shape, np.float32)
    flat_x, flat_y, flat_d = x.reshape(-1), y.reshape(-1), d.reshape(-1)
    scratch = np.empty(min(x.size, GELU_BLOCK), np.float32)
    for lo in range(0, x.size, GELU_BLOCK):
        hi = min(lo + GELU_BLOCK, x.size)
        _gelu_block(flat_x[lo:hi], flat_y[lo:hi], flat_d[lo:hi], scratch[: hi - lo])
    return y, d


def _gelu_block(x, y, d, r):
    """float32 GELU of one block into ``y`` and ``d``; ``r`` is scratch."""
    np.abs(x, out=r)
    r += _AS_INV_Q
    np.divide(_AS_ALPHA, r, out=r)
    np.square(x, out=d)
    d *= _F32_MINUS_HALF
    np.exp(d, out=d)  # exp(-x^2 / 2), shared by Phi and phi
    np.add(r, _AS_B[0], out=y)
    y *= r
    for b in _AS_B[1:]:
        y += b
        y *= r
    y *= d  # -Phi(-|x|)
    y += _F32_HALF  # Phi(|x|) - 1/2, odd in x
    # Give it the sign of x by xor on the sign bit. On 64k-element blocks
    # (2-vCPU Xeon, numpy 2.4) np.copysign takes ~1.7 ns per element, a
    # quarter of the kernel, and these two integer passes ~0.5 ns.
    sign = r.view(np.int32)
    np.bitwise_and(x.view(np.int32), _SIGN_BIT, out=sign)
    np.bitwise_xor(y.view(np.int32), sign, out=y.view(np.int32))
    y += _F32_HALF  # Phi(x)
    d *= x
    d *= _F32_INV_SQRT2PI
    d += y
    y *= x


def gelu_bwd(dy: np.ndarray, cache):
    return dy * cache


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


def groupnorm_param_grads(dy: np.ndarray, cache):
    """``(dgamma, dbeta)`` of ``groupnorm_bwd``, for a norm whose input needs no gradient."""
    xhat = cache[0]
    return (dy * xhat).sum(axis=(0, 1, 2)), dy.sum(axis=(0, 1, 2))


def groupnorm_bwd(dy: np.ndarray, cache):
    xhat, inv_std, gamma, groups = cache
    p, h, w, c = xhat.shape
    cg = c // groups
    m = h * w * cg
    dgamma, dbeta = groupnorm_param_grads(dy, cache)
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


def conv2d_param_grads(dy: np.ndarray, cache):
    """``(dw, db)`` of ``conv2d_bwd``, for a convolution whose input needs no gradient."""
    xp, x_shape, w_shape = cache
    kh, kw, cin, cout = w_shape
    p, h, wd, _ = x_shape
    dacc = dy.reshape(-1, cout)
    db = dacc.sum(axis=0)
    dw = np.zeros(w_shape, dtype=dy.dtype)
    for di in range(kh):
        for dj in range(kw):
            seg = xp[:, di : di + h, dj : dj + wd, :].reshape(-1, cin)
            dw[di, dj] = seg.T @ dacc
    return dw, db


def conv2d_bwd(dy: np.ndarray, cache, w: np.ndarray):
    xp, x_shape, w_shape = cache
    kh, kw, cin, cout = w_shape
    p, h, wd, _ = x_shape
    ph, pw = kh // 2, kw // 2
    dw, db = conv2d_param_grads(dy, cache)
    dacc = dy.reshape(-1, cout)
    dxp = np.zeros_like(xp)
    for di in range(kh):
        for dj in range(kw):
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
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > bound)
    while bad.size:  # redraw, in index order, only what is still out of bounds
        redrawn = rng.standard_normal(bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > bound]
    out *= std
    return out.astype(dtype, copy=False)
