"""Dense float64 tensor ops for forward passes on small batches.

Everything here works on plain numpy arrays in NCHW layout. There is no
autograd; the only gradient the scoring pipeline needs (the classifier
weight gradient under softmax cross-entropy) has a closed form and lives in
fc_weight_grad.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

Tensor = np.ndarray

BN_EPS = 1e-5  # added to the batch variance before its square root


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x [B,Cin,H,W] with weight [Cout,Cin,k,k], zero padded.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1. No bias.
    Implemented as im2col: the column matrix [B*Ho*Wo, Cin*k*k] has rows
    ordered (b, oy, ox) and columns (c, ky, kx), and one matmul against the
    flattened kernels follows. The result is a [B,Cout,Ho,Wo] view of an
    NHWC-ordered buffer.

    A padded input is copied into a zeroed buffer with np.pad's memory
    order. For k > 1 indexed gathers (np.take) fill the C-contiguous column
    matrix; the per-sample offsets are the outer sum of a row offset
    (oy, ox) and a column offset (c, ky, kx). The index covers only as many
    output rows as keep it no larger than the conv output, and is reused
    for the next rows by shifting the sample it reads, so the gather never
    holds more memory than the matmul after it. A 1x1 kernel needs no gather:
    its rows are strided samples of the input, channels innermost, which a
    reshape copies in long runs. Where the strided window view already is
    the matrix without a copy (a single sample, or a 1x1 output map), BLAS
    gets that view. BLAS thus always sees the matrix, values and memory
    layout, of the strided-window im2col, so every output bit stays the same.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.shape} and {weight.shape}")
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if kh != kw:
        raise ValueError(f"kernel must be square, got {kh}x{kw}")
    k = kh
    if k % 2 != 1:
        raise ValueError(f"kernel size must be odd, got {k}")
    if cin != cin_w:
        raise ValueError(f"input has {cin} channels but weight expects {cin_w}")
    if stride < 1 or padding < 0:
        raise ValueError(f"bad stride/padding: {stride}, {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < k or wp < k:
        raise ValueError(f"padded input {hp}x{wp} smaller than kernel {k}")

    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    m, kk = b * ho * wo, cin * k * k
    if padding:
        src = np.zeros((b, cin, hp, wp), dtype=x.dtype, order="F" if x.flags.fnc else "C")
        src[:, :, padding:padding + h, padding:padding + w] = x
    else:
        src = x
    sb, sc, sy, sx = src.strides
    windows = as_strided(
        src, (b, ho, wo, cin, k, k), (sb, sy * stride, sx * stride, sc, sy, sx), writeable=False
    )
    if k == 1:
        patches = windows.reshape(m, kk)
    else:
        try:
            patches = windows.reshape(m, kk, copy=False)
        except ValueError:
            # ny output rows per index: ny * wo * kk <= b * ho * wo * cout.
            ny = min(ho, max(1, b * ho * cout // kk))
            rows = np.add.outer(np.arange(ny) * (stride * wp), np.arange(wo) * stride)
            cols = np.add.outer(np.arange(cin) * (hp * wp), np.add.outer(np.arange(k) * wp, np.arange(k)))
            idx = np.add.outer(rows.ravel(), cols.ravel())
            flat = src.reshape(b, -1)
            patches = np.empty((b, ho * wo, kk), dtype=src.dtype)
            for i in range(b):
                for y0 in range(0, ho, ny):
                    n = min(ny, ho - y0)
                    dst = patches[i, y0 * wo:(y0 + n) * wo]
                    # "clip" writes straight into dst ("raise" buffers it); every index is in range.
                    np.take(flat[i, y0 * stride * wp:], idx[:n * wo], out=dst, mode="clip")
            patches = patches.reshape(m, kk)
            del idx, flat
    del src, windows
    out = patches @ weight.reshape(cout, kk).T
    return out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


def batchnorm_batchstats(x: Tensor) -> Tensor:
    """Normalize [B,C,H,W] per channel with statistics of this batch.

    Mean and variance (population, ddof=0) are taken over batch and spatial
    axes together, and BN_EPS is added to the variance. There are no running
    statistics and no affine: networks are scored at initialization, where
    gamma is one and beta zero, so train-mode statistics are the contract.
    The tensor is centred once; each statistic is an np.add.reduce sum
    divided by the count, the arithmetic of ndarray.mean and ndarray.var.
    The centred copy is divided in place and returned, so the peak holds
    two tensors of x's size.
    """
    if x.ndim != 4:
        raise ValueError(f"batchnorm expects [B,C,H,W], got shape {x.shape}")
    b, _, h, w = x.shape
    n = b * h * w
    if n <= 1:
        raise ValueError("batch statistics need more than one value per channel")
    xhat = x - np.add.reduce(x, axis=(0, 2, 3), keepdims=True) / n
    var = np.add.reduce(xhat * xhat, axis=(0, 2, 3), keepdims=True) / n
    xhat /= np.sqrt(var + BN_EPS)
    return xhat


def global_avg_pool(x: Tensor) -> Tensor:
    """[B,C,H,W] -> [B,C], mean over the spatial axes."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool expects [B,C,H,W], got shape {x.shape}")
    return x.mean(axis=(2, 3))


def avg_pool2d(x: Tensor) -> Tensor:
    """NB201's 3x3 average pooling at stride 1 with zero padding 1.

    Padding adds zeros to a window's sum but not to its divisor, which counts
    only real pixels: 4 at a corner, 6 on an edge, 9 inside. A constant
    input therefore stays constant at the borders.
    """
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d expects [B,C,H,W], got shape {x.shape}")
    h, w = x.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    sums = sliding_window_view(padded, (3, 3), axis=(2, 3)).sum(axis=(4, 5))
    rows, cols = np.full(h, 3.0), np.full(w, 3.0)
    for real in (rows, cols):
        real[0] -= 1
        real[-1] -= 1
    return sums / np.outer(rows, cols)


def linear(features: Tensor, weight: Tensor) -> Tensor:
    """[B,C] @ [N,C]^T -> [B,N]; the classifier has no bias at initialization."""
    if features.ndim != 2 or weight.ndim != 2:
        raise ValueError("linear expects 2-d features and weight")
    if features.shape[1] != weight.shape[1]:
        raise ValueError(f"features have {features.shape[1]} columns but weight expects {weight.shape[1]}")
    return features @ weight.T


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"residual shapes differ: {a.shape} vs {b.shape}")
    return a + b


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    z = logits - logits.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def fc_weight_grad(features: Tensor, logits: Tensor, labels: Tensor) -> Tensor:
    """Gradient of mean softmax cross-entropy w.r.t. the classifier weight.

    For logits = features @ W^T, dLoss/dW has the closed form
    (1/B) * (softmax(logits) - onehot(labels))^T @ features, shape [N,C].
    """
    if features.ndim != 2 or logits.ndim != 2:
        raise ValueError("features and logits must be 2-d")
    b, c = features.shape
    if logits.shape[0] != b:
        raise ValueError(f"batch mismatch: features {b}, logits {logits.shape[0]}")
    n = logits.shape[1]
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ValueError(f"labels must have shape ({b},)")
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"labels must lie in [0, {n})")
    delta = softmax(logits, axis=1)
    delta[np.arange(b), labels] -= 1.0
    return delta.T @ features / b
