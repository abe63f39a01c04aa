"""Dense float64 tensor ops for forward passes on small batches.

Everything here works on plain numpy arrays in NCHW layout. There is no
autograd; the only gradient the scoring pipeline needs (the classifier
weight gradient under softmax cross-entropy) has a closed form and lives in
fc_weight_grad.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

Tensor = np.ndarray

BN_EPS = 1e-5  # added to the batch variance before its square root
_COLUMN_BYTES = 2 << 20  # conv2d's column buffer: about one L2 cache
_SMALL_GEMM = 1 << 20  # multiply-adds; OpenBLAS runs GEMMs of at most 100**3 on small-matrix kernels


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x [B,Cin,H,W] with weight [Cout,Cin,k,k], zero padded.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1. No bias.
    Implemented as im2col: the column matrix [B*Ho*Wo, Cin*k*k] has rows
    ordered (b, oy, ox) and columns (c, ky, kx), and a matmul against the
    flattened kernels follows. The result is a [B,Cout,Ho,Wo] view of an
    NHWC-ordered buffer.

    A padded input is copied into a zeroed buffer with np.pad's memory
    order. Where the strided window view already is the matrix without a
    copy (a 1x1 kernel at stride 1 on an NHWC-backed input, say), BLAS gets
    that view in one matmul. Otherwise the matrix is built one chunk at a
    time in a single reused buffer, each chunk by one np.copyto from the
    window view, and np.matmul writes each chunk's rows straight into the
    output. A chunk holds at most _COLUMN_BYTES of columns: runs of whole
    samples whose lengths differ by one at most, so a conv whose matrix fits
    is one chunk and one matmul; or, when one sample's columns exceed the
    budget, runs of whole output rows of one sample, at least one row. For
    k > 1 the chunk is channel-major, [Cin*k*k, rows], so the copy's
    innermost loop runs along an output row rather than along k pixels, and
    BLAS gets its transpose; a row-major copy made 3x3 convs 1.5-2x slower,
    and slower than an index gather. A 1x1 kernel's windows are
    channels-innermost, like the NHWC activations, so its chunk is
    row-major, [rows, Cin]; on 1x1 stride-2 shortcuts a channel-major copy
    was 2-3x slower.

    Every output bit is that of one matmul over the whole matrix. A GEMM
    row's sums run over k in an order that depends neither on how many rows
    the call has nor on whether an operand is transposed (OpenBLAS packs
    both into the same panels), while OpenBLAS stays off its small-matrix
    kernels, which take GEMMs of at most 100**3 multiply-adds and sum in
    another order. So each chunk also does at least _SMALL_GEMM
    multiply-adds on at least two rows, even past the budget, which a conv
    with fewer than about 12 output channels needs. No run is shorter than
    a third of the longest, so the longest gets three times those rows. Two
    k > 1 convs get a row-major chunk: one whose whole product is below
    _SMALL_GEMM, since the small-matrix kernels sum a transposed operand in
    another order; and a one-channel conv, which numpy runs as a
    matrix-vector product, whose bits depend on the operand's layout and on
    a row's place in the call, so it is never split either. This holds for
    the OpenBLAS build numpy ships, not for BLAS in general; the byte tests
    against tests/oracles.py's single-matmul im2col are the guard.
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
    kernels = weight.reshape(cout, kk).T
    try:
        out = windows.reshape(m, kk, copy=False) @ kernels
        return out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)
    except ValueError:
        pass
    least = max(2, -(-_SMALL_GEMM // (cout * kk)))  # matrix rows a chunk needs
    most = m if cout == 1 else max(_COLUMN_BYTES // (kk * src.itemsize), 3 * least)
    if ho * wo <= most:
        samples, out_rows = _runs(b, most // (ho * wo)), [(0, ho)]
    else:
        samples, out_rows = _runs(b, 1), _runs(ho, max(1, most // wo))
    ns, ny = samples[0][1], out_rows[0][1]  # the longest runs come first
    columns = np.empty(ns * ny * wo * kk, dtype=src.dtype)
    out = np.empty((b, ho, wo, cout), dtype=np.result_type(src, weight))
    channel_major = k > 1 and m >= least and cout > 1
    for i0, i1 in samples:
        for y0, y1 in out_rows:
            n = (i1 - i0) * (y1 - y0) * wo
            if channel_major:
                chunk = columns[:n * kk].reshape(cin, k, k, i1 - i0, y1 - y0, wo)
                np.copyto(chunk, windows[i0:i1, y0:y1].transpose(3, 4, 5, 0, 1, 2))
                rows = chunk.reshape(kk, n).T
            else:
                rows = columns[:n * kk].reshape(n, kk)
                np.copyto(rows.reshape(i1 - i0, y1 - y0, wo, cin, k, k), windows[i0:i1, y0:y1])
            np.matmul(rows, kernels, out=out[i0:i1, y0:y1].reshape(-1, cout, copy=False))
    return out.transpose(0, 3, 1, 2)


def _runs(n: int, most: int) -> list[tuple[int, int]]:
    """Split range(n) into the fewest runs of at most `most`, whose lengths differ by at most one, longest first."""
    runs = -(-n // most)
    q, r = divmod(n, runs)
    bounds = [0]
    for j in range(runs):
        bounds.append(bounds[-1] + q + (j < r))
    return list(zip(bounds, bounds[1:]))


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

    Each window sum is separable: the three width-shifted slices of the
    padded input are added left to right, then the three height-shifted
    slices of that sum. Its bytes and strides equal those of a sum over the
    3x3 window view, on C-ordered and NHWC-backed inputs alike, which
    tests/test_kernels.py checks.
    """
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d expects [B,C,H,W], got shape {x.shape}")
    h, w = x.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    across = padded[..., :w] + padded[..., 1:w + 1]
    across += padded[..., 2:]
    sums = across[:, :, :h] + across[:, :, 1:h + 1]
    sums += across[:, :, 2:]
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
