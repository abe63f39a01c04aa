"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, direct
textbook formulas) and deliberately shares no code with the package under
test, apart from named_weights, which walks a built network's compiled plan
and draws each tensor with the package's seeded initializer. Oracles are for
correctness checks on tiny inputs only.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from diswot.rng import init_tensor


# ---------------------------------------------------------------------------
# convolution / dense / gradient


def conv2d_naive(x, w, stride=1, padding=0):
    """Six nested loops, zero padding, cross-correlation (no kernel flip)."""
    b, cin, h, wid = x.shape
    cout, cin2, k, k2 = w.shape
    assert cin == cin2 and k == k2
    xp = np.zeros((b, cin, h + 2 * padding, wid + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wid] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wid + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, ho, wo), dtype=np.float64)
    for bi in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[bi, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[bi, co, i, j] = acc
    return out


def conv2d_sliding_window(x, w, stride=1, padding=0):
    """im2col through a strided window view; the bit-exact reference.

    Pads with np.pad, copies the (b, oy, ox) x (c, ky, kx) windows into a
    C-contiguous matrix by reshape and does one matmul, returning the
    [B,Cout,Ho,Wo] view of the NHWC-ordered product. Any conv2d that feeds
    BLAS the same matrix must match it byte for byte, including one that
    feeds it the matrix a chunk of rows at a time.
    """
    b, cin, _, _ = x.shape
    cout, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    _, _, ho, wo, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, cin * k * k)
    out = cols @ w.reshape(cout, cin * k * k).T
    return out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)


def avg_pool_window_sum(x):
    """NB201's 3x3 average pool as one sum over the padded 3x3 window view.

    The divisor counts the real pixels of each window. This is the pool's
    former form, the bit-exact reference for the separable sum.
    """
    h, w = x.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    sums = sliding_window_view(padded, (3, 3), axis=(2, 3)).sum(axis=(4, 5))
    rows, cols = np.full(h, 3.0), np.full(w, 3.0)
    for real in (rows, cols):
        real[0] -= 1
        real[-1] -= 1
    return sums / np.outer(rows, cols)


def batchnorm_two_pass(x, gamma, beta, eps=1e-5):
    """Batch-statistics normalisation via ndarray.mean and ndarray.var."""
    c = x.shape[1]
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    xhat = (x - mean) / np.sqrt(var + eps)
    return gamma.reshape(1, c, 1, 1) * xhat + beta.reshape(1, c, 1, 1)


def softmax_naive(z):
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def ce_loss_naive(features, weight, labels):
    logits = features @ weight.T
    p = softmax_naive(logits)
    total = 0.0
    for i, lab in enumerate(labels):
        total += -math.log(p[i, lab])
    return total / len(labels)


def fc_grad_fd(features, weight, labels, h=1e-5):
    """Central finite differences of mean CE w.r.t. every weight entry."""
    grad = np.zeros_like(weight, dtype=np.float64)
    for n in range(weight.shape[0]):
        for c in range(weight.shape[1]):
            wp = weight.copy()
            wm = weight.copy()
            wp[n, c] += h
            wm[n, c] -= h
            grad[n, c] = (ce_loss_naive(features, wp, labels) - ce_loss_naive(features, wm, labels)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# similarity metrics (loops, straight from the definitions)


def row_l2_naive(rows):
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        n = math.sqrt(float((rows[i] ** 2).sum()))
        out[i] = rows[i] / n if n > 0 else rows[i]
    return out


def gram_naive(rows, normalization="row_l2"):
    rows = np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)
    m = rows.shape[0]
    g = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            g[i, j] = float((rows[i] * rows[j]).sum())
    if normalization == "row_l2":
        return row_l2_naive(g)
    return g / math.sqrt(float((g ** 2).sum()))


def gradcam_naive(pre_gap, weight):
    """Per class n: sum_c w[n,c] * batch-mean channel map, flattened."""
    b, c, h, w = pre_gap.shape
    n = weight.shape[0]
    mean_map = pre_gap.mean(axis=0)
    maps = np.zeros((n, h * w))
    for ni in range(n):
        acc = np.zeros((h, w))
        for ci in range(c):
            acc += weight[ni, ci] * mean_map[ci]
        maps[ni] = acc.reshape(-1)
    return maps


def mean_sq_diff_naive(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        total += (x - y) ** 2
    return total / a.size


def semantic_naive(t_maps, s_maps, normalization="row_l2"):
    return mean_sq_diff_naive(gram_naive(t_maps, normalization), gram_naive(s_maps, normalization))


def relation_naive(t_pre_gap, s_pre_gap, normalization="row_l2"):
    t_rows = np.asarray(t_pre_gap, dtype=np.float64).reshape(len(t_pre_gap), -1)
    s_rows = np.asarray(s_pre_gap, dtype=np.float64).reshape(len(s_pre_gap), -1)
    return mean_sq_diff_naive(gram_naive(t_rows, normalization), gram_naive(s_rows, normalization))


# ---------------------------------------------------------------------------
# KD distance family


def kd_kl_naive(zt, zs, rho):
    pt = softmax_naive(np.asarray(zt) / rho)
    ps = softmax_naive(np.asarray(zs) / rho)
    total = 0.0
    for i in range(pt.shape[0]):
        for n in range(pt.shape[1]):
            if pt[i, n] > 0:
                total += pt[i, n] * math.log(pt[i, n] / ps[i, n])
    return total / pt.shape[0]


def fitnets_naive(ft, fs, projection):
    """MSE between teacher features and the projected student features."""
    if projection is not None:
        fs = np.asarray(fs) @ projection.T
    return mean_sq_diff_naive(ft, fs)


def at_naive(t_pre_gap, s_pre_gap):
    def attention(m):
        b = m.shape[0]
        rows = np.zeros((b, m.shape[2] * m.shape[3]))
        for i in range(b):
            rows[i] = (m[i] ** 2).sum(axis=0).reshape(-1)
        return row_l2_naive(rows)

    at_t = attention(np.asarray(t_pre_gap, dtype=np.float64))
    at_s = attention(np.asarray(s_pre_gap, dtype=np.float64))
    total = 0.0
    for i in range(at_t.shape[0]):
        total += float(((at_t[i] - at_s[i]) ** 2).sum())
    return total / at_t.shape[0]


def cc_naive(ft, fs):
    def corr(f):
        f = np.asarray(f, dtype=np.float64)
        b = f.shape[0]
        centered = f - f.mean(axis=1, keepdims=True)
        out = np.zeros((b, b))
        for i in range(b):
            for j in range(b):
                ni = math.sqrt(float((centered[i] ** 2).sum()))
                nj = math.sqrt(float((centered[j] ** 2).sum()))
                dot = float((centered[i] * centered[j]).sum())
                out[i, j] = dot / (ni * nj) if ni > 0 and nj > 0 else 0.0
        return out

    return mean_sq_diff_naive(corr(ft), corr(fs))


def rkd_naive(ft, fs):
    def dists(f):
        f = np.asarray(f, dtype=np.float64)
        b = f.shape[0]
        d = np.zeros((b, b))
        for i in range(b):
            for j in range(b):
                d[i, j] = math.sqrt(float(((f[i] - f[j]) ** 2).sum()))
        return d

    return mean_sq_diff_naive(dists(ft), dists(fs))


def nst_naive(t_pre_gap, s_pre_gap):
    """Per-sample linear-kernel MMD^2 between row-normalized channel maps."""
    t = np.asarray(t_pre_gap, dtype=np.float64)
    s = np.asarray(s_pre_gap, dtype=np.float64)
    b = t.shape[0]
    total = 0.0
    for i in range(b):
        ft = row_l2_naive(t[i].reshape(t.shape[1], -1))
        fs = row_l2_naive(s[i].reshape(s.shape[1], -1))
        ct, cs = ft.shape[0], fs.shape[0]
        tt = sum(float((ft[a] * ft[bb]).sum()) for a in range(ct) for bb in range(ct)) / (ct * ct)
        ss = sum(float((fs[a] * fs[bb]).sum()) for a in range(cs) for bb in range(cs)) / (cs * cs)
        ts = sum(float((ft[a] * fs[bb]).sum()) for a in range(ct) for bb in range(cs)) / (ct * cs)
        total += tt + ss - 2 * ts
    return total / b


def pkt_naive(ft, fs):
    def probs(f):
        f = row_l2_naive(np.asarray(f, dtype=np.float64))
        b = f.shape[0]
        k = np.zeros((b, b))
        for i in range(b):
            for j in range(b):
                k[i, j] = (float((f[i] * f[j]).sum()) + 1.0) / 2.0
        for i in range(b):
            k[i] = k[i] / k[i].sum()
        return k

    pt = probs(ft)
    ps = probs(fs)
    total = 0.0
    b = pt.shape[0]
    for i in range(b):
        for j in range(b):
            total += pt[i, j] * (math.log(max(pt[i, j], 1e-300)) - math.log(max(ps[i, j], 1e-300)))
    return total / b


# ---------------------------------------------------------------------------
# NWOT


def nwot_naive(codes, eps=1e-6):
    """codes: [B, U] boolean. Count agreeing units per pair, log|det|."""
    codes = np.asarray(codes, dtype=bool)
    b = codes.shape[0]
    k = np.zeros((b, b))
    for i in range(b):
        for j in range(b):
            k[i, j] = sum(1.0 for u in range(codes.shape[1]) if codes[i, u] == codes[j, u])
    k = k + eps * np.eye(b)
    sign, logdet = np.linalg.slogdet(k)
    return logdet


def nwot_kernel_two_product(codes):
    """Agreement kernel as A A^T + (1-A)(1-A)^T over float64 copies."""
    active = np.asarray(codes).astype(np.float64)
    inactive = 1.0 - active
    return active @ active.T + inactive @ inactive.T


# ---------------------------------------------------------------------------
# rank statistics


def kendall_naive(targets, scores):
    m = len(targets)
    num = 0
    for i, j in itertools.combinations(range(m), 2):
        num += int(np.sign(targets[i] - targets[j]) * np.sign(scores[i] - scores[j]))
    return num / (m * (m - 1) / 2)


def ranks_naive(values):
    """Average ranks, 1-based. Quadratic but obviously right."""
    values = list(values)
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return np.array(out, dtype=np.float64)


def pearson_naive(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cx = x - x.mean()
    cy = y - y.mean()
    return float((cx * cy).sum() / math.sqrt(float((cx ** 2).sum()) * float((cy ** 2).sum())))


def spearman_naive(x, y):
    return pearson_naive(ranks_naive(x), ranks_naive(y))


def spearman_closed_form(x, y):
    """1 - 6*sum(d^2)/(M(M^2-1)); valid only without ties."""
    rx = ranks_naive(x)
    ry = ranks_naive(y)
    m = len(rx)
    d2 = float(((rx - ry) ** 2).sum())
    return 1.0 - 6.0 * d2 / (m * (m * m - 1))


def rank_join_naive(rows, accuracy, sample_size, rng):
    """(targets, scores) of one seed's rows joined on arch_id, after sampling.

    The join done afresh in every repetition: check the ids for duplicates,
    draw sorted sample indices, then look each sampled id up. Without
    sample_size the whole series is joined; a sample must be smaller than
    the series. A score marked lower-is-better is flipped in sign.
    """
    ids = [r.arch_id for r in rows]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"duplicate arch_id {dup!r} within one seed's scores")
    if sample_size is not None and sample_size >= len(ids):
        raise ValueError(f"sample size {sample_size} must be below the series' row count, {len(ids)}")
    if sample_size is not None:
        picked = rng.choice(len(ids), size=sample_size, replace=False)
        rows = [rows[int(i)] for i in np.sort(picked)]
        ids = [r.arch_id for r in rows]
    targets = []
    for i in ids:
        if i not in accuracy:
            raise KeyError(f"arch_id {i!r} missing from the accuracy table")
        targets.append(accuracy[i])
    return np.array(targets), np.array([r.value * (1 if r.higher_is_better else -1) for r in rows])


def rank_repetitions_naive(tables, accuracy, sample_size=None, rng=None, n_repeats=None):
    """{proxy: [(targets, scores) of each repetition]} for score tables given as row lists.

    Proxies go in sorted order; each proxy's series are its (table index,
    seed) groups in sorted order. Without sample_size each series is one
    repetition, and n_repeats is an error; with it, repetition k of
    n_repeats (default one per series) samples series k modulo their count.
    """
    if sample_size is None and n_repeats is not None:
        raise ValueError("n_repeats needs sample_size: without sampling each series is one repetition")
    series = {}
    for index, rows in enumerate(tables):
        for r in rows:
            series.setdefault(r.proxy, {}).setdefault((index, r.seed), []).append(r)
    out = {}
    for proxy in sorted(series):
        groups = [series[proxy][key] for key in sorted(series[proxy])]
        repeats = len(groups) if n_repeats is None else n_repeats
        out[proxy] = [rank_join_naive(groups[k % len(groups)], accuracy, sample_size, rng) for k in range(repeats)]
    return out


# ---------------------------------------------------------------------------
# network weights


def named_weights(net):
    """All trainable tensors of a built network at init, in plan order.

    Conv weights are drawn afresh from their streams, then come the batch-norm
    affine pairs, the classifier weight, drawn from the stream after the last
    conv's, and its bias: the parameter-count oracle for count_params.
    """
    for op in net._plan:
        if op.kind == "conv":
            yield f"conv{op.stream}.weight", init_tensor(op.shape, net.init, op.stream)
    bns = [op for op in net._plan if op.kind == "bn"]
    for i, op in enumerate(bns):
        yield f"bn{i}.gamma", np.ones(op.channels)
        yield f"bn{i}.beta", np.zeros(op.channels)
    last = net._plan[-1]
    yield "fc.weight", init_tensor((net.space.num_classes, last.channels), net.init, last.stream)
    yield "fc.bias", np.zeros(net.space.num_classes)
