"""Tensor kernel tests: hand examples, oracle agreement, fuzzed properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diswot.arch import make_space, max_descriptor, min_descriptor, sample_descriptor
from diswot.kernels import (
    _COLUMN_BYTES,
    BN_EPS,
    avg_pool2d,
    batchnorm_batchstats,
    conv2d,
    fc_weight_grad,
    global_avg_pool,
    linear,
    log_softmax,
    relu,
    residual_add,
    softmax,
)

from diswot.network import _compile

from oracles import avg_pool_window_sum, batchnorm_two_pass, conv2d_naive, conv2d_sliding_window, fc_grad_fd


# ---------------------------------------------------------------------------
# conv2d


def _nhwc(x):
    """x with the NHWC memory order of a conv2d output."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def test_conv_identity_kernel():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 1, 1))
    np.testing.assert_array_equal(conv2d(x, w), x)


def test_conv_all_ones_sums_input():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    w = np.ones((1, 1, 3, 3))
    out = conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 45.0


def test_conv_padding_overlap_counts():
    x = np.ones((1, 1, 4, 4))
    w = np.ones((1, 1, 3, 3))
    out = conv2d(x, w, stride=1, padding=1)
    assert out.shape == (1, 1, 4, 4)
    assert out[0, 0, 0, 0] == 4.0
    assert out[0, 0, 1, 1] == 9.0


def test_conv_output_shape_formula():
    x = np.zeros((2, 3, 11, 11))
    w = np.zeros((5, 3, 3, 3))
    assert conv2d(x, w, stride=2, padding=1).shape == (2, 5, 6, 6)


def test_conv_channel_mismatch_error():
    with pytest.raises(ValueError, match="channel"):
        conv2d(np.zeros((1, 3, 8, 8)), np.zeros((4, 2, 3, 3)))


def test_conv_even_kernel_rejected():
    with pytest.raises(ValueError):
        conv2d(np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 2, 2)))


@pytest.mark.parametrize(
    "shape,kshape,stride,padding",
    [
        ((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
        ((1, 2, 9, 9), (3, 2, 5, 5), 2, 2),
        ((3, 1, 7, 5), (2, 1, 3, 3), 2, 0),
        ((1, 4, 6, 6), (4, 4, 1, 1), 1, 0),
        ((2, 2, 10, 10), (1, 2, 7, 7), 3, 3),
    ],
)
def test_conv_matches_naive_oracle(shape, kshape, stride, padding):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape)
    w = rng.standard_normal(kshape)
    got = conv2d(x, w, stride=stride, padding=padding)
    want = conv2d_naive(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(got, want, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(1, 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    hw=st.integers(3, 9),
    k=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_conv_oracle_fuzz(b, cin, cout, hw, k, stride, padding, seed):
    if hw + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, cin, hw, hw))
    w = rng.standard_normal((cout, cin, k, k))
    got = conv2d(x, w, stride=stride, padding=padding)
    want = conv2d_naive(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(got, want, atol=1e-10)
    assert np.isfinite(got).all()


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 5),
    cin=st.integers(1, 40),
    cout=st.integers(1, 40),
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    k=st.sampled_from([1, 3, 5, 7]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 3),
    nhwc=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv_and_batchnorm_bit_identical_to_reference(b, cin, cout, h, w, k, stride, padding, nhwc, seed):
    # Scores are pinned to the last bit (test_exact_scores_and_costs), so the
    # kernels must reproduce the window-view im2col and the two-pass batch
    # statistics exactly: same bytes and same memory layout, for C-contiguous
    # NCHW inputs and for the NHWC-memory views that conv2d itself returns.
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, cin, h, w))
    if nhwc:
        x = _nhwc(x)
    weight = rng.standard_normal((cout, cin, k, k))
    got = conv2d(x, weight, stride=stride, padding=padding)
    want = conv2d_sliding_window(x, weight, stride=stride, padding=padding)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides
    for t in (x, got):
        if t.shape[0] * t.shape[2] * t.shape[3] <= 1:
            continue
        c = t.shape[1]
        got_bn = batchnorm_batchstats(t)
        want_bn = batchnorm_two_pass(t, np.ones(c), np.zeros(c))
        assert got_bn.tobytes() == want_bn.tobytes()
        assert got_bn.strides == want_bn.strides


def _space_conv_shapes(kind):
    """(weight shape, stride, input hw) of every conv in the max, min and three sampled descriptors."""
    space = make_space(kind)
    rng = np.random.default_rng(0)
    shapes = set()
    for desc in [max_descriptor(space), min_descriptor(space), *(sample_descriptor(space, rng) for _ in range(3))]:
        hw = {0: (space.input_hw, space.input_hw)}
        for op in _compile(desc, space).ops:
            hw[op.out] = op.hw
            if op.kind == "conv":
                shapes.add((op.shape, op.stride, hw[op.ins[0]]))
    return sorted(shapes)


def _conv_mismatches(cases, seed):
    """The cases, given as (batch, weight shape, stride, input hw, nhwc), where conv2d's bytes or strides differ from one matmul's."""
    rng = np.random.default_rng(seed)
    bad = []
    for b, wshape, stride, (h, w), nhwc in cases:
        x = rng.standard_normal((b, wshape[1], h, w))
        weight = rng.standard_normal(wshape)
        if nhwc:
            x = _nhwc(x)
        pad = wshape[2] // 2
        got = conv2d(x, weight, stride, pad)
        want = conv2d_sliding_window(x, weight, stride, pad)
        if got.tobytes() != want.tobytes() or got.strides != want.strides:
            bad.append((b, wshape, stride, (h, w), nhwc))
    return bad


def _column_bytes(b, wshape, stride, hw):
    k = wshape[2]
    ho, wo = ((side + 2 * (k // 2) - k) // stride + 1 for side in hw)
    return b * ho * wo * wshape[1] * k * k * 8


@pytest.mark.parametrize("batch", [2, 4, 64])
@pytest.mark.parametrize("kind", ["s0", "nb201", "s2_cifar", "s2_imagenet"])
def test_conv_chunks_equal_one_matmul_on_space_shapes(kind, batch):
    # conv2d builds its column matrix a chunk at a time; the scores are
    # pinned to the last bit, so each chunk's rows must come out as they do
    # from one matmul over the whole matrix. Every conv shape of the spaces'
    # networks is checked, the stem on C-ordered images and the rest on the
    # NHWC-backed tensors a forward feeds them. Matrices over 400 MiB are
    # left out.
    cases = [
        (batch, wshape, stride, hw, wshape[1] != 3)
        for wshape, stride, hw in _space_conv_shapes(kind)
        if _column_bytes(batch, wshape, stride, hw) <= 400 * 2**20
    ]
    assert cases
    assert _conv_mismatches(cases, seed=batch) == []


def test_conv_uneven_and_output_row_chunks_equal_one_matmul():
    # Batches 5 and 7 split into runs of unequal length, and a sample whose
    # columns exceed the budget is split into runs of its output rows. The
    # 2-channel conv's chunks grow past the budget to stay off OpenBLAS's
    # small-matrix kernels, and the 1-channel conv, a matrix-vector product,
    # is not split; each changed bits without its rule.
    cases = [(b, wshape, stride, hw, nhwc) for b in (5, 7) for wshape, stride, hw in _space_conv_shapes("s0")
             for nhwc in (False, True)]
    assert any(b * sample > _COLUMN_BYTES and b % max(1, _COLUMN_BYTES // sample)
               for b, wshape, stride, hw, _ in cases for sample in [_column_bytes(1, wshape, stride, hw)])
    big = [(1, (16, 32, 5, 5), 1, (56, 56)), (2, (32, 32, 5, 5), 1, (56, 56)), (2, (24, 48, 7, 7), 2, (45, 45)),
           (3, (8, 64, 3, 3), 1, (64, 64)), (2, (40, 3, 7, 7), 2, (224, 224)),
           (2, (2, 64, 3, 3), 1, (64, 64)), (2, (1, 40, 7, 7), 1, (31, 31))]
    for b, wshape, stride, hw in big:
        assert _column_bytes(1, wshape, stride, hw) > _COLUMN_BYTES
        cases += [(b, wshape, stride, hw, nhwc) for nhwc in (False, True)]
    assert _conv_mismatches(cases, seed=11) == []


@pytest.mark.parametrize("shape,kernel", [((64, 16, 32, 32), 3), ((2, 32, 56, 56), 5)], ids=["whole-samples", "output-rows"])
def test_conv_peak_memory_bounded(shape, kernel):
    # Beyond its input, weight and output, a conv holds at most the padded
    # copy and one chunk's columns (_COLUMN_BYTES). Before chunking, the
    # first case held a 75 MiB column matrix and the second a 39 MiB one.
    b, c, h, w = shape
    pad = kernel // 2
    x = _nhwc(np.random.default_rng(0).standard_normal(shape))
    weight = np.random.default_rng(1).standard_normal((c, c, kernel, kernel))
    padded = b * c * (h + 2 * pad) * (w + 2 * pad) * 8
    tracemalloc.start()
    try:
        out = conv2d(x, weight, 1, pad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _column_bytes(b, weight.shape, 1, (h, w)) > 16 * _COLUMN_BYTES
    assert peak - out.nbytes <= padded + _COLUMN_BYTES + 65536


# ---------------------------------------------------------------------------
# relu / residual / pooling


def test_relu_basics():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    x = np.abs(np.random.default_rng(0).standard_normal(10))
    np.testing.assert_array_equal(relu(x), x)


def test_relu_idempotent():
    x = np.random.default_rng(1).standard_normal((4, 4))
    np.testing.assert_array_equal(relu(relu(x)), relu(x))


def test_residual_add():
    a = np.random.default_rng(2).standard_normal((2, 3))
    np.testing.assert_array_equal(residual_add(a, np.zeros_like(a)), a)
    np.testing.assert_array_equal(residual_add(a, -a), np.zeros_like(a))
    b = np.random.default_rng(3).standard_normal((2, 3))
    np.testing.assert_array_equal(residual_add(a, b), residual_add(b, a))
    with pytest.raises(ValueError):
        residual_add(a, np.zeros((3, 2)))


def test_global_avg_pool():
    assert global_avg_pool(np.full((2, 3, 4, 4), 7.0)).tolist() == [[7.0] * 3] * 2
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    assert global_avg_pool(x)[0, 0] == 2.5


def test_global_avg_pool_linearity():
    rng = np.random.default_rng(4)
    t1 = rng.standard_normal((2, 3, 5, 5))
    t2 = rng.standard_normal((2, 3, 5, 5))
    np.testing.assert_allclose(
        global_avg_pool(2.5 * t1 + t2),
        2.5 * global_avg_pool(t1) + global_avg_pool(t2),
        atol=1e-12,
    )


def test_avg_pool_true_overlap_divisor():
    # padded positions are excluded from the divisor, so a constant input
    # stays constant at the borders too
    x = np.ones((1, 1, 4, 4))
    out = avg_pool2d(x)
    assert out.shape == (1, 1, 4, 4)
    np.testing.assert_allclose(out, np.ones_like(out))


def test_avg_pool_hand_case():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = avg_pool2d(x)[0, 0]
    assert out[0, 0] == (0 + 1 + 4 + 5) / 4                 # corner: 4 real pixels
    assert out[0, 1] == (0 + 1 + 2 + 4 + 5 + 6) / 6         # edge: 6
    assert out[1, 1] == (0 + 1 + 2 + 4 + 5 + 6 + 8 + 9 + 10) / 9  # interior: 9
    np.testing.assert_array_equal(out, [
        [2.5, 3.0, 4.0, 4.5],
        [4.5, 5.0, 6.0, 6.5],
        [8.5, 9.0, 10.0, 10.5],
        [10.5, 11.0, 12.0, 12.5],
    ])


@pytest.mark.parametrize("b", [2, 3, 5, 16, 64])
@pytest.mark.parametrize("nhwc", [False, True])
def test_avg_pool_bit_identical_to_window_sum(b, nhwc):
    # The separable sum must give the window view's sum exactly: NB201
    # scores pass through it. Odd, even and one-pixel maps are covered.
    rng = np.random.default_rng(b)
    for c, h, w in [(16, 32, 32), (5, 7, 7), (3, 1, 5), (8, 2, 9), (32, 16, 16)]:
        x = rng.standard_normal((b, c, h, w))
        if nhwc:
            x = _nhwc(x)
        got, want = avg_pool2d(x), avg_pool_window_sum(x)
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_constant_channel_zeroes():
    x = np.full((2, 3, 4, 4), 5.0)
    out = batchnorm_batchstats(x)
    np.testing.assert_allclose(out, np.zeros_like(out))


def test_batchnorm_output_statistics():
    rng = np.random.default_rng(6)
    x = 3.0 * rng.standard_normal((8, 2, 16, 16)) + 1.0
    out = batchnorm_batchstats(x)
    for c in range(2):
        channel = out[:, c]
        assert abs(channel.mean()) < 1e-9
        var_in = x[:, c].var()
        expected_var = var_in / (var_in + BN_EPS)
        assert abs(channel.var() - expected_var) < 1e-6


def test_batchnorm_single_element_error():
    with pytest.raises(ValueError):
        batchnorm_batchstats(np.ones((1, 2, 1, 1)))


def test_batchnorm_peak_memory_two_inputs():
    # The centred copy is normalised in place and returned: at its peak the
    # kernel holds that copy and its square, nothing more of x's size.
    rng = np.random.default_rng(7)
    x = np.ascontiguousarray(rng.standard_normal((64, 32, 32, 16))).transpose(0, 3, 1, 2)  # a conv output's layout
    tracemalloc.start()
    try:
        batchnorm_batchstats(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes + 65536  # slack for the per-channel statistics


# ---------------------------------------------------------------------------
# linear / softmax / cross entropy / gradient


def test_linear_identity_and_selection():
    f = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(linear(f, np.eye(3)), f)
    w = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(linear(f, w), [[3.0, 1.0]])


def test_linear_hand_product():
    f = np.array([[1.0, 2.0]])
    w = np.array([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(linear(f, w), [[11.0, 17.0]])


def test_linear_shape_error():
    with pytest.raises(ValueError):
        linear(np.zeros((2, 3)), np.zeros((4, 5)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    z = 50.0 * rng.standard_normal((5, 7))
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(np.log(p), log_softmax(z), atol=1e-9)


def test_fc_grad_zero_at_perfect_prediction():
    features = np.random.default_rng(10).standard_normal((3, 4))
    labels = np.array([0, 1, 2])
    logits = np.full((3, 3), -1e4)
    logits[np.arange(3), labels] = 1e4
    grad = fc_weight_grad(features, logits, labels)
    np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-12)


def test_fc_grad_bilinear_in_features():
    rng = np.random.default_rng(11)
    features = rng.standard_normal((4, 6))
    logits = rng.standard_normal((4, 5))
    labels = np.array([0, 1, 2, 3])
    g1 = fc_weight_grad(features, logits, labels)
    g2 = fc_weight_grad(2.0 * features, logits, labels)
    np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)


def test_fc_grad_finite_difference_single_instance():
    rng = np.random.default_rng(12)
    features = rng.standard_normal((4, 8))
    weight = rng.standard_normal((5, 8)) * 0.3
    labels = rng.integers(0, 5, size=4)
    logits = features @ weight.T
    analytic = fc_weight_grad(features, logits, labels)
    numeric = fc_grad_fd(features, weight, labels)
    scale = np.abs(numeric).max()
    assert np.abs(analytic - numeric).max() / scale < 1e-4


# ---------------------------------------------------------------------------
# no-NaN property on fuzzed finite inputs


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_ops_stay_finite(seed, scale):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((2, 3, 6, 6))
    w = scale * rng.standard_normal((4, 3, 3, 3))
    y = conv2d(x, w, stride=1, padding=1)
    assert np.isfinite(y).all()
    y = batchnorm_batchstats(y)
    assert np.isfinite(y).all()
    y = relu(y)
    feats = global_avg_pool(y)
    logits = linear(feats, scale * rng.standard_normal((5, 4)))
    assert np.isfinite(logits).all()
    assert np.isfinite(softmax(logits)).all()
    labels = rng.integers(0, 5, size=2)
    assert np.isfinite(fc_weight_grad(feats, logits, labels)).all()
