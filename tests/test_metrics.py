"""Similarity metric, KD-distance, and training-free score tests."""

import math
import tracemalloc

import numpy as np
import pytest

from diswot.arch import S0Depths, max_descriptor, s0_space
from diswot.data import synth_batch
from diswot.kernels import fc_weight_grad, global_avg_pool
from diswot.metrics import (
    BUNDLES,
    CODES,
    COST,
    KD_KINDS,
    PROXIES,
    diswot_score_from_bundles,
    gradcam_maps,
    gram_distance,
    kd_distance,
    matrix_mean_sq_diff,
    nwot_from_codes,
    proxy_value,
    similarity_matrix,
)
from diswot.metrics import _fitnets_projection
from diswot.network import ActivationBundle, NetworkInstance
from diswot.rng import InitSpec

import oracles

RNG = np.random.default_rng


def make_bundle(rng, b=4, c=4, hw=3, n=4):
    """Random but internally consistent activation bundle."""
    pre_gap = rng.standard_normal((b, c, hw, hw))
    features = global_avg_pool(pre_gap)
    weight = rng.standard_normal((n, c))
    logits = features @ weight.T
    labels = rng.integers(0, n, size=b)
    grad = fc_weight_grad(features, logits, labels)
    return ActivationBundle(
        penultimate_features=features,
        pre_gap_map=pre_gap,
        logits=logits,
        fc_weight=weight,
        fc_weight_grad=grad,
    )


# ---------------------------------------------------------------------------
# gradcam


def test_gradcam_zero_activations():
    rng = RNG(0)
    bundle = make_bundle(rng)
    zeroed = ActivationBundle(
        penultimate_features=np.zeros_like(bundle.penultimate_features),
        pre_gap_map=np.zeros_like(bundle.pre_gap_map),
        logits=np.zeros_like(bundle.logits),
        fc_weight=bundle.fc_weight,
        fc_weight_grad=bundle.fc_weight_grad,
    )
    maps = gradcam_maps(zeroed)
    np.testing.assert_array_equal(maps, np.zeros_like(maps))


def test_gradcam_one_hot_selects_channel():
    rng = RNG(1)
    pre_gap = rng.standard_normal((3, 5, 2, 2))
    w = np.zeros((1, 5))
    w[0, 2] = 1.0
    bundle = ActivationBundle(
        penultimate_features=global_avg_pool(pre_gap),
        pre_gap_map=pre_gap,
        logits=np.zeros((3, 1)),
        fc_weight=w,
        fc_weight_grad=w,
    )
    maps = gradcam_maps(bundle)
    np.testing.assert_allclose(maps[0], pre_gap.mean(axis=0)[2].reshape(-1), atol=1e-12)


def test_gradcam_linear_in_weights():
    rng = RNG(2)
    pre_gap = rng.standard_normal((2, 4, 3, 3))
    feats = global_avg_pool(pre_gap)
    w1 = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((3, 4))

    def with_weight(w):
        return ActivationBundle(
            penultimate_features=feats,
            pre_gap_map=pre_gap,
            logits=feats @ w.T,
            fc_weight=w,
            fc_weight_grad=w,
        )

    m1 = gradcam_maps(with_weight(w1))
    m2 = gradcam_maps(with_weight(w2))
    m12 = gradcam_maps(with_weight(w1 + w2))
    np.testing.assert_allclose(m12, m1 + m2, atol=1e-12)


def test_gradcam_matches_oracle():
    rng = RNG(3)
    bundle = make_bundle(rng, b=3, c=5, hw=2, n=4)
    got = gradcam_maps(bundle)
    want = oracles.gradcam_naive(bundle.pre_gap_map, bundle.fc_weight)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gradcam_grad_source():
    rng = RNG(4)
    bundle = make_bundle(rng)
    maps_w = gradcam_maps(bundle, weight_source="fc_weights")
    maps_g = gradcam_maps(bundle, weight_source="fc_weight_grads")
    assert not np.allclose(maps_w, maps_g)
    want = oracles.gradcam_naive(bundle.pre_gap_map, bundle.fc_weight_grad)
    np.testing.assert_allclose(maps_g, want, atol=1e-12)


# ---------------------------------------------------------------------------
# similarity matrices and the Gram distance


def gradcam_like(rows):
    return np.asarray(rows, dtype=np.float64)


def test_gram_distance_hand_example():
    t = gradcam_like([[1.0, 0.0], [0.0, 1.0]])
    s = gradcam_like([[1.0, 0.0], [1.0, 0.0]])
    assert gram_distance(t, s) == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)  # ~0.292893


def test_semantic_identical_is_zero():
    maps = RNG(5).standard_normal((4, 9))
    assert gram_distance(gradcam_like(maps), gradcam_like(maps)) == 0.0


def test_semantic_scale_invariance():
    maps = RNG(6).standard_normal((4, 9))
    assert gram_distance(gradcam_like(maps), gradcam_like(3.0 * maps)) == pytest.approx(0.0, abs=1e-12)


def test_semantic_class_count_mismatch():
    rng = RNG(7)
    with pytest.raises(ValueError, match="row counts differ"):
        gram_distance(gradcam_like(rng.standard_normal((3, 4))), gradcam_like(rng.standard_normal((2, 4))))


# Batch features (B x C x H x W): the relation rows diswot compares.
@pytest.mark.parametrize("shape", [(4, 3, 2, 2)], ids=["batch-features"])
def test_gram_distance_identical_and_scaled(shape):
    rows = RNG(5).standard_normal(shape)
    assert gram_distance(rows, rows) == 0.0
    assert gram_distance(rows, 3.0 * rows) == pytest.approx(0.0, abs=1e-12)


def test_relation_batch_mismatch():
    rng = RNG(10)
    with pytest.raises(ValueError, match="row counts differ"):
        gram_distance(rng.standard_normal((4, 3, 2, 2)), rng.standard_normal((3, 3, 2, 2)))


def test_gram_distance_allows_different_row_lengths():
    rng = RNG(8)
    t = gradcam_like(rng.standard_normal((3, 16)))
    s = gradcam_like(rng.standard_normal((3, 4)))
    assert np.isfinite(gram_distance(t, s))


def test_similarity_matrix_row_l2_unit_rows():
    rng = RNG(11)
    sm = similarity_matrix(rng.standard_normal((5, 7)))
    norms = np.sqrt((sm ** 2).sum(axis=1))
    np.testing.assert_allclose(norms, np.ones(5), atol=1e-12)


def test_similarity_matrix_zero_row_stays_zero():
    rows = np.zeros((3, 4))
    rows[0] = [1.0, 0.0, 0.0, 0.0]
    sm = similarity_matrix(rows)
    np.testing.assert_array_equal(sm[1], np.zeros(3))


def test_matrix_l2_normalization_scale_invariant():
    rng = RNG(12)
    maps = rng.standard_normal((4, 6))
    a = gram_distance(gradcam_like(maps), gradcam_like(2.0 * maps), normalization="matrix_l2")
    assert a == pytest.approx(0.0, abs=1e-12)
    # and it is a genuinely different kernel from row_l2 on asymmetric input
    other = rng.standard_normal((4, 6))
    r = gram_distance(gradcam_like(maps), gradcam_like(other), normalization="row_l2")
    m = gram_distance(gradcam_like(maps), gradcam_like(other), normalization="matrix_l2")
    assert r != pytest.approx(m, abs=1e-6)


def test_symmetry_of_roles():
    rng = RNG(13)
    a = rng.standard_normal((4, 3, 2, 2))
    b = rng.standard_normal((4, 5, 2, 2))
    assert gram_distance(a, b) == pytest.approx(gram_distance(b, a), abs=1e-15)
    ma = gradcam_like(rng.standard_normal((3, 4)))
    mb = gradcam_like(rng.standard_normal((3, 4)))
    assert gram_distance(ma, mb) == pytest.approx(gram_distance(mb, ma), abs=1e-15)


def test_gram_distance_joint_permutation_invariance():
    rng = RNG(14)
    a = rng.standard_normal((5, 4, 2, 2))
    b = rng.standard_normal((5, 6, 2, 2))
    base = gram_distance(a, b)
    perm = rng.permutation(5)
    assert gram_distance(a[perm], b[perm]) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# oracle agreement on tiny bundles


def test_metric_oracle_agreement_100_bundles():
    rng = RNG(100)
    for trial in range(100):
        b = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        hw = int(rng.integers(1, 4))
        ct = int(rng.integers(1, 5))
        cs = int(rng.integers(1, 5))
        t = make_bundle(rng, b=b, c=ct, hw=hw, n=n)
        s = make_bundle(rng, b=b, c=cs, hw=hw, n=n)

        ms = gram_distance(gradcam_maps(t), gradcam_maps(s))
        want_ms = oracles.semantic_naive(
            oracles.gradcam_naive(t.pre_gap_map, t.fc_weight),
            oracles.gradcam_naive(s.pre_gap_map, s.fc_weight),
        )
        assert ms == pytest.approx(want_ms, abs=1e-10)

        mr = gram_distance(t.pre_gap_map, s.pre_gap_map)
        want_mr = oracles.relation_naive(t.pre_gap_map, s.pre_gap_map)
        assert mr == pytest.approx(want_mr, abs=1e-10)


def test_kd_distance_oracle_agreement_100_bundles():
    rng = RNG(200)
    rho = 4.0
    for trial in range(100):
        b = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        hw = int(rng.integers(1, 4))
        ct = int(rng.integers(2, 5))
        cs = int(rng.integers(2, 5))
        t = make_bundle(rng, b=b, c=ct, hw=hw, n=n)
        s = make_bundle(rng, b=b, c=cs, hw=hw, n=n)

        got = {k: -kd_distance(k, t, s, rho) for k in KD_KINDS}

        proj = None if cs == ct else _fitnets_projection(cs, ct)
        want = {
            "kd_kl": oracles.kd_kl_naive(t.logits, s.logits, rho),
            "fitnets": oracles.fitnets_naive(t.penultimate_features, s.penultimate_features, proj),
            "at": oracles.at_naive(t.pre_gap_map, s.pre_gap_map),
            "sp": oracles.relation_naive(t.pre_gap_map, s.pre_gap_map),
            "cc": oracles.cc_naive(t.penultimate_features, s.penultimate_features),
            "rkd": oracles.rkd_naive(t.penultimate_features, s.penultimate_features),
            "nst": oracles.nst_naive(t.pre_gap_map, s.pre_gap_map),
            "pkt": oracles.pkt_naive(t.penultimate_features, s.penultimate_features),
        }
        for kind in KD_KINDS:
            assert got[kind] == pytest.approx(want[kind], abs=1e-10), kind


# ---------------------------------------------------------------------------
# KD distance properties


def test_kd_distance_zero_on_identical_bundles():
    rng = RNG(15)
    t = make_bundle(rng, b=3, c=4, hw=2, n=5)
    for kind in KD_KINDS:
        assert kd_distance(kind, t, t, 2.0) == pytest.approx(0.0, abs=1e-12), kind


def test_kd_kl_shift_invariance():
    rng = RNG(16)
    t = make_bundle(rng, b=3, c=4, hw=2, n=5)
    shift = rng.standard_normal((3, 1)) * 10.0
    shifted = ActivationBundle(
        penultimate_features=t.penultimate_features,
        pre_gap_map=t.pre_gap_map,
        logits=t.logits + shift,
        fc_weight=t.fc_weight,
        fc_weight_grad=t.fc_weight_grad,
    )
    assert kd_distance("kd_kl", t, shifted, 4.0) == pytest.approx(0.0, abs=1e-10)


def test_rkd_isometry_invariance():
    rng = RNG(17)
    t = make_bundle(rng, b=4, c=6, hw=2, n=3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rotated = ActivationBundle(
        penultimate_features=t.penultimate_features @ q + rng.standard_normal(6),
        pre_gap_map=t.pre_gap_map,
        logits=t.logits,
        fc_weight=t.fc_weight,
        fc_weight_grad=t.fc_weight_grad,
    )
    assert kd_distance("rkd", t, rotated, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_kd_distance_validation():
    rng = RNG(18)
    t = make_bundle(rng, b=3)
    s = make_bundle(rng, b=2)
    with pytest.raises(ValueError):
        kd_distance("kd_kl", t, s, 4.0)
    with pytest.raises(ValueError):
        kd_distance("kd_kl", t, t, 0.0)
    with pytest.raises(ValueError):
        kd_distance("nope", t, t, 1.0)


def test_fitnets_projection_deterministic():
    a = _fitnets_projection(4, 6)
    b = _fitnets_projection(4, 6)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 4)
    assert not np.array_equal(a[:4, :4], _fitnets_projection(4, 5)[:4, :4])


# ---------------------------------------------------------------------------
# NWOT


def _packed(codes, cuts=()):
    """(packed, units) of bool codes [B, U] as relu_codes packs them, one ReLU per segment between cuts."""
    segments = np.split(codes, cuts, axis=1)
    return np.concatenate([np.packbits(s, axis=1) for s in segments], axis=1), codes.shape[1]


def _network_codes(net, images):
    """(packed, units, bool codes) of a network; the bool codes unpack each ReLU's bytes by the plan's sizes."""
    packed = net.relu_codes(images)
    rows, o = [], 0
    for op in net.plan.ops:
        if op.kind == "relu":
            units = op.channels * op.hw[0] * op.hw[1]
            rows.append(np.unpackbits(packed[:, o:o + -(-units // 8)], axis=1, count=units).astype(bool))
            o += -(-units // 8)
    assert o == packed.shape[1]
    return packed, net.plan.relu_units, np.concatenate(rows, axis=1)


def test_nwot_matches_naive_kernel():
    space = s0_space()
    net = NetworkInstance(S0Depths(1, 1, 1), space, InitSpec(seed=0))
    batch = synth_batch(4, 3, 32, 32, 100, seed=0)
    packed, units, codes = _network_codes(net, batch.images)
    got = nwot_from_codes(packed, units)
    assert got == pytest.approx(oracles.nwot_naive(codes), abs=1e-8)


def test_nwot_complementary_codes_closed_form():
    u = 10
    codes = np.zeros((2, u), dtype=bool)
    codes[0, :] = True
    score = nwot_from_codes(*_packed(codes))
    assert score == pytest.approx(2.0 * np.log(u + 1e-6), abs=1e-9)


def test_nwot_duplicate_samples_score_below_distinct():
    u = 12
    dup = np.zeros((2, u), dtype=bool)
    dup[:, :6] = True  # identical codes: singular kernel
    comp = np.zeros((2, u), dtype=bool)
    comp[0, :] = True
    s_dup = nwot_from_codes(*_packed(dup))
    s_comp = nwot_from_codes(*_packed(comp))
    assert np.isfinite(s_dup)
    assert s_dup < s_comp


def _nwot_two_product(codes, eps=1e-6):
    kernel = oracles.nwot_kernel_two_product(codes) + eps * np.eye(codes.shape[0])
    return float(np.linalg.slogdet(kernel)[1])


def test_nwot_kernel_exact_against_two_product_formula():
    # Each matrix is split into ReLUs of random lengths and each is packed to
    # whole bytes with zero padding, as relu_codes packs them. Most lengths
    # are not a multiple of 8, like the 86 x 7 x 7 ReLU of the smallest
    # s2_imagenet network: the padding bits must add no Hamming distance.
    rng = np.random.default_rng(13)
    lengths = []
    for trial in range(60):
        b = int(rng.integers(2, 9))
        u = int(rng.integers(1, 3000))
        codes = rng.random((b, u)) < rng.uniform(0.05, 0.95)
        codes[:, rng.random(u) < 0.1] = True  # all-active columns
        codes[:, rng.random(u) < 0.1] = False  # all-inactive columns
        if trial % 3 == 0:
            codes[1] = codes[0]  # duplicate rows
        cuts = np.unique(rng.integers(0, u, size=int(rng.integers(0, 12))))
        cuts = cuts[cuts > 0]
        lengths += np.diff(cuts, prepend=0, append=u).tolist()
        assert nwot_from_codes(*_packed(codes, cuts)) == _nwot_two_product(codes)
    assert sum(n % 8 != 0 for n in lengths) > len(lengths) // 2
    net = NetworkInstance(S0Depths(1, 1, 1), s0_space(), InitSpec(seed=3))
    packed, units, codes = _network_codes(net, synth_batch(4, 3, 32, 32, 100, seed=3).images)
    assert nwot_from_codes(packed, units) == _nwot_two_product(codes)


def test_nwot_float_copy_is_bounded():
    # A (64, 303 104) code matrix is s0 5-5-5 at batch 64; one float64 copy
    # of it, as a single product needs, would take 148 MiB. Its packed codes
    # take one eighth of the bool bytes.
    units = 303_104
    packed, _ = _packed(np.random.default_rng(0).random((64, units)) < 0.5)
    tracemalloc.start()
    try:
        nwot_from_codes(packed, units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * units * 8 // 4


def test_nwot_small_batch_peak_is_bounded():
    # 2**21 units at batch 4, 8 MiB as bool codes, pack into 1 MiB of words,
    # and the XOR of one row against the other three takes 0.75 MiB more.
    units = 2**21
    packed, _ = _packed(np.random.default_rng(0).random((4, units)) < 0.5)
    tracemalloc.start()
    try:
        nwot_from_codes(packed, units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_nwot_sample_order_invariance():
    space = s0_space()
    net = NetworkInstance(S0Depths(1, 3, 1), space, InitSpec(seed=1))
    batch = synth_batch(5, 3, 32, 32, 100, seed=1)
    base = nwot_from_codes(net.relu_codes(batch.images), net.plan.relu_units)
    perm = np.random.default_rng(2).permutation(5)
    codes = net.relu_codes(batch.images[perm])
    assert nwot_from_codes(codes, net.plan.relu_units) == pytest.approx(base, abs=1e-8)


# ---------------------------------------------------------------------------
# the combined score


def test_diswot_zero_for_identical_twin():
    space = s0_space()
    batch = synth_batch(4, 3, 32, 32, 100, seed=3)
    init = InitSpec(seed=5)
    teacher = NetworkInstance(S0Depths(3, 3, 3), space, init)
    twin = NetworkInstance(S0Depths(3, 3, 3), space, init)
    t_bundle = teacher.activations(batch.images, batch.labels)
    s_bundle = twin.activations(batch.images, batch.labels)
    assert diswot_score_from_bundles(t_bundle, s_bundle) == pytest.approx(0.0, abs=1e-12)


def test_diswot_relation_only_composition():
    rng = RNG(19)
    t = make_bundle(rng, b=4, c=4, hw=2, n=6)
    s = make_bundle(rng, b=4, c=5, hw=2, n=6)
    full = diswot_score_from_bundles(t, s)
    ms_only = diswot_score_from_bundles(t, s, use_relation=False)
    mr_only = diswot_score_from_bundles(t, s, use_semantic=False)
    assert full == pytest.approx(ms_only + mr_only, abs=1e-12)
    mr = gram_distance(t.pre_gap_map, s.pre_gap_map)
    assert mr_only == pytest.approx(-mr, abs=1e-15)
    with pytest.raises(ValueError):
        diswot_score_from_bundles(t, s, use_semantic=False, use_relation=False)


def test_diswot_ranking_invariant_to_constant_shift():
    rng = RNG(20)
    scores = rng.standard_normal(16)
    shifted = scores + 3.7
    assert np.array_equal(np.argsort(scores), np.argsort(shifted))
    assert np.argmax(scores) == np.argmax(shifted)


def test_diswot_exhaustive_argmax_is_stable():
    space = s0_space()
    batch = synth_batch(4, 3, 32, 32, 100, seed=4)
    init = InitSpec(seed=9)
    teacher = NetworkInstance(S0Depths(7, 7, 7), space, init)
    tb = teacher.activations(batch.images, batch.labels)

    def run_once():
        vals = []
        for d1 in (1, 7):
            for d2 in (1, 7):
                net = NetworkInstance(S0Depths(d1, d2, 1), space, init)
                sb = net.activations(batch.images, batch.labels)
                vals.append(diswot_score_from_bundles(tb, sb))
        return vals

    a = run_once()
    b = run_once()
    assert a == b


def test_matrix_mean_sq_diff():
    a = np.ones((2, 2))
    b = np.zeros((2, 2))
    assert matrix_mean_sq_diff(a, b) == 1.0


# ---------------------------------------------------------------------------
# the proxy table


@pytest.fixture(scope="module")
def proxy_inputs():
    """s0 1-3-5 at batch 2 against the max teacher: each input kind PROXIES names."""
    space = s0_space()
    batch = synth_batch(2, 3, 32, 32, space.num_classes, seed=0)
    init = InitSpec(seed=0)
    student = NetworkInstance(S0Depths(1, 3, 5), space, init)
    teacher = NetworkInstance(max_descriptor(space), space, init)
    return {
        COST: {"space": space},
        CODES: {"codes": student.relu_codes(batch.images), "units": student.plan.relu_units},
        BUNDLES: {
            "teacher": teacher.activations(batch.images, batch.labels),
            "student": student.activations(batch.images, batch.labels),
        },
    }


@pytest.mark.parametrize("name", list(PROXIES))
def test_proxy_value_needs_only_what_its_entry_reads(name, proxy_inputs):
    # The CLI runs only the forwards the entries ask for and passes None
    # for the rest, so an entry that names the wrong input fails here.
    value = proxy_value(name, S0Depths(1, 3, 5), **proxy_inputs[PROXIES[name]])
    assert isinstance(value, float) and math.isfinite(value)
