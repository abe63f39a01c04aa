"""Network building, parameter/FLOP accounting, and forward-pass tests."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from diswot.arch import (
    Constraints,
    block_count,
    min_descriptor,
    mutate,
    S0Depths,
    S2Config,
    S2Stage,
    enumerate_s0,
    max_descriptor,
    nb201_space,
    parse_nb201,
    s0_space,
    s2_cifar_space,
    s2_imagenet_space,
    sample_descriptor,
)
from diswot.data import synth_batch
from diswot.metrics import diswot_score_from_bundles, kd_distance, nwot_from_codes
from diswot import cli, network
from diswot.network import (
    NetworkInstance,
    PrefixCache,
    count_flops,
    count_params,
    sample_random,
    satisfies_constraints,
)
from diswot.rng import InitSpec, stream

import oracles

# Depth triples with known parameter counts (in K, +-0.01 K).
PARAM_GOLDENS = [
    ((7, 1, 3), 259.89),
    ((3, 3, 3), 278.32),
    ((7, 5, 3), 334.13),
    ((1, 7, 3), 343.22),
    ((5, 5, 7), 620.72),
    ((3, 7, 7), 648.50),
    ((7, 3, 5), 444.98),
    ((5, 5, 5), 472.76),
]


# ---------------------------------------------------------------------------
# parameter counting


@pytest.mark.parametrize("depths,kparams", PARAM_GOLDENS)
def test_param_count_goldens(depths, kparams):
    n = count_params(S0Depths(*depths), s0_space())
    assert abs(n / 1000.0 - kparams) <= 0.01


def test_param_count_matches_built_weights_all_s0():
    space = s0_space()
    init = InitSpec(seed=0)
    for desc in enumerate_s0():
        net = NetworkInstance(desc, space, init)
        total = sum(w.size for _, w in oracles.named_weights(net))
        assert total == count_params(desc, space)


def test_param_count_matches_built_weights_s2():
    space = s2_cifar_space()
    rng = stream(17, 0)
    init = InitSpec(seed=0)
    for _ in range(50):
        desc = sample_random(space, rng)
        net = NetworkInstance(desc, space, init)
        total = sum(w.size for _, w in oracles.named_weights(net))
        assert total == count_params(desc, space)


def test_param_count_matches_built_weights_nb201():
    space = nb201_space()
    init = InitSpec(seed=0)
    rng = stream(18, 0)
    for _ in range(10):
        desc = sample_random(space, rng)
        net = NetworkInstance(desc, space, init)
        total = sum(w.size for _, w in oracles.named_weights(net))
        assert total == count_params(desc, space)


def test_param_monotonicity():
    space = s0_space()
    assert count_params(S0Depths(1, 1, 1), space) < count_params(S0Depths(7, 7, 7), space)


# ---------------------------------------------------------------------------
# FLOPs


def test_flops_single_conv_closed_form():
    # one 3x3 conv, Cin=Cout=16, 32x32 output: 2 * (9*16) * 16 * 32 * 32
    space = s0_space()
    stem_only = 2 * (9 * 3) * 16 * 32 * 32  # the stem conv is 3->16
    total = count_flops(S0Depths(1, 1, 1), space)
    assert total > stem_only
    # the documented closed form for a 16->16 3x3 conv at 32x32:
    assert 2 * (9 * 16) * 16 * 32 * 32 == 4_718_592


def test_flops_doubling_spatial_quadruples():
    space = s0_space()
    d = S0Depths(3, 3, 3)
    f32 = count_flops(d, space)
    f64 = count_flops(d, replace(space, input_hw=64))
    # FC contributes the same in both; conv part quadruples
    fc = 2 * 100 * 64
    assert f64 - fc == 4 * (f32 - fc)


def test_flops_monotone_in_depth():
    space = s0_space()
    vals = [count_flops(S0Depths(d, d, d), space) for d in (1, 3, 5, 7)]
    assert vals == sorted(vals)
    assert len(set(vals)) == 4


def _flop_cases():
    """The max, the min and three sampled members of each finite space, and the s2_imagenet min."""
    cases = [pytest.param(s2_imagenet_space, min_descriptor(s2_imagenet_space()), id="s2_imagenet-min")]
    for make_space in (s0_space, nb201_space, s2_cifar_space):
        space, rng = make_space(), stream(23, 0)
        descs = {"max": max_descriptor(space), "min": min_descriptor(space)}
        descs.update((f"sample{i}", sample_random(space, rng)) for i in range(3))
        cases += [pytest.param(make_space, desc, id=f"{space.kind}-{name}") for name, desc in descs.items()]
    return cases


@pytest.mark.parametrize("make_space,desc", _flop_cases())
def test_count_flops_matches_the_forward(monkeypatch, make_space, desc):
    # count_flops reads the compiled plan; the convs a real forward runs give
    # the same count from their input, weight and output shapes, plus the
    # classifier's multiply-adds from its weight.
    space = make_space()
    batch = synth_batch(2, 3, space.input_hw, space.input_hw, space.num_classes, seed=0)
    flops = []
    conv2d = network.conv2d

    def counted(x, weight, *args):
        y = conv2d(x, weight, *args)
        cout, cin, k, _ = weight.shape
        assert (x.shape[:2], y.shape[:2]) == ((2, cin), (2, cout))
        flops.append(2 * cout * y.shape[2] * y.shape[3] * cin * k * k)
        return y

    monkeypatch.setattr(network, "conv2d", counted)
    bundle = NetworkInstance(desc, space, InitSpec(seed=0)).activations(batch.images, batch.labels)
    assert sum(flops) + 2 * bundle.fc_weight.size == count_flops(desc, space)


# ---------------------------------------------------------------------------
# builds and forwards


def test_s0_forward_shape():
    net = NetworkInstance(S0Depths(3, 3, 3), s0_space(), InitSpec(seed=0))
    batch = synth_batch(4, 3, 32, 32, 100, seed=0)
    logits = net.activations(batch.images, batch.labels).logits
    assert logits.shape == (4, 100)
    assert np.isfinite(logits).all()


def test_builder_determinism():
    space = s0_space()
    batch = synth_batch(4, 3, 32, 32, 100, seed=1)
    a = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=7)).activations(batch.images, batch.labels).logits
    b = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=7)).activations(batch.images, batch.labels).logits
    np.testing.assert_array_equal(a, b)
    c = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=8)).activations(batch.images, batch.labels).logits
    assert not np.array_equal(a, c)


def test_activation_bundle_consistency():
    net = NetworkInstance(S0Depths(1, 1, 1), s0_space(), InitSpec(seed=2))
    batch = synth_batch(4, 3, 32, 32, 100, seed=2)
    bundle = net.activations(batch.images, batch.labels)
    assert bundle.penultimate_features.shape == (4, 64)
    assert bundle.pre_gap_map.shape[0:2] == (4, 64)
    # logits really are the linear readout of the penultimate features
    np.testing.assert_allclose(
        bundle.logits, bundle.penultimate_features @ bundle.fc_weight.T, atol=1e-12
    )
    # GAP of the stored pre-GAP map reproduces the features
    np.testing.assert_allclose(
        bundle.penultimate_features, bundle.pre_gap_map.mean(axis=(2, 3)), atol=1e-12
    )
    assert bundle.fc_weight_grad.shape == bundle.fc_weight.shape


def test_nb201_forward_shape():
    space = nb201_space()
    cell = parse_nb201(
        "|nor_conv_1x1~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_1x1~2|"
    )
    net = NetworkInstance(cell, space, InitSpec(seed=0))
    batch = synth_batch(2, 3, 32, 32, 10, seed=3)
    out = net.activations(batch.images, batch.labels).logits
    assert out.shape == (2, 10)
    assert np.isfinite(out).all()


def test_nb201_none_op_still_forwards():
    space = nb201_space()
    cell = parse_nb201(
        "|none~0|+|none~0|none~1|+|nor_conv_1x1~0|none~1|none~2|"
    )
    net = NetworkInstance(cell, space, InitSpec(seed=0))
    batch = synth_batch(2, 3, 32, 32, 10, seed=4)
    out = net.activations(batch.images, batch.labels).logits
    assert out.shape == (2, 10)
    assert np.isfinite(out).all()


def test_s2_imagenet_stem_downsamples():
    space = s2_imagenet_space()
    desc = sample_random(space, stream(3, 0))
    net = NetworkInstance(desc, space, InitSpec(seed=0))
    bundle = net.activations(
        synth_batch(2, 3, 64, 64, 1000, seed=5).images,
        synth_batch(2, 3, 64, 64, 1000, seed=5).labels,
    )
    assert bundle.logits.shape == (2, 1000)


def test_relu_codes_shape_and_dtype():
    net = NetworkInstance(S0Depths(1, 1, 1), s0_space(), InitSpec(seed=1))
    batch = synth_batch(4, 3, 32, 32, 100, seed=6)
    kernel = net.relu_codes(batch.images)
    assert kernel.dtype == np.int64
    assert kernel.shape == (4, 4)
    assert np.array_equal(kernel, kernel.T)
    assert (kernel.diagonal() == 73_728).all()  # the network's ReLU units
    assert ((0 <= kernel) & (kernel <= 73_728)).all()


def _traced(fn):
    """(fn(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relu_codes_hold_only_the_count():
    # Each ReLU adds the agreement counts of its input's sign patterns to
    # the forward's (B, B) kernel as it runs, and each checkpoint holds that
    # kernel, so no ReLU's codes outlive it. At batch 64 the packed codes of
    # 7-7-7 would take 3.2 MiB; the counting forward peaks 35 KiB above an
    # activations forward, and a full hit allocates one zero kernel.
    net = NetworkInstance(S0Depths(7, 7, 7), s0_space(), InitSpec(seed=0))
    batch = synth_batch(64, 3, 32, 32, 100, seed=0)
    cache = PrefixCache(batch.images, net.init)
    first, forward = _traced(lambda: net.relu_codes(batch.images, cache=cache))
    packed_bytes = 64 * int(first[0, 0]) // 8  # the diagonal holds the ReLU units
    assert [(cp.kernel.dtype, cp.kernel.shape) for cp in cache._store.values()] == [(np.int64, (64, 64))] * 3
    assert cache._store[net.plan.ops].kernel is first  # the plan's end is a stage end
    kernel, peak = _traced(lambda: net.relu_codes(batch.images, cache=cache))  # resumes at the end: it runs no op
    assert kernel.tobytes() == first.tobytes()
    assert peak < 1.5 * kernel.nbytes
    activations = _traced(lambda: net.activations(batch.images, batch.labels))[1]
    assert forward - activations < packed_bytes // 8


# ---------------------------------------------------------------------------
# constraints


def test_satisfies_constraints_params():
    space = replace(s0_space(), constraints=Constraints(max_params=260_000))
    assert satisfies_constraints(S0Depths(7, 1, 3), space)      # 259.89 K
    assert not satisfies_constraints(S0Depths(3, 3, 3), space)  # 278.32 K


def test_each_plan_is_compiled_once(monkeypatch):
    # Both cost limits read one compiled plan, and a network compiles its own
    # plan once; each limit still rejects a network one unit above it.
    compiles = []
    compile_plan = network._compile
    monkeypatch.setattr(network, "_compile", lambda *a: compiles.append(a) or compile_plan(*a))
    desc = S0Depths(3, 3, 3)  # 278 324 params, 81 637 888 FLOPs
    for max_params, max_flops, fits in ((278_324, 81_637_888, True), (278_323, 81_637_888, False),
                                        (278_324, 81_637_887, False)):
        compiles.clear()
        space = replace(s0_space(), constraints=Constraints(max_params=max_params, max_flops=max_flops))
        assert satisfies_constraints(desc, space) is fits
        assert len(compiles) == 1
    compiles.clear()
    NetworkInstance(desc, s0_space(), InitSpec(seed=0))
    assert len(compiles) == 1


def test_constrained_sampling_never_violates():
    space = replace(s0_space(), constraints=Constraints(max_params=260_000))
    rng = stream(4, 0)
    for _ in range(200):
        desc = sample_random(space, rng)
        assert count_params(desc, space) <= 260_000
        assert desc != S0Depths(3, 3, 3)


def test_max_depth_constraint():
    space = replace(s0_space(), constraints=Constraints(max_depth=5))
    assert satisfies_constraints(S0Depths(1, 1, 3), space)
    assert not satisfies_constraints(S0Depths(3, 3, 1), space)


def test_unsatisfiable_constraints_raise():
    space = replace(s0_space(), constraints=Constraints(max_params=1))
    with pytest.raises(RuntimeError):
        sample_random(space, stream(0, 0))


@pytest.mark.parametrize("make_space", [s0_space, nb201_space, s2_cifar_space, s2_imagenet_space])
def test_min_descriptor_is_smallest(make_space):
    # No drawn member has fewer params, FLOPs or blocks than the smallest.
    space = make_space()
    small = min_descriptor(space)
    assert satisfies_constraints(small, space)
    floor = (count_params(small, space), count_flops(small, space), block_count(small, space))
    rng = stream(9, 0)
    descs = enumerate_s0() if space.kind == "s0" else [sample_descriptor(space, rng) for _ in range(300)]
    for desc in descs:
        cost = (count_params(desc, space), count_flops(desc, space), block_count(desc, space))
        assert all(c >= f for c, f in zip(cost, floor))


def test_teacher_template_larger_than_space():
    space = s0_space()
    teacher = S0Depths(18, 18, 18)
    n = count_params(teacher, space)
    assert n > count_params(max_descriptor(space), space)
    net = NetworkInstance(teacher, space, InitSpec(seed=0))
    batch = synth_batch(2, 3, 32, 32, 100, seed=7)
    out = net.activations(batch.images, batch.labels).logits
    assert out.shape == (2, 100)


# ---------------------------------------------------------------------------
# exact outputs and memory


def _s2(*stages):
    return S2Config(16, tuple(S2Stage(*st) for st in stages))


# (diswot, nwot, cc, params, flops, *EXACT_KD) at batch 4, seed 0, against
# the space's max descriptor as teacher. The first five were recorded with the
# earlier nested layer-object network code, so they pin the op plan to the
# same weight-stream order, ReLU-code order and cell summation order. The KD
# distances were recorded through the if/elif dispatch of kd_distance that
# the name-to-function table replaced.
EXACT_KD = ("kd_kl", "fitnets", "at", "sp", "rkd", "nst", "pkt")
EXACT = [
    (s0_space, S0Depths(1, 3, 5),
     (-0.020646710272948544, 45.979143821444936, -0.12928238923979762, 416948, 326551552,
      -5.966526090861178, -0.17789705545288598, -0.12083369106270986, -0.0011088103092201976, -2.1966601550482006, -0.018482784776087946, -8.641888827988892e-06)),
    (nb201_space, parse_nb201("|none~0|+|skip_connect~0|avg_pool_3x3~1|+|nor_conv_1x1~0|nor_conv_3x3~1|none~2|"),
     (-0.12881991433501466, 44.988689124518416, -0.03100511140565368, 181914, 188093440,
      -0.14317286251647396, -0.008743105991456564, -0.3815389634223747, -0.003380515551560239, -0.01040611241533632, -0.043159208156335616, -6.6356326224003e-06)),
    (nb201_space, parse_nb201("|skip_connect~0|+|nor_conv_3x3~0|none~1|+|avg_pool_3x3~0|skip_connect~1|nor_conv_1x1~2|"),
     (-0.1291257568086392, 46.19006109650968, -0.16782076007378816, 181914, 188093440,
      -0.15372853609123552, -0.02532373907840313, -0.317158681253073, -0.003684371909501795, -1.0074259618569965, -0.038649378745845814, -0.0007491487841685949)),
    (nb201_space, parse_nb201("|avg_pool_3x3~0|+|none~0|nor_conv_1x1~1|+|skip_connect~0|avg_pool_3x3~1|skip_connect~2|"),
     (-0.1186339233345251, 43.68452851208152, -0.04796165262071144, 84698, 74847232,
      -0.41217840757217317, -0.054877974763027026, -0.4210719824445561, -0.006732135777583571, -3.5739000087834754, -0.048051293743846396, -0.00302937327330193)),
    (s2_cifar_space, _s2(("basic", 3, 16, 1, 1), ("basic", 3, 32, 1, 2), ("basic", 5, 32, 1, 1),
                         ("basic", 3, 64, 1, 2), ("basic", 3, 64, 1, 2), ("basic", 7, 128, 1, 1)),
     (-0.14119504284072704, 44.61208117534215, -0.008915025694162979, 1421402, 370026496,
      -0.4829341132310774, -1.4846788485981073, -0.06671016749235943, -0.012765713944084035, -1.9770738907743226, -0.016619861414406856, -6.058039452649126e-05)),
    (s2_cifar_space, _s2(("bottleneck", 3, 16, 2, 1), ("basic", 5, 24, 1, 2), ("bottleneck", 3, 32, 1, 1),
                         ("bottleneck", 7, 48, 1, 2), ("basic", 3, 64, 2, 2), ("bottleneck", 5, 96, 1, 1)),
     (-0.14909591842786182, 45.46462553283066, -0.031490036282239495, 206314, 97476096,
      -1.1569694111572661, -1.4795263610563996, -0.18931149763867278, -0.02167353722939237, -2.0878007365390285, -0.029401195455962453, -0.00016881136428899322)),
]


def _exact_values() -> list[list]:
    out = []
    teachers = {}
    for make_space, desc, _ in EXACT:
        space = make_space()
        batch = synth_batch(4, 3, 32, 32, space.num_classes, seed=0)
        if make_space not in teachers:
            teacher = NetworkInstance(max_descriptor(space), space, InitSpec(seed=0))
            teachers[make_space] = teacher.activations(batch.images, batch.labels)
        net = NetworkInstance(desc, space, InitSpec(seed=0))
        bundle = net.activations(batch.images, batch.labels)
        out.append([
            diswot_score_from_bundles(teachers[make_space], bundle),
            nwot_from_codes(net.relu_codes(batch.images)),
            kd_distance("cc", teachers[make_space], bundle),
            count_params(desc, space),
            4 * count_flops(desc, space),  # pinned at batch 4
            *(kd_distance(kind, teachers[make_space], bundle) for kind in EXACT_KD),
        ])
    return out


@pytest.fixture(scope="module")
def exact_values():
    # Computed in a child with BLAS on one thread: with more threads, the
    # last bits of the s2 matmuls depend on the thread count.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")])
    code = "import json, test_network; print(json.dumps(test_network._exact_values()))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("i", range(len(EXACT)), ids=[f"{m.__name__}-{i}" for i, (m, _, _) in enumerate(EXACT)])
def test_exact_scores_and_costs(exact_values, i):
    assert exact_values[i] == list(EXACT[i][2])


def test_activations_release_dead_slots():
    # The forward keeps only live activations: 6.6 MiB here, against about
    # 46 MiB when every intermediate of the 7-7-7 net is held to the end.
    net = NetworkInstance(S0Depths(7, 7, 7), s0_space(), InitSpec(seed=0))
    batch = synth_batch(4, 3, 32, 32, 100, seed=0)
    tracemalloc.start()
    try:
        net.activations(batch.images, batch.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_activations_keep_no_conv_weight():
    # A conv's weight is dropped once the conv has run. While the instance
    # kept every conv weight it drew, 5.0 MiB beyond the bundle stayed alive
    # here; without that, 9 KiB does.
    net = NetworkInstance(S0Depths(7, 7, 7), s0_space(), InitSpec(seed=0))
    batch = synth_batch(4, 3, 32, 32, 100, seed=0)
    tracemalloc.start()
    try:
        bundle = net.activations(batch.images, batch.labels)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    made = (bundle.penultimate_features, bundle.pre_gap_map, bundle.logits, bundle.fc_weight_grad)
    assert held - sum(a.nbytes for a in made) < 2**20


# s2_imagenet is left out: its largest descriptor, the teacher here, holds
# about 1.7 GB of float64 weights.
FINITE_SPACES = {"s0": s0_space, "nb201": nb201_space, "s2_cifar": s2_cifar_space}


@pytest.fixture(scope="module")
def finite_teachers():
    out = {}
    for name, make_space in FINITE_SPACES.items():
        space = make_space()
        batch = synth_batch(2, 3, 32, 32, space.num_classes, seed=5)
        teacher = NetworkInstance(max_descriptor(space), space, InitSpec(seed=5))
        out[name] = (space, batch, teacher.activations(batch.images, batch.labels))
    return out


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(FINITE_SPACES)), seed=st.integers(0, 2**32 - 1))
def test_proxies_finite_for_sampled_descriptors(finite_teachers, name, seed):
    space, batch, teacher_bundle = finite_teachers[name]
    desc = sample_random(space, stream(seed, 0))
    net = NetworkInstance(desc, space, InitSpec(seed=seed))
    bundle = net.activations(batch.images, batch.labels)
    assert np.isfinite(diswot_score_from_bundles(teacher_bundle, bundle))
    assert np.isfinite(nwot_from_codes(net.relu_codes(batch.images)))
    assert np.isfinite(kd_distance("cc", teacher_bundle, bundle))


# ---------------------------------------------------------------------------
# prefix cache

# The stage ends of any s0 network at batch 2, without kernels:
# 16 x 32^2, 32 x 16^2 and 64 x 8^2 floats per sample.
S0_STAGE_END_BYTES = 2 * 8 * (16 * 32**2 + 32 * 16**2 + 64 * 8**2)


def _bundle_bytes(bundle) -> list[bytes]:
    return [bundle.penultimate_features.tobytes(), bundle.pre_gap_map.tobytes(),
            bundle.logits.tobytes(), bundle.fc_weight.tobytes(), bundle.fc_weight_grad.tobytes()]


def _arch_list(space, seed: int, size: int) -> list:
    """Random descriptors, each a fresh draw, a repeat or a neighbour of an earlier one.

    Neighbours thus share plan prefixes. Most steps take the one before;
    some go back to any earlier one, so a cache that keeps several networks
    meets a network it held a while ago, or a neighbour of it. A neighbour
    is a one-locus mutant or, for S0 and S2, the same network with its last
    stage one block deeper, whose plan extends the other one past an
    interior block boundary. An S2 mutant may instead flip one stage's
    stride between 1 and 2, which leaves every op record of the two plans
    equal except for stride and spatial size.
    """
    rng = stream(seed, 1)
    descs = [sample_descriptor(space, rng)]
    while len(descs) < size:
        last = descs[-1]
        kind = int(rng.integers(6))
        if kind == 5:
            last = descs[int(rng.integers(len(descs)))]
            kind = int(rng.integers(1, 5))
        if kind == 0:
            descs.append(sample_descriptor(space, rng))
        elif kind == 1:
            descs.append(last)
        elif kind == 2 and isinstance(last, S0Depths):
            descs.append(S0Depths(*last.depths[:-1], last.depths[-1] + 1))
        elif kind == 2 and isinstance(last, S2Config):
            stages = list(last.stages)
            stages[-1] = replace(stages[-1], depth=stages[-1].depth + 1)
            descs.append(S2Config(last.stem_channels, tuple(stages)))
        elif kind in (2, 3) or not isinstance(last, S2Config):
            descs.append(mutate(last, space, rng))
        else:
            i = int(rng.integers(len(last.stages)))
            stages = list(last.stages)
            stages[i] = replace(stages[i], stride=3 - stages[i].stride)
            descs.append(S2Config(last.stem_channels, tuple(stages)))
    return descs


def _assert_checkpoints_bounded(cache, net, stage_ends: set):
    """Check the cache after a forward of net.

    stage_ends collects the stage-end prefixes of every plan run through
    the cache so far; each key the cache holds is one of them. The bytes the
    checkpoints hold, kernels included, are at most cache.max_bytes unless
    net's stage-end bytes from its plan's shapes and a kernel at each exceed
    it. With max_bytes=0 the cache holds exactly net's stage ends.
    """
    own = {net.plan.ops[:i + 1] for i in net.plan.stage_ends}
    stage_ends |= own
    assert set(cache._store) <= stage_ends
    held = sum(cp.tensor.nbytes + (0 if cp.kernel is None else cp.kernel.nbytes) for cp in cache._store.values())
    b = cache.images.shape[0]
    own_bytes = sum(b * t + b * b * 8 for t in net.plan.stage_ends.values())
    assert held <= max(own_bytes, cache.max_bytes)
    if cache.max_bytes == 0:
        assert set(cache._store) == own


# The seed is the one derandomize=True drew from this test's source before
# it was pinned, so editing the body no longer redraws the 25 examples.
@seed(14398902006772374371268460888374381327864804436131146947144166871105461728813194230652728245118651275617996930846339)
@settings(max_examples=25, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(FINITE_SPACES)), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 4),
    calls=st.lists(st.sampled_from(["activations", "relu_codes", "both", "codes_first"]), min_size=12, max_size=12),
)
def test_prefix_cache_matches_fresh_networks(names, seed, size, calls):
    # One cache serves runs of descriptors from several spaces, so conv i
    # of one network meets conv i of a network from another space, of the
    # same or another shape. Each run goes through a cache of the last
    # network and through one with room for about three s0 networks.
    spaces = [FINITE_SPACES[name]() for name in names]
    num_classes = min(space.num_classes for space in spaces)
    batch = synth_batch(2, 3, 32, 32, num_classes, seed=seed % 7)
    init = InitSpec(seed=seed % 5)
    archs = [(space, desc) for k, space in enumerate(spaces) for desc in _arch_list(space, seed + k, size)]
    # A network holds no weight: each is drawn in the forward that uses it and
    # dropped after it, so the bundle bytes include the classifier weight.
    fresh = {}  # (space, desc, "a" | "c") -> bytes of a network run without a cache

    def reference(space, desc, what):
        if (space, desc, what) not in fresh:
            net = NetworkInstance(desc, space, init)
            fresh[space, desc, what] = (
                _bundle_bytes(net.activations(batch.images, batch.labels)) if what == "a"
                else net.relu_codes(batch.images).tobytes()
            )
        return fresh[space, desc, what]

    for max_bytes in (0, 3 * S0_STAGE_END_BYTES):
        cache = PrefixCache(batch.images, init, max_bytes)
        stage_ends = set()
        for (space, desc), call in zip(archs, calls):
            net = NetworkInstance(desc, space, init)
            order = {"activations": ["a"], "relu_codes": ["c"], "both": ["a", "c"], "codes_first": ["c", "a"]}[call]
            for step in order:
                if step == "a":
                    got = _bundle_bytes(net.activations(batch.images, batch.labels, cache=cache))
                else:
                    got = net.relu_codes(batch.images, cache=cache).tobytes()
                assert got == reference(space, desc, step)
                _assert_checkpoints_bounded(cache, net, stage_ends)


@pytest.mark.parametrize("batch_size", [2, 3])
@pytest.mark.parametrize("name", sorted(FINITE_SPACES))
def test_planned_stage_end_bytes_match_the_checkpoints(name, batch_size):
    # The cache makes room before a forward from the stage-end sizes that
    # the Plan derives from the op records; each checkpoint the forward then
    # stores holds exactly that many bytes, plus B * B * 8 bytes of kernel
    # when it counts.
    space = FINITE_SPACES[name]()
    batch = synth_batch(batch_size, 3, space.input_hw, space.input_hw, space.num_classes, seed=0)
    init = InitSpec(seed=0)
    rng = stream(6, 0)
    for _ in range(4):
        net = NetworkInstance(sample_random(space, rng), space, init)
        for record in (False, True):
            cache = PrefixCache(batch.images, init)
            if record:
                net.relu_codes(batch.images, cache=cache)
            else:
                net.activations(batch.images, batch.labels, cache=cache)
            planned = {net.plan.ops[:i + 1]: batch_size * t + (batch_size**2 * 8 if record else 0)
                       for i, t in net.plan.stage_ends.items()}
            assert {key: cp.nbytes for key, cp in cache._store.items()} == planned


def test_score_all_s0_runs_the_trie_minimum(monkeypatch, tmp_path):
    # In lexicographic order each student resumes from the network before
    # it at the deepest block boundary their plans share, so the 64
    # students run the 315 convs of their prefix trie; the teacher (7-7-7)
    # runs 45. Each conv that runs draws its weight once: 9 601 120 normals.
    # Drawing every conv of every student instead takes 20 088 688.
    convs, normals = [], []
    conv2d, init_tensor = network.conv2d, network.init_tensor
    monkeypatch.setattr(network, "conv2d", lambda *a: convs.append(1) or conv2d(*a))
    monkeypatch.setattr(network, "init_tensor", lambda shape, *a: normals.append(math.prod(shape)) or init_tensor(shape, *a))
    code = cli.main(["score", "--space", "s0", "--all-s0", "--proxy", "diswot", "--proxy", "nwot",
                     "--batch-size", "4", "--jobs", "1", "--seed", "0", "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert len(convs) == 360
    assert sum(normals) == 9_601_120


def test_forward_draws_the_weights_of_the_ops_it_runs(monkeypatch, tmp_path):
    # Each conv draws its weight where it runs, and the classifier weight is
    # drawn only by activations: nwot reads codes alone, so it draws none.
    calls = Counter()
    for name in ("conv2d", "init_tensor"):
        def counted(*args, _fn=getattr(network, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(network, name, counted)
    assert cli.main(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot", "--batch-size", "2",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert calls["init_tensor"] == calls["conv2d"] == 9


@pytest.fixture
def s0_batch():
    return synth_batch(2, 3, 32, 32, s0_space().num_classes, seed=0)


@pytest.fixture
def conv_count(monkeypatch, s0_batch):
    """conv_count(desc, method, cache): the convs one forward of a new s0 network on s0_batch runs."""
    space, batch = s0_space(), s0_batch
    convs = []
    conv2d = network.conv2d
    monkeypatch.setattr(network, "conv2d", lambda x, w, *a: convs.append(w.shape) or conv2d(x, w, *a))

    def count(desc, method, cache):
        convs.clear()
        net = NetworkInstance(desc, space, InitSpec(seed=0))
        if method == "activations":
            net.activations(batch.images, batch.labels, cache=cache)
        else:
            net.relu_codes(batch.images, cache=cache)
        return len(convs)

    return count


def test_prefix_cache_runs_only_unshared_ops(conv_count, s0_batch):
    init = InitSpec(seed=0)
    # The stem is one conv, a block two, plus a shortcut in the first block
    # of stages 2 and 3: 3-1-1 has 1 + 6 + 3 + 3 = 13.
    assert conv_count(S0Depths(3, 1, 1), "activations", None) == 13
    cache = PrefixCache(s0_batch.images, init)
    assert conv_count(S0Depths(3, 1, 1), "relu_codes", cache) == 13
    assert conv_count(S0Depths(3, 1, 1), "activations", cache) == 0  # a full hit
    # 3-1-1 ends after the first stage-3 block of 3-1-3, a block boundary,
    # so 3-1-3 runs its last two blocks only; 3-1-5 in turn resumes from
    # the end of 3-1-3.
    assert conv_count(S0Depths(3, 1, 3), "relu_codes", cache) == 4
    assert conv_count(S0Depths(3, 1, 5), "relu_codes", cache) == 4
    # 3-3-1 shares stage 1 and the first stage-2 block with 3-1-5.
    assert conv_count(S0Depths(3, 3, 1), "activations", cache) == 7
    assert conv_count(S0Depths(1, 3, 1), "activations", cache) == 13  # no shared block boundary kept
    # 3-3-1 resumes after the first stage-1 block, where 1-3-1's stage 1
    # ends; 5-3-1 resumes where 3-3-1's stage 1 ends.
    assert conv_count(S0Depths(3, 3, 1), "activations", cache) == 14
    assert conv_count(S0Depths(5, 3, 1), "activations", cache) == 14
    # activations counts nothing, so relu_codes after it runs again.
    plain = PrefixCache(s0_batch.images, init)
    assert conv_count(S0Depths(3, 1, 1), "activations", plain) == 13
    assert conv_count(S0Depths(3, 1, 1), "relu_codes", plain) == 13
    assert conv_count(S0Depths(3, 1, 1), "activations", plain) == 0


@pytest.mark.parametrize("max_bytes,child,again", [
    (0, 34, 3),
    (1, 34, 3),
    (2 * S0_STAGE_END_BYTES, 4, 0),
])
def test_prefix_cache_keeps_the_last_networks(conv_count, s0_batch, max_bytes, child, again):
    # 7-7-1 runs 1 + 14 + 15 + 3 convs. 1-1-1 shares only the stem and the
    # first block with it, and 7-7-1 holds no checkpoint there, so it runs
    # all 9 of its own. 7-7-3, a neighbour of 7-7-1, resumes from the end
    # of 7-7-1 when the cache still holds it, and runs two blocks. A cache
    # of one network holds only the stage ends of 1-1-1, so 7-7-3 resumes
    # after its first block, where the first stage of 1-1-1 ends. Resuming
    # made the end of 7-7-1 the most recently used checkpoint, so to make
    # room for 7-7-3 the cache of two networks drops a stage end of 1-1-1
    # instead, and 7-7-1 is then a full hit; the cache of one resumes it
    # where its stage 2 ends. A budget below one network's stage ends keeps
    # one network, like a budget of 0.
    cache = PrefixCache(s0_batch.images, InitSpec(seed=0), max_bytes)
    assert conv_count(S0Depths(7, 7, 1), "activations", cache) == 33
    assert conv_count(S0Depths(1, 1, 1), "activations", cache) == 9
    assert conv_count(S0Depths(7, 7, 3), "activations", cache) == child
    assert conv_count(S0Depths(7, 7, 1), "activations", cache) == again


def test_prefix_cache_rejects_other_images_or_init():
    space = s0_space()
    batch = synth_batch(2, 3, 32, 32, space.num_classes, seed=0)
    init = InitSpec(seed=0)
    cache = PrefixCache(batch.images, init)
    net = NetworkInstance(S0Depths(1, 1, 1), space, init)
    net.activations(batch.images, batch.labels, cache=cache)
    with pytest.raises(ValueError, match="PrefixCache"):
        net.activations(batch.images.copy(), batch.labels, cache=cache)
    with pytest.raises(ValueError, match="PrefixCache"):
        net.relu_codes(batch.images.copy(), cache=cache)
    other = NetworkInstance(S0Depths(1, 1, 1), space, InitSpec(seed=1))
    with pytest.raises(ValueError, match="PrefixCache"):
        other.activations(batch.images, batch.labels, cache=cache)

