"""Network building, parameter/FLOP accounting, and forward-pass tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diswot.arch import (
    Constraints,
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
    with_constraints,
)
from diswot.data import synth_batch
from diswot.metrics import diswot_score_from_bundles, kd_distance, nwot_score
from diswot.network import (
    NetworkInstance,
    count_flops,
    count_params,
    sample_random,
    satisfies_constraints,
)
from diswot.rng import InitSpec, stream

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
        total = sum(w.size for _, w in net.named_weights())
        assert total == count_params(desc, space)


def test_param_count_matches_built_weights_s2():
    space = s2_cifar_space()
    rng = stream(17, 0)
    init = InitSpec(seed=0)
    for _ in range(50):
        desc = sample_random(space, rng)
        net = NetworkInstance(desc, space, init)
        total = sum(w.size for _, w in net.named_weights())
        assert total == count_params(desc, space)


def test_param_count_matches_built_weights_nb201():
    space = nb201_space()
    init = InitSpec(seed=0)
    rng = stream(18, 0)
    for _ in range(10):
        desc = sample_random(space, rng)
        net = NetworkInstance(desc, space, init)
        total = sum(w.size for _, w in net.named_weights())
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
    f32 = count_flops(d, space, input_shape=(3, 32, 32))
    f64 = count_flops(d, space, input_shape=(3, 64, 64))
    # FC contributes the same in both; conv part quadruples
    fc = 2 * 100 * 64
    assert f64 - fc == 4 * (f32 - fc)


def test_flops_monotone_in_depth():
    space = s0_space()
    vals = [count_flops(S0Depths(d, d, d), space) for d in (1, 3, 5, 7)]
    assert vals == sorted(vals)
    assert len(set(vals)) == 4


def test_flops_batch_multiplies():
    space = s0_space()
    d = S0Depths(1, 1, 1)
    f1 = count_flops(d, space)
    f8 = count_flops(d, space, input_shape=(8, 3, 32, 32))
    assert f8 == 8 * f1


# ---------------------------------------------------------------------------
# builds and forwards


def test_s0_forward_shape():
    net = NetworkInstance(S0Depths(3, 3, 3), s0_space(), InitSpec(seed=0))
    batch = synth_batch(4, 3, 32, 32, 100, seed=0)
    logits = net.forward(batch.images)
    assert logits.shape == (4, 100)
    assert np.isfinite(logits).all()


def test_builder_determinism():
    space = s0_space()
    batch = synth_batch(4, 3, 32, 32, 100, seed=1)
    a = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=7)).forward(batch.images)
    b = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=7)).forward(batch.images)
    np.testing.assert_array_equal(a, b)
    c = NetworkInstance(S0Depths(1, 3, 5), space, InitSpec(seed=8)).forward(batch.images)
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
    out = net.forward(synth_batch(2, 3, 32, 32, 10, seed=3).images)
    assert out.shape == (2, 10)
    assert np.isfinite(out).all()


def test_nb201_none_op_still_forwards():
    space = nb201_space()
    cell = parse_nb201(
        "|none~0|+|none~0|none~1|+|nor_conv_1x1~0|none~1|none~2|"
    )
    net = NetworkInstance(cell, space, InitSpec(seed=0))
    out = net.forward(synth_batch(2, 3, 32, 32, 10, seed=4).images)
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
    codes = net.relu_codes(batch.images)
    assert codes.dtype == bool
    assert codes.shape[0] == 4
    assert codes.shape[1] > 0


# ---------------------------------------------------------------------------
# constraints


def test_satisfies_constraints_params():
    space = with_constraints(s0_space(), Constraints(max_params=260_000))
    assert satisfies_constraints(S0Depths(7, 1, 3), space)      # 259.89 K
    assert not satisfies_constraints(S0Depths(3, 3, 3), space)  # 278.32 K


def test_constrained_sampling_never_violates():
    space = with_constraints(s0_space(), Constraints(max_params=260_000))
    rng = stream(4, 0)
    for _ in range(200):
        desc = sample_random(space, rng)
        assert count_params(desc, space) <= 260_000
        assert desc != S0Depths(3, 3, 3)


def test_max_depth_constraint():
    space = with_constraints(s0_space(), Constraints(max_depth=5))
    assert satisfies_constraints(S0Depths(1, 1, 3), space)
    assert not satisfies_constraints(S0Depths(3, 3, 1), space)


def test_unsatisfiable_constraints_raise():
    space = with_constraints(s0_space(), Constraints(max_params=1))
    with pytest.raises(RuntimeError):
        sample_random(space, stream(0, 0))


def test_teacher_template_larger_than_space():
    space = s0_space()
    teacher = S0Depths(18, 18, 18)
    n = count_params(teacher, space)
    assert n > count_params(max_descriptor(space), space)
    net = NetworkInstance(teacher, space, InitSpec(seed=0))
    out = net.forward(synth_batch(2, 3, 32, 32, 100, seed=7).images)
    assert out.shape == (2, 100)


# ---------------------------------------------------------------------------
# exact outputs and memory


def _s2(*stages):
    return S2Config(16, tuple(S2Stage(*st) for st in stages))


# (diswot, nwot, cc, params, flops) at batch 4, seed 0, against the space's
# max descriptor as teacher. Recorded with the earlier nested layer-object
# network code, so they pin the op plan to the same weight-stream order,
# ReLU-code order and cell summation order.
EXACT = [
    (s0_space, S0Depths(1, 3, 5),
     (-0.020646710272948544, 45.979143821444936, -0.12928238923979762, 416948, 326551552)),
    (nb201_space, parse_nb201("|none~0|+|skip_connect~0|avg_pool_3x3~1|+|nor_conv_1x1~0|nor_conv_3x3~1|none~2|"),
     (-0.12881991433501466, 44.988689124518416, -0.03100511140565368, 181914, 188093440)),
    (nb201_space, parse_nb201("|skip_connect~0|+|nor_conv_3x3~0|none~1|+|avg_pool_3x3~0|skip_connect~1|nor_conv_1x1~2|"),
     (-0.1291257568086392, 46.19006109650968, -0.16782076007378816, 181914, 188093440)),
    (nb201_space, parse_nb201("|avg_pool_3x3~0|+|none~0|nor_conv_1x1~1|+|skip_connect~0|avg_pool_3x3~1|skip_connect~2|"),
     (-0.1186339233345251, 43.68452851208152, -0.04796165262071144, 84698, 74847232)),
    (s2_cifar_space, _s2(("basic", 3, 16, 1, 1), ("basic", 3, 32, 1, 2), ("basic", 5, 32, 1, 1),
                         ("basic", 3, 64, 1, 2), ("basic", 3, 64, 1, 2), ("basic", 7, 128, 1, 1)),
     (-0.14119504284072704, 44.61208117534215, -0.008915025694162979, 1421402, 370026496)),
    (s2_cifar_space, _s2(("bottleneck", 3, 16, 2, 1), ("basic", 5, 24, 1, 2), ("bottleneck", 3, 32, 1, 1),
                         ("bottleneck", 7, 48, 1, 2), ("basic", 3, 64, 2, 2), ("bottleneck", 5, 96, 1, 1)),
     (-0.14909591842786182, 45.46462553283066, -0.031490036282239495, 206314, 97476096)),
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
            diswot_score_from_bundles(teachers[make_space], bundle).value,
            nwot_score(net, batch).value,
            kd_distance("cc", teachers[make_space], bundle).value,
            count_params(desc, space),
            count_flops(desc, space, (4, 3, 32, 32)),
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
