"""Seeded stream and weight-init tests."""

import re
import tracemalloc

import numpy as np
import pytest

from diswot.arch import s0_space
from diswot.rng import InitSpec, derive_seed, fan_in, init_tensor, stream
from diswot.search import random_search


def test_stream_determinism():
    a = stream(42, 7).standard_normal(16)
    b = stream(42, 7).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    a = stream(42, 0).standard_normal(16)
    b = stream(42, 1).standard_normal(16)
    assert not np.array_equal(a, b)
    c = stream(43, 0).standard_normal(16)
    assert not np.array_equal(a, c)


def test_derive_seed_reproducible_and_spread():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    children = {derive_seed(5, i) for i in range(64)}
    assert len(children) == 64


@pytest.mark.parametrize("call,named", [
    (lambda: derive_seed(-1, 5), "seed -1"),
    (lambda: stream(0, 2**64), f"stream id {2**64}"),
    (lambda: init_tensor((4, 3), InitSpec(seed=-1), 0), "seed -1"),
    (lambda: random_search(s0_space(), lambda desc: 0.0, 1, seed=2**64), f"seed {2**64}"),
], ids=["derive_seed", "stream", "init_tensor", "random_search"])
def test_keys_outside_64_bits_are_rejected(call, named):
    # Masked to 64 bits, derive_seed(-1, 5) would equal derive_seed(2**64 - 1, 5).
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_fan_in():
    assert fan_in((16, 3, 3, 3)) == 27
    assert fan_in((100, 64)) == 64
    with pytest.raises(ValueError):
        fan_in((10,))


def test_init_tensor_determinism_and_streams():
    spec = InitSpec(seed=3)
    a = init_tensor((8, 4, 3, 3), spec, stream_id=0)
    b = init_tensor((8, 4, 3, 3), spec, stream_id=0)
    np.testing.assert_array_equal(a, b)
    c = init_tensor((8, 4, 3, 3), spec, stream_id=1)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec", [InitSpec(seed=7), InitSpec(scheme="gaussian", gaussian_std=0.3, seed=7)])
def test_init_tensor_scales_in_place(spec):
    for i, shape in enumerate([(16, 3, 3, 3), (64, 32, 1, 1), (10, 64), (256, 256, 3, 3)]):
        std = np.sqrt(2.0 / fan_in(shape)) if spec.scheme == "kaiming" else spec.gaussian_std
        want = stream(spec.seed, i).standard_normal(shape, dtype=np.float64) * std
        tracemalloc.start()
        try:
            got = init_tensor(shape, spec, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 1.5 * got.nbytes + 4096  # one array, not the draw and its scaled copy


def test_kaiming_std():
    spec = InitSpec(scheme="kaiming", seed=0)
    # fan_in = 1*3*3 = 9 with ~1e5 elements
    t = init_tensor((12346, 1, 3, 3), spec, stream_id=5)
    target = np.sqrt(2.0 / 9.0)
    assert abs(t.std() - target) / target < 0.02
    assert abs(t.mean()) < 0.01


def test_gaussian_std():
    spec = InitSpec(scheme="gaussian", gaussian_std=0.1, seed=1)
    t = init_tensor((200, 500), spec, stream_id=2)
    assert abs(t.std() - 0.1) / 0.1 < 0.02


def test_init_spec_validation():
    with pytest.raises(ValueError):
        InitSpec(scheme="xavier")
    with pytest.raises(ValueError):
        InitSpec(gaussian_std=0.0)
