"""Descriptor, space, parsing, and mutation tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diswot.arch import (
    NB201Cell,
    NB201_OPS,
    S0_DEPTH_CHOICES,
    S2_BLOCK_KINDS,
    S2_KERNEL_CHOICES,
    S0Depths,
    S2Config,
    S2Stage,
    arch_id,
    clamp_channels,
    descriptor_from_json,
    descriptor_in_space,
    descriptor_to_json,
    enumerate_s0,
    make_space,
    max_descriptor,
    mutate,
    nb201_space,
    parse_nb201,
    s0_space,
    s2_cifar_space,
    s2_imagenet_space,
    sample_descriptor,
    serialize_nb201,
)
from diswot.rng import stream

# Assorted cell strings covering every op, mixed source indices, and
# repeated ops; round-tripping these exercises the full grammar.
ROUND_TRIP_STRINGS = [
    "|skip_connect~0|+|nor_conv_3x3~0|skip_connect~1|+|nor_conv_3x3~0|nor_conv_1x1~1|avg_pool_3x3~2|",
    "|skip_connect~0|+|avg_pool_3x3~0|skip_connect~1|+|avg_pool_3x3~0|skip_connect~1|skip_connect~2|",
    "|nor_conv_3x3~0|+|skip_connect~0|skip_connect~1|+|skip_connect~0|skip_connect~1|avg_pool_3x3~2|",
    "|skip_connect~0|+|nor_conv_1x1~0|nor_conv_3x3~1|+|nor_conv_1x1~0|avg_pool_3x3~1|nor_conv_3x3~2|",
    "|skip_connect~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|skip_connect~0|skip_connect~1|nor_conv_3x3~2|",
    "|nor_conv_1x1~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_1x1~2|",
    "|skip_connect~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_3x3~2|",
]


# ---------------------------------------------------------------------------
# S0


def test_enumerate_s0_is_complete_and_ordered():
    all64 = enumerate_s0()
    assert len(all64) == 64
    assert len(set(all64)) == 64
    triples = [d.depths for d in all64]
    assert triples == sorted(triples)
    assert triples[0] == (1, 1, 1)
    assert triples[-1] == (7, 7, 7)


def test_s0_depths_allow_teacher_configs():
    # network templates outside the searched depth set still construct
    t = S0Depths(9, 9, 9)
    assert t.depths == (9, 9, 9)
    assert not descriptor_in_space(t, s0_space())
    assert descriptor_in_space(S0Depths(3, 5, 7), s0_space())
    with pytest.raises(ValueError):
        S0Depths(0, 1, 1)


def test_s0_arch_id():
    assert arch_id(S0Depths(3, 5, 7)) == "3-5-7"


# ---------------------------------------------------------------------------
# NB201 grammar


@pytest.mark.parametrize("s", ROUND_TRIP_STRINGS)
def test_nb201_round_trip_byte_identical(s):
    assert serialize_nb201(parse_nb201(s)) == s


def test_nb201_parse_then_serialize_all_skip():
    s = "|skip_connect~0|+|skip_connect~0|skip_connect~1|+|skip_connect~0|skip_connect~1|skip_connect~2|"
    cell = parse_nb201(s)
    assert cell.ops == ("skip_connect",) * 6
    assert serialize_nb201(cell) == s


def test_nb201_unknown_op_rejected():
    s = "|foo_conv~0|+|skip_connect~0|skip_connect~1|+|skip_connect~0|skip_connect~1|skip_connect~2|"
    with pytest.raises(ValueError, match="foo_conv"):
        parse_nb201(s)


def test_nb201_wrong_source_index_rejected():
    s = "|skip_connect~1|+|skip_connect~0|skip_connect~1|+|skip_connect~0|skip_connect~1|skip_connect~2|"
    with pytest.raises(ValueError, match="skip_connect~1"):
        parse_nb201(s)


def test_nb201_wrong_edge_count_rejected():
    s = "|skip_connect~0|+|skip_connect~0|+|skip_connect~0|skip_connect~1|skip_connect~2|"
    with pytest.raises(ValueError):
        parse_nb201(s)


def test_nb201_cell_validation():
    with pytest.raises(ValueError):
        NB201Cell(("skip_connect",) * 5)
    with pytest.raises(ValueError):
        NB201Cell(("bad_op",) + ("skip_connect",) * 5)


def test_nb201_arch_id_is_the_string():
    s = ROUND_TRIP_STRINGS[0]
    assert arch_id(parse_nb201(s)) == s


# ---------------------------------------------------------------------------
# S2


def test_clamp_channels():
    assert clamp_channels(96 * 1.25) == 120
    assert clamp_channels(96 * 0.67) == 64   # 64.32 rounds down
    assert clamp_channels(3) == 8
    assert clamp_channels(5000) == 2048
    assert clamp_channels(20) == 24          # half-way rounds up


def test_s2_stage_validation():
    S2Stage("basic", 3, 16, 1, 1)
    with pytest.raises(ValueError):
        S2Stage("basic", 4, 16, 1, 1)
    with pytest.raises(ValueError):
        S2Stage("basic", 3, 12, 1, 1)  # not divisible by 8
    with pytest.raises(ValueError):
        S2Stage("basic", 3, 16, 0, 1)
    with pytest.raises(ValueError):
        S2Stage("basic", 3, 16, 1, 3)


def test_s2_spaces_have_table_shapes():
    cifar = s2_cifar_space()
    assert cifar.s2_strides == (1, 2, 1, 2, 2, 1)
    assert cifar.num_classes == 10
    imagenet = s2_imagenet_space()
    assert imagenet.s2_strides == (2, 2, 2, 2)
    assert imagenet.num_classes == 1000


def test_s2_sampling_respects_template():
    space = s2_cifar_space()
    rng = stream(11, 0)
    for _ in range(50):
        desc = sample_descriptor(space, rng)
        assert isinstance(desc, S2Config)
        assert len(desc.stages) == 6
        assert descriptor_in_space(desc, space)
        for st, stride in zip(desc.stages, space.s2_strides):
            assert st.stride == stride
            assert st.channels % 8 == 0
            assert 8 <= st.channels <= 2048
            assert st.kernel in (3, 5, 7)
            assert 1 <= st.depth <= 3


# ---------------------------------------------------------------------------
# mutation


def test_s0_mutation_changes_at_most_one_stage():
    space = s0_space()
    rng = stream(0, 1)
    parent = S0Depths(3, 5, 7)
    for _ in range(200):
        child = mutate(parent, space, rng)
        diffs = sum(a != b for a, b in zip(parent.depths, child.depths))
        assert diffs <= 1
        assert all(d in (1, 3, 5, 7) for d in child.depths)


@pytest.mark.parametrize("kind", ["s0", "nb201", "s2_cifar"])
def test_mutation_closure(kind):
    space = make_space(kind)
    rng = stream(99, hash(kind) & 0xFFFF)
    desc = sample_descriptor(space, rng)
    for _ in range(2500):
        desc = mutate(desc, space, rng)
        assert descriptor_in_space(desc, space)
    if kind == "nb201":
        assert serialize_nb201(parse_nb201(serialize_nb201(desc))) == serialize_nb201(desc)


def test_mutation_determinism():
    space = s0_space()
    parent = S0Depths(1, 3, 5)
    a = mutate(parent, space, stream(5, 2))
    b = mutate(parent, space, stream(5, 2))
    assert a == b


# ---------------------------------------------------------------------------
# spaces, constraints, JSON


def test_make_space_kinds():
    for kind in ("s0", "nb201", "s2_cifar", "s2_imagenet"):
        assert make_space(kind).kind == kind
    with pytest.raises(ValueError):
        make_space("s1")


def test_s0_space_template():
    space = s0_space()
    assert space.num_classes == 100
    assert space.stem_channels == 16
    assert space.stage_channels == (16, 32, 64)


def test_max_descriptor():
    assert max_descriptor(s0_space()) == S0Depths(7, 7, 7)
    cell = max_descriptor(nb201_space())
    assert cell.ops == ("nor_conv_3x3",) * 6
    big = max_descriptor(s2_cifar_space())
    assert all(st.depth == 3 and st.kernel == 7 for st in big.stages)


def test_json_round_trip_all_spaces():
    cases = [
        (s0_space(), S0Depths(1, 7, 3)),
        (nb201_space(), parse_nb201(ROUND_TRIP_STRINGS[3])),
        (s2_cifar_space(), sample_descriptor(s2_cifar_space(), stream(1, 1))),
    ]
    for space, desc in cases:
        blob = json.dumps(descriptor_to_json(desc, space))
        kind, back = descriptor_from_json(json.loads(blob))
        assert kind == space.kind
        assert back == desc



# One fixed two-stage S2 config and its JSON form, key order included.
S2_PAIR = S2Config(16, (S2Stage("basic", 3, 24, 2, 1), S2Stage("bottleneck", 7, 48, 1, 2)))
S2_PAIR_JSON = {
    "space": "s2_cifar",
    "desc": {
        "stem_channels": 16,
        "stages": [
            {"block": "basic", "kernel": 3, "channels": 24, "depth": 2, "stride": 1},
            {"block": "bottleneck", "kernel": 7, "channels": 48, "depth": 1, "stride": 2},
        ],
    },
}


def test_s2_json_form_is_pinned():
    got = descriptor_to_json(S2_PAIR, s2_cifar_space())
    assert got == S2_PAIR_JSON
    assert json.dumps(got) == json.dumps(S2_PAIR_JSON)
    assert descriptor_from_json(S2_PAIR_JSON) == ("s2_cifar", S2_PAIR)


@pytest.mark.parametrize("stage,field", [
    ({"block": "basic", "kernel": 3, "channels": 24, "depth": 2}, "'stride'"),
    ({"block": "basic", "kernel": "three", "channels": 24, "depth": 2, "stride": 1}, "kernel"),
    ({"block": "basic", "kernel": 3.7, "channels": 24, "depth": 2, "stride": 1}, "kernel"),
    ({"block": "basic", "kernel": 3, "channels": 24, "depth": True, "stride": 1}, "depth"),
    ({"block": "basic", "kernel": 3, "channels": 24, "depth": 2, "stride": 1, "groups": 2}, "'groups'"),
], ids=["missing-stride", "non-integer-kernel", "float-kernel", "bool-depth", "unknown-key"])
def test_s2_json_bad_stage_raises_value_error(stage, field):
    obj = {"space": "s2_cifar", "desc": {"stem_channels": 16, "stages": [stage]}}
    with pytest.raises(ValueError, match=field):
        descriptor_from_json(obj)


# Near-valid JSON forms: each field is a valid value or any other JSON
# scalar, and each object may carry an extra key.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(-3, 9), st.text(max_size=3))


def _maybe(valid):
    return st.one_of(valid, _SCALARS)


def _object(required):
    return st.fixed_dictionaries(required, optional={"extra": _SCALARS})


_S2_STAGE = _object({
    "block": _maybe(st.sampled_from(S2_BLOCK_KINDS)),
    "kernel": _maybe(st.sampled_from(S2_KERNEL_CHOICES)),
    "channels": _maybe(st.sampled_from((16, 24, 64))),
    "depth": _maybe(st.integers(1, 3)),
    "stride": _maybe(st.sampled_from((1, 2))),
})
_CELLS = st.tuples(*[st.sampled_from(NB201_OPS)] * 6).map(lambda ops: serialize_nb201(NB201Cell(ops)))
_ARCH_JSON = st.one_of(
    _object({"space": st.just("s0"), "desc": st.lists(_maybe(st.sampled_from(S0_DEPTH_CHOICES)), min_size=3, max_size=3)}),
    _object({"space": st.just("nb201"), "desc": st.one_of(_CELLS, _CELLS.map(lambda c: c + " "), _SCALARS)}),
    _object({
        "space": st.sampled_from(("s2_cifar", "s2_imagenet")),
        "desc": _object({"stem_channels": _maybe(st.just(16)), "stages": st.lists(_S2_STAGE, min_size=1, max_size=3)}),
    }),
)


@settings(max_examples=300, deadline=None)
@given(obj=_ARCH_JSON)
def test_descriptor_from_json_reads_only_what_it_writes(obj):
    # An input is either read as the one descriptor whose JSON form it is,
    # byte for byte (so no float, bool or unknown key is dropped or
    # coerced), or rejected with ValueError.
    try:
        kind, desc = descriptor_from_json(obj)
    except ValueError:
        return
    assert json.dumps(descriptor_to_json(desc, make_space(kind)), sort_keys=True) == json.dumps(obj, sort_keys=True)

def test_sample_descriptor_reproducible():
    space = nb201_space()
    a = sample_descriptor(space, stream(21, 0))
    b = sample_descriptor(space, stream(21, 0))
    assert a == b
