"""Architecture descriptors, search spaces, and the operations over them.

Three families of candidate networks are supported:

* "s0": CIFAR ResNet bodies described by three stage depths, each drawn
  from {1, 3, 5, 7} (64 candidates total).
* "nb201": a 4-node cell with 6 edges, each edge one of 5 operations,
  serialized in the pipe-delimited string format
  ``|op~0|+|op~0|op~1|+|op~0|op~1|op~2|``.
* "s2_cifar" / "s2_imagenet": staged residual configs where each stage has a
  block type, kernel size, channel width, and depth.

Descriptors are immutable values. Cost accounting and constraint checks live
in network.py (they need the built layer structure); everything here is pure
combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

S0_DEPTH_CHOICES = (1, 3, 5, 7)

NB201_OPS = ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3", "avg_pool_3x3")
# Cells in each of the three stages of the NB201 macro skeleton.
NB201_CELLS_PER_STAGE = 2

S2_BLOCK_KINDS = ("basic", "bottleneck")
S2_KERNEL_CHOICES = (3, 5, 7)
S2_WIDTH_SAMPLE_FACTORS = (0.67, 0.8, 1.0, 1.25, 1.5)
S2_WIDTH_MUTATION_FACTORS = (0.67, 0.8, 1.25, 1.5)
S2_CHANNEL_MIN = 8
S2_CHANNEL_MAX = 2048


@dataclass(frozen=True)
class S0Depths:
    """Stage depths of an S0 ResNet body.

    Depths outside {1,3,5,7} are structurally fine (teacher templates such as
    [9,9,9] or [18,18,18] use them); membership in the search space proper is
    checked by descriptor_in_space.
    """

    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        for d in (self.d1, self.d2, self.d3):
            if d < 1:
                raise ValueError(f"stage depths must be >= 1, got {self.depths}")

    @property
    def depths(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)


@dataclass(frozen=True)
class NB201Cell:
    """Operations on the 6 edges of the 4-node cell, in string order.

    That order is destination nodes 1, 2, 2, 3, 3, 3 with sources
    0 | 0, 1 | 0, 1, 2.
    """

    ops: tuple[str, ...]

    def __post_init__(self):
        if len(self.ops) != 6:
            raise ValueError(f"a cell has exactly 6 edges, got {len(self.ops)}")
        for op in self.ops:
            if op not in NB201_OPS:
                raise ValueError(f"unknown cell operation {op!r}")


@dataclass(frozen=True)
class S2Stage:
    block: str
    kernel: int
    channels: int
    depth: int
    stride: int

    def __post_init__(self):
        if self.block not in S2_BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.block!r}")
        if self.kernel not in S2_KERNEL_CHOICES:
            raise ValueError(f"kernel must be one of {S2_KERNEL_CHOICES}, got {self.kernel}")
        if self.channels % 8 != 0 or not S2_CHANNEL_MIN <= self.channels <= S2_CHANNEL_MAX:
            raise ValueError(
                f"channels must be a multiple of 8 in [{S2_CHANNEL_MIN}, {S2_CHANNEL_MAX}],"
                f" got {self.channels}"
            )
        if self.depth < 1:
            raise ValueError(f"stage depth must be >= 1, got {self.depth}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")


@dataclass(frozen=True)
class S2Config:
    stem_channels: int
    stages: tuple[S2Stage, ...]

    def __post_init__(self):
        if self.stem_channels < 1:
            raise ValueError("stem_channels must be >= 1")
        if not self.stages:
            raise ValueError("an S2 config needs at least one stage")


ArchDescriptor = S0Depths | NB201Cell | S2Config


@dataclass(frozen=True)
class Constraints:
    """Upper bounds a candidate must satisfy; None means unbounded.

    max_depth bounds the total block count across stages (for cells, the
    cell count plus the two reduction blocks).
    """

    max_params: int | None = None
    max_flops: int | None = None
    max_depth: int | None = None


@dataclass(frozen=True)
class SearchSpace:
    """A descriptor family plus the macro-skeleton template and constraints.

    Fields that do not apply to a kind keep their defaults: stage_channels
    is a cell-space/S0 thing, the s2_* fields describe the staged spaces'
    sampling domain.
    """

    kind: str
    num_classes: int
    input_hw: int
    stem_channels: int
    stage_channels: tuple[int, ...] = ()
    depth_choices: tuple[int, ...] = ()
    s2_strides: tuple[int, ...] = ()
    s2_base_channels: tuple[int, ...] = ()
    constraints: Constraints = Constraints()

    def __post_init__(self):
        if self.kind not in SPACE_FACTORIES:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")


def s0_space(num_classes: int = 100, constraints: Constraints = Constraints()) -> SearchSpace:
    return SearchSpace(
        kind="s0",
        num_classes=num_classes,
        input_hw=32,
        stem_channels=16,
        stage_channels=(16, 32, 64),
        depth_choices=S0_DEPTH_CHOICES,
        constraints=constraints,
    )


def nb201_space(num_classes: int = 10, constraints: Constraints = Constraints()) -> SearchSpace:
    return SearchSpace(
        kind="nb201",
        num_classes=num_classes,
        input_hw=32,
        stem_channels=16,
        stage_channels=(16, 32, 64),
        constraints=constraints,
    )


def s2_cifar_space(num_classes: int = 10, constraints: Constraints = Constraints()) -> SearchSpace:
    return SearchSpace(
        kind="s2_cifar",
        num_classes=num_classes,
        input_hw=32,
        stem_channels=16,
        depth_choices=(1, 2, 3),
        s2_strides=(1, 2, 1, 2, 2, 1),
        s2_base_channels=(16, 32, 32, 64, 64, 128),
        constraints=constraints,
    )


def s2_imagenet_space(num_classes: int = 1000, constraints: Constraints = Constraints()) -> SearchSpace:
    return SearchSpace(
        kind="s2_imagenet",
        num_classes=num_classes,
        input_hw=224,
        stem_channels=64,
        depth_choices=(1, 2, 3),
        s2_strides=(2, 2, 2, 2),
        s2_base_channels=(64, 128, 256, 512),
        constraints=constraints,
    )


# The one list of space kinds, in the order the CLI offers them.
SPACE_FACTORIES = {
    "s0": s0_space,
    "nb201": nb201_space,
    "s2_cifar": s2_cifar_space,
    "s2_imagenet": s2_imagenet_space,
}


def make_space(kind: str, **kwargs) -> SearchSpace:
    try:
        factory = SPACE_FACTORIES[kind]
    except KeyError:
        raise ValueError(f"unknown space kind {kind!r}") from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# NB201 string format


def parse_nb201(s: str) -> NB201Cell:
    """Parse ``|op~0|+|op~0|op~1|+|op~0|op~1|op~2|`` into a cell."""
    groups = s.split("+")
    if len(groups) != 3:
        raise ValueError(f"expected 3 '+'-separated node groups, got {len(groups)} in {s!r}")
    ops: list[str] = []
    for node, group in enumerate(groups, start=1):
        if len(group) < 2 or not (group.startswith("|") and group.endswith("|")):
            raise ValueError(f"node group {group!r} must be wrapped in '|'")
        tokens = group[1:-1].split("|")
        if len(tokens) != node:
            raise ValueError(f"node {node} needs {node} incoming edges, got {len(tokens)} in {group!r}")
        for want_src, token in enumerate(tokens):
            op, sep, src = token.partition("~")
            if not sep:
                raise ValueError(f"edge token {token!r} is missing '~'")
            if op not in NB201_OPS:
                raise ValueError(f"unknown operation in edge token {token!r}")
            if src != str(want_src):
                raise ValueError(f"edge token {token!r} must read from node {want_src}")
            ops.append(op)
    return NB201Cell(tuple(ops))


def serialize_nb201(cell: NB201Cell) -> str:
    it = iter(cell.ops)
    groups = []
    for node in (1, 2, 3):
        groups.append("|" + "|".join(f"{next(it)}~{src}" for src in range(node)) + "|")
    return "+".join(groups)


# ---------------------------------------------------------------------------
# Identity, membership, enumeration


def arch_id(desc: ArchDescriptor) -> str:
    """Stable one-line identifier used in CSV artifacts."""
    if isinstance(desc, S0Depths):
        return f"{desc.d1}-{desc.d2}-{desc.d3}"
    if isinstance(desc, NB201Cell):
        return serialize_nb201(desc)
    if isinstance(desc, S2Config):
        parts = [f"s2-{desc.stem_channels}"]
        for st in desc.stages:
            tag = "B" if st.block == "basic" else "N"
            parts.append(f"{tag}{st.kernel}c{st.channels}d{st.depth}s{st.stride}")
        return "-".join(parts)
    raise TypeError(f"not an architecture descriptor: {desc!r}")


def descriptor_in_space(desc: ArchDescriptor, space: SearchSpace) -> bool:
    """Structural membership (choice sets and templates), ignoring cost limits."""
    if space.kind == "s0":
        return isinstance(desc, S0Depths) and all(d in space.depth_choices for d in desc.depths)
    if space.kind == "nb201":
        return isinstance(desc, NB201Cell)
    if not isinstance(desc, S2Config):
        return False
    if desc.stem_channels != space.stem_channels:
        return False
    if len(desc.stages) != len(space.s2_strides):
        return False
    return all(st.stride == tpl for st, tpl in zip(desc.stages, space.s2_strides))


def block_count(desc: ArchDescriptor, space: SearchSpace) -> int:
    """Total residual-block/cell count, the unit of the max_depth constraint."""
    if isinstance(desc, S0Depths):
        return sum(desc.depths)
    if isinstance(desc, NB201Cell):
        return 3 * NB201_CELLS_PER_STAGE + 2
    return sum(st.depth for st in desc.stages)


def enumerate_s0() -> list[S0Depths]:
    """All 64 depth triples in lexicographic order."""
    return [
        S0Depths(a, b, c)
        for a in S0_DEPTH_CHOICES
        for b in S0_DEPTH_CHOICES
        for c in S0_DEPTH_CHOICES
    ]


def clamp_channels(raw: float) -> int:
    """Round to the nearest multiple of 8 (ties up) and clamp to [8, 2048]."""
    rounded = int(math.floor(raw / 8 + 0.5)) * 8
    return min(S2_CHANNEL_MAX, max(S2_CHANNEL_MIN, rounded))


def max_descriptor(space: SearchSpace) -> ArchDescriptor:
    """The largest member of the sampling domain, used as the default teacher."""
    return _extreme_descriptor(space, largest=True)


def min_descriptor(space: SearchSpace) -> ArchDescriptor:
    """The smallest member of the sampling domain: no member has fewer params, FLOPs or blocks."""
    return _extreme_descriptor(space, largest=False)


def _extreme_descriptor(space: SearchSpace, largest: bool) -> ArchDescriptor:
    """Take the largest or smallest of each locus's choices that sample_descriptor draws from.

    The cell op and the S2 block kind are not ordered by size, so they are
    named: a bottleneck block is the smaller kind, as its kxk conv runs at a
    quarter of the width (at least 8), between two 1x1 convs.
    """
    pick = max if largest else min
    if space.kind == "s0":
        return S0Depths(*(pick(space.depth_choices),) * 3)
    if space.kind == "nb201":
        return NB201Cell(("nor_conv_3x3" if largest else "none",) * 6)
    stages = tuple(
        S2Stage(
            block="basic" if largest else "bottleneck",
            kernel=pick(S2_KERNEL_CHOICES),
            channels=clamp_channels(base * pick(S2_WIDTH_SAMPLE_FACTORS)),
            depth=pick(space.depth_choices),
            stride=stride,
        )
        for base, stride in zip(space.s2_base_channels, space.s2_strides)
    )
    return S2Config(space.stem_channels, stages)


# ---------------------------------------------------------------------------
# Sampling and mutation (structural; constraint checks live in network.py)


def sample_descriptor(space: SearchSpace, rng: np.random.Generator) -> ArchDescriptor:
    """Uniform draw over the space's discrete choices (no cost constraints).

    _extreme_descriptor takes max_descriptor and min_descriptor from the same
    choices; a locus added here must be added there too.
    """
    if space.kind == "s0":
        picks = rng.integers(0, len(space.depth_choices), size=3)
        return S0Depths(*(space.depth_choices[int(i)] for i in picks))
    if space.kind == "nb201":
        picks = rng.integers(0, len(NB201_OPS), size=6)
        return NB201Cell(tuple(NB201_OPS[int(i)] for i in picks))
    stages = []
    for base, stride in zip(space.s2_base_channels, space.s2_strides):
        block = S2_BLOCK_KINDS[int(rng.integers(len(S2_BLOCK_KINDS)))]
        kernel = S2_KERNEL_CHOICES[int(rng.integers(len(S2_KERNEL_CHOICES)))]
        factor = S2_WIDTH_SAMPLE_FACTORS[int(rng.integers(len(S2_WIDTH_SAMPLE_FACTORS)))]
        depth = space.depth_choices[int(rng.integers(len(space.depth_choices)))]
        stages.append(S2Stage(block, kernel, clamp_channels(base * factor), depth, stride))
    return S2Config(space.stem_channels, tuple(stages))


def mutate(desc: ArchDescriptor, space: SearchSpace, rng: np.random.Generator) -> ArchDescriptor:
    """Resample exactly one locus of the descriptor.

    S0: one stage depth; cells: one edge op; S2: one stage's kernel OR width
    OR depth. The redraw may land on the parent's value by chance. Results
    are always structurally valid (widths re-clamped to multiples of 8).
    """
    if isinstance(desc, S0Depths):
        i = int(rng.integers(3))
        new = space.depth_choices[int(rng.integers(len(space.depth_choices)))]
        depths = list(desc.depths)
        depths[i] = new
        return S0Depths(*depths)
    if isinstance(desc, NB201Cell):
        i = int(rng.integers(6))
        ops = list(desc.ops)
        ops[i] = NB201_OPS[int(rng.integers(len(NB201_OPS)))]
        return NB201Cell(tuple(ops))
    if isinstance(desc, S2Config):
        i = int(rng.integers(len(desc.stages)))
        st = desc.stages[i]
        locus = int(rng.integers(3))
        if locus == 0:
            st = replace(st, kernel=S2_KERNEL_CHOICES[int(rng.integers(len(S2_KERNEL_CHOICES)))])
        elif locus == 1:
            f = S2_WIDTH_MUTATION_FACTORS[int(rng.integers(len(S2_WIDTH_MUTATION_FACTORS)))]
            st = replace(st, channels=clamp_channels(st.channels * f))
        else:
            delta = 1 if int(rng.integers(2)) else -1
            st = replace(st, depth=max(1, st.depth + delta))
        stages = list(desc.stages)
        stages[i] = st
        return S2Config(desc.stem_channels, tuple(stages))
    raise TypeError(f"not an architecture descriptor: {desc!r}")


# ---------------------------------------------------------------------------
# JSON interchange


def descriptor_to_json(desc: ArchDescriptor, space: SearchSpace) -> dict:
    if isinstance(desc, S0Depths):
        body = list(desc.depths)
    elif isinstance(desc, NB201Cell):
        body = serialize_nb201(desc)
    elif isinstance(desc, S2Config):
        body = {"stem_channels": desc.stem_channels, "stages": [asdict(st) for st in desc.stages]}
    else:
        raise TypeError(f"not an architecture descriptor: {desc!r}")
    return {"space": space.kind, "desc": body}


def _json_object(where: str, obj, keys: tuple[str, ...]) -> dict:
    """obj if it is a JSON object with exactly keys; else ValueError naming where and the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if missing := [k for k in keys if k not in obj]:
        raise ValueError(f"{where} needs the key {missing[0]!r}")
    if unknown := [k for k in obj if k not in keys]:
        raise ValueError(f"{where} has the unknown key {unknown[0]!r}")
    return obj


def _json_int(where: str, value) -> int:
    """value if it is a JSON integer; a float or a bool raises ValueError naming where."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def descriptor_from_json(obj: dict) -> tuple[str, ArchDescriptor]:
    """Return (space kind, descriptor) from the JSON interchange form.

    The form is exactly what descriptor_to_json writes: an unknown key, or a
    float or bool where an integer belongs, raises ValueError naming the
    field, so no input is read as an architecture it does not spell.
    """
    obj = _json_object("architecture JSON", obj, ("space", "desc"))
    kind, body = obj["space"], obj["desc"]
    if kind == "s0":
        if not (isinstance(body, list) and len(body) == 3):
            raise ValueError(f"s0 descriptor must be [d1, d2, d3], got {body!r}")
        return kind, S0Depths(*(_json_int(f"s0 depth d{i}", d) for i, d in enumerate(body, start=1)))
    if kind == "nb201":
        if not isinstance(body, str):
            raise ValueError("nb201 descriptor must be the cell string")
        return kind, parse_nb201(body)
    if kind in ("s2_cifar", "s2_imagenet"):
        body = _json_object("s2 descriptor", body, ("stem_channels", "stages"))
        if not isinstance(body["stages"], list):
            raise ValueError(f"s2 stages must be a list, got {body['stages']!r}")
        names = tuple(f.name for f in fields(S2Stage))
        stages = []
        for i, stage in enumerate(body["stages"]):
            stage = _json_object(f"s2 stage {i}", stage, names)
            # block is the one string field; every other field is an integer.
            ints = (_json_int(f"s2 stage {i} {name}", stage[name]) for name in names[1:])
            stages.append(S2Stage(stage["block"], *ints))
        return kind, S2Config(_json_int("s2 stem_channels", body["stem_channels"]), tuple(stages))
    raise ValueError(f"unknown space kind {kind!r}")
