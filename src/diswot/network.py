"""Compile descriptors into flat op plans, run them, and account their cost.

A (descriptor, space, input size) triple compiles to a plan: one flat tuple
of op records over numbered activation slots. Slot 0 holds the input images
and every op writes a new slot. A skip edge compiles to no op at all; its
readers use its input slot. The same plan drives the forward pass,
count_params and count_flops, so the three can never drift apart.

Op kinds:

* conv: no bias, zero padding kernel // 2;
* bn: batch statistics, unit gamma, zero beta;
* relu: the forward records its sign pattern for nwot, in plan order;
* add: residual sums and cell-node sums, left to right;
* pool: 3x3 average pooling at stride 1;
* zero: the NB201 "none" edge, an explicit zero array that is still added
  into its node's sum.

The classifier (global average pool, then a linear layer with zero bias)
follows the plan.

Weight streams are part of the file format: conv i in plan order draws from
the Philox stream (init.seed, i) and the classifier from the next index.
Plan order is network order (the stem, then each block or cell in turn);
a block's body convs precede its shortcut, a cell's edges follow string
order. Identical (descriptor, InitSpec) pairs therefore always carry
bit-identical weights.

Each op also lists the slots it was the last reader of; the forward drops
them once it has run, so only live activations are held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arch import (
    ArchDescriptor,
    NB201Cell,
    S0Depths,
    S2Config,
    SearchSpace,
    block_count,
    descriptor_in_space,
    sample_descriptor,
)
from .kernels import (
    Tensor,
    avg_pool2d,
    batchnorm_batchstats,
    conv2d,
    fc_weight_grad,
    global_avg_pool,
    linear,
    relu,
    residual_add,
)
from .rng import InitSpec, init_tensor


@dataclass(frozen=True)
class ActivationBundle:
    """Everything the similarity metrics need from one forward pass.

    logits equal linear(penultimate_features, fc_weight) exactly because the
    classifier bias is zero-initialized and networks are never trained.
    """

    penultimate_features: Tensor
    pre_gap_map: Tensor
    logits: Tensor
    fc_weight: Tensor
    fc_weight_grad: Tensor


class _Op(NamedTuple):
    kind: str                   # conv | bn | relu | add | pool | zero
    out: int                    # slot written
    ins: tuple[int, ...]        # slots read
    hw: tuple[int, int]         # spatial size of the slot written, per sample
    shape: tuple[int, ...] = ()  # conv: weight (cout, cin, k, k); bn: (channels,)
    stride: int = 1
    frees: tuple[int, ...] = ()  # slots this op reads for the last time


class _PlanBuilder:
    def __init__(self, hw: tuple[int, int]):
        self.ops: list[_Op] = []
        self.hw = [hw]  # per slot

    def emit(self, kind: str, ins: tuple[int, ...], hw=None, **fields) -> int:
        out = len(self.hw)
        self.hw.append(hw or self.hw[ins[0]])
        self.ops.append(_Op(kind, out, ins, self.hw[out], **fields))
        return out

    def relu(self, x: int) -> int:
        return self.emit("relu", (x,))

    def bn(self, x: int, channels: int) -> int:
        return self.emit("bn", (x,), shape=(channels,))

    def conv_bn(self, x: int, cin: int, cout: int, kernel: int, stride: int) -> int:
        h, w = self.hw[x]
        pad = kernel // 2
        hw = ((h + 2 * pad - kernel) // stride + 1, (w + 2 * pad - kernel) // stride + 1)
        y = self.emit("conv", (x,), hw, shape=(cout, cin, kernel, kernel), stride=stride)
        return self.bn(y, cout)

    def block(self, x: int, cin: int, cout: int, stride: int, kernel: int = 3, bottleneck: bool = False) -> int:
        """Residual block; a bottleneck is 1x1 reduce, kxk, 1x1 expand at mid width max(8, cout // 4)."""
        if bottleneck:
            mid = max(8, cout // 4)
            y = self.relu(self.conv_bn(x, cin, mid, 1, 1))
            y = self.relu(self.conv_bn(y, mid, mid, kernel, stride))
            y = self.conv_bn(y, mid, cout, 1, 1)
        else:
            y = self.relu(self.conv_bn(x, cin, cout, kernel, stride))
            y = self.conv_bn(y, cout, cout, kernel, 1)
        shortcut = self.conv_bn(x, cin, cout, 1, stride) if (stride != 1 or cin != cout) else x
        return self.relu(self.emit("add", (y, shortcut)))

    def edge(self, x: int, op: str, channels: int) -> int:
        if op == "none":
            return self.emit("zero", (x,))
        if op == "skip_connect":
            return x
        if op == "avg_pool_3x3":
            return self.emit("pool", (x,))
        if op == "nor_conv_1x1":
            return self.conv_bn(self.relu(x), channels, channels, 1, 1)
        if op == "nor_conv_3x3":
            return self.conv_bn(self.relu(x), channels, channels, 3, 1)
        raise ValueError(f"unknown cell operation {op!r}")

    def cell(self, x: int, ops: tuple[str, ...], channels: int) -> int:
        """4-node DAG: node j sums its incoming edges from nodes < j."""
        nodes = [x]
        edges = iter(ops)
        for j in range(1, 4):
            total = self.edge(nodes[0], next(edges), channels)
            for i in range(1, j):
                total = self.emit("add", (total, self.edge(nodes[i], next(edges), channels)))
            nodes.append(total)
        return nodes[3]

    def finish(self) -> tuple[_Op, ...]:
        last_reader: dict[int, int] = {}
        for i, op in enumerate(self.ops):
            for slot in op.ins:
                last_reader[slot] = i
        frees: list[list[int]] = [[] for _ in self.ops]
        for slot, i in last_reader.items():
            frees[i].append(slot)
        return tuple(op._replace(frees=tuple(f)) for op, f in zip(self.ops, frees))


def _compile(desc: ArchDescriptor, space: SearchSpace, hw: tuple[int, int]) -> tuple[tuple[_Op, ...], int]:
    """Return (plan, feature width) for inputs of spatial size hw."""
    b = _PlanBuilder(hw)
    if isinstance(desc, S0Depths):
        x = b.relu(b.conv_bn(0, 3, space.stem_channels, 3, 1))
        cin = space.stem_channels
        for stage, (cout, depth) in enumerate(zip(space.stage_channels, desc.depths)):
            for i in range(depth):
                x = b.block(x, cin, cout, 2 if (stage > 0 and i == 0) else 1)
                cin = cout
    elif isinstance(desc, NB201Cell):
        x = b.conv_bn(0, 3, space.stem_channels, 3, 1)
        cin = space.stem_channels
        for stage, cout in enumerate(space.stage_channels):
            if stage > 0:
                x = b.block(x, cin, cout, 2)
                cin = cout
            for _ in range(space.cells_per_stage):
                x = b.cell(x, desc.ops, cin)
        b.relu(b.bn(x, cin))
    elif isinstance(desc, S2Config):
        kernel, stride = (7, 2) if space.kind == "s2_imagenet" else (3, 1)
        x = b.relu(b.conv_bn(0, 3, desc.stem_channels, kernel, stride))
        cin = desc.stem_channels
        for st in desc.stages:
            for i in range(st.depth):
                x = b.block(x, cin, st.channels, st.stride if i == 0 else 1, st.kernel, st.block == "bottleneck")
                cin = st.channels
    else:
        raise TypeError(f"not an architecture descriptor: {desc!r}")
    return b.finish(), cin


class NetworkInstance:
    """A built, seeded network. Read-only after construction."""

    def __init__(self, descriptor: ArchDescriptor, space: SearchSpace, init: InitSpec):
        self.descriptor = descriptor
        self.space = space
        self.init = init
        self._plan, feature_width = _compile(descriptor, space, (space.input_hw, space.input_hw))
        # conv weight or bn (gamma, beta), keyed by the op's output slot
        self._params: dict[int, object] = {}
        convs = [op for op in self._plan if op.kind == "conv"]
        for index, op in enumerate(convs):
            self._params[op.out] = init_tensor(op.shape, init, index)
        for op in self._plan:
            if op.kind == "bn":
                self._params[op.out] = (np.ones(op.shape), np.zeros(op.shape))
        self._fc_weight = init_tensor((space.num_classes, feature_width), init, len(convs))
        self._fc_bias = np.zeros(space.num_classes)

    def named_weights(self):
        """All trainable tensors (conv/FC weights, BN affine, FC bias)."""
        convs = [op for op in self._plan if op.kind == "conv"]
        for i, op in enumerate(convs):
            yield f"conv{i}.weight", self._params[op.out]
        bns = [op for op in self._plan if op.kind == "bn"]
        for i, op in enumerate(bns):
            gamma, beta = self._params[op.out]
            yield f"bn{i}.gamma", gamma
            yield f"bn{i}.beta", beta
        yield "fc.weight", self._fc_weight
        yield "fc.bias", self._fc_bias

    def _forward(self, images: Tensor, codes: list | None):
        slots = {0: images}
        for op in self._plan:
            x = slots[op.ins[0]]
            if op.kind == "conv":
                y = conv2d(x, self._params[op.out], op.stride, op.shape[2] // 2)
            elif op.kind == "bn":
                y = batchnorm_batchstats(x, *self._params[op.out])
            elif op.kind == "relu":
                y = relu(x)
                if codes is not None:
                    codes.append(x > 0)
            elif op.kind == "add":
                y = residual_add(x, slots[op.ins[1]])
            elif op.kind == "pool":
                y = avg_pool2d(x, 3, 1, 1)
            else:
                y = np.zeros_like(x)
            for slot in op.frees:
                del slots[slot]
            slots[op.out] = y
        pre_gap = y
        features = global_avg_pool(pre_gap)
        logits = linear(features, self._fc_weight, self._fc_bias)
        return pre_gap, features, logits

    def forward(self, images: Tensor) -> Tensor:
        """Logits for a [B,3,H,W] batch."""
        return self._forward(images, None)[2]

    def activations(self, images: Tensor, labels: np.ndarray) -> ActivationBundle:
        pre_gap, features, logits = self._forward(images, None)
        grad = fc_weight_grad(features, logits, labels)
        return ActivationBundle(features, pre_gap, logits, self._fc_weight, grad)

    def relu_codes(self, images: Tensor) -> np.ndarray:
        """Binary activation pattern per sample, concatenated over every ReLU."""
        codes: list = []
        self._forward(images, codes)
        b = images.shape[0]
        return np.concatenate([c.reshape(b, -1) for c in codes], axis=1)


def count_params(desc: ArchDescriptor, space: SearchSpace) -> int:
    """Exact trainable parameter count (convs, BN affine pairs, FC incl. bias)."""
    plan, feature_width = _compile(desc, space, (space.input_hw, space.input_hw))
    total = sum(math.prod(op.shape) for op in plan if op.kind == "conv")
    total += sum(2 * op.shape[0] for op in plan if op.kind == "bn")
    return total + (feature_width + 1) * space.num_classes


def count_flops(desc: ArchDescriptor, space: SearchSpace, input_shape: tuple[int, ...] | None = None) -> int:
    """Multiply-accumulates times two, convs and FC only.

    input_shape may be (C, H, W) or (B, C, H, W); batch scales the count.
    Defaults to one sample at the space's native resolution.
    """
    if input_shape is None:
        input_shape = (3, space.input_hw, space.input_hw)
    if len(input_shape) == 4:
        batch = input_shape[0]
    elif len(input_shape) == 3:
        batch = 1
    else:
        raise ValueError(f"input_shape must be (C,H,W) or (B,C,H,W), got {input_shape}")
    plan, feature_width = _compile(desc, space, (input_shape[-2], input_shape[-1]))
    total = sum(2 * math.prod(op.shape) * op.hw[0] * op.hw[1] for op in plan if op.kind == "conv")
    return batch * (total + 2 * space.num_classes * feature_width)


def satisfies_constraints(desc: ArchDescriptor, space: SearchSpace) -> bool:
    """Structural membership plus the space's cost limits."""
    if not descriptor_in_space(desc, space):
        return False
    c = space.constraints
    if c.max_depth is not None and block_count(desc, space) > c.max_depth:
        return False
    if c.max_params is not None and count_params(desc, space) > c.max_params:
        return False
    if c.max_flops is not None and count_flops(desc, space) > c.max_flops:
        return False
    return True


def sample_random(space: SearchSpace, rng: np.random.Generator, max_tries: int = 1000) -> ArchDescriptor:
    """Uniform constraint-satisfying draw by rejection."""
    for _ in range(max_tries):
        desc = sample_descriptor(space, rng)
        if satisfies_constraints(desc, space):
            return desc
    raise RuntimeError(f"no constraint-satisfying candidate found in {max_tries} draws")
