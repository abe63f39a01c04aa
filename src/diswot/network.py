"""Compile descriptors into flat op plans, run them, and account their cost.

A (descriptor, space) pair compiles to a plan: one flat tuple of op records
over numbered activation slots. Slot 0 holds the input images, at the
space's input size, and every op writes a new slot; its record carries
that slot's spatial size and channel count. A skip edge compiles to no op
at all; its readers use its input slot. _compile returns a Plan: the ops
and every fact derived from them (frees, stage ends, relu_units, params,
flops). So the forward pass, the prefix cache's sizes, count_params and
count_flops can never drift apart.

Op kinds:

* conv: no bias, zero padding kernel // 2;
* bn: batch statistics, no affine;
* relu: relu_codes records its input's sign pattern for nwot, in plan order,
  packed to bits as the ReLU runs;
* add: residual sums and cell-node sums, left to right;
* pool: 3x3 average pooling at stride 1, padding 1;
* zero: the NB201 "none" edge, an explicit zero array that is still added
  into its node's sum.

The classifier (global average pool, then a linear layer) follows the
plan. Networks are only ever scored at initialization, so the forward
applies neither the batch-norm affine nor the classifier bias, which are
the identity and zero there; count_params still includes them.

Weight streams are part of the file format: the compiler writes into each
op record the number of convs before it in plan order, so conv i draws from
the Philox stream (init.seed, i) and the classifier from the next index.
Plan order is network order (the stem, then each block or cell in turn);
a block's body convs precede its shortcut, a cell's edges follow string
order. Identical (descriptor, InitSpec) pairs therefore always carry
bit-identical weights.

The forward drops each slot once its last reader has run, so only live
activations are held.

A PrefixCache keeps the stage-end activations of recent forwards, keyed by
plan prefix, under the byte budget its docstring states. A forward given
one resumes at the deepest block or cell boundary of its plan whose prefix
the cache holds, and runs only the ops after it. Every weight is drawn
where it is used and dropped afterwards, so a forward never draws the
weights of the ops it skips, and relu_codes draws no classifier weight.
Only relu_codes records ReLU codes, so a student that needs both takes
relu_codes first: its activations then run no op. trie_order sorts
networks so that those sharing the longest prefixes run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arch import (
    NB201_CELLS_PER_STAGE,
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

_SAMPLE_TRIES = 1000  # sample_random's rejection budget


@dataclass(frozen=True)
class ActivationBundle:
    """Everything the similarity metrics need from one forward pass.

    logits are linear(penultimate_features, fc_weight): the forward applies
    no classifier bias, which is zero at initialization.
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
    channels: int               # channel count of the slot written
    stream: int                 # convs before this op in plan order: conv i draws from stream i
    shape: tuple[int, ...] = ()  # conv: weight (cout, cin, k, k)
    stride: int = 1


class _PlanBuilder:
    """Emits op records; slot 0 holds the RGB input images."""

    def __init__(self, hw: tuple[int, int]):
        self.ops: list[_Op] = []
        self.hw = [hw]       # per slot
        self.channels = [3]  # per slot
        self.convs = 0

    def emit(self, kind: str, ins: tuple[int, ...], hw=None, channels=None, **fields) -> int:
        out = len(self.hw)
        self.hw.append(hw or self.hw[ins[0]])
        self.channels.append(channels or self.channels[ins[0]])
        self.ops.append(_Op(kind, out, ins, self.hw[out], self.channels[out], self.convs, **fields))
        return out

    def relu(self, x: int) -> int:
        return self.emit("relu", (x,))

    def bn(self, x: int) -> int:
        return self.emit("bn", (x,))

    def conv_bn(self, x: int, cout: int, kernel: int, stride: int) -> int:
        h, w = self.hw[x]
        pad = kernel // 2
        hw = ((h + 2 * pad - kernel) // stride + 1, (w + 2 * pad - kernel) // stride + 1)
        y = self.emit("conv", (x,), hw, cout, shape=(cout, self.channels[x], kernel, kernel), stride=stride)
        self.convs += 1
        return self.bn(y)

    def block(self, x: int, cout: int, stride: int, kernel: int = 3, bottleneck: bool = False) -> int:
        """Residual block; a bottleneck is 1x1 reduce, kxk, 1x1 expand at mid width max(8, cout // 4)."""
        if bottleneck:
            mid = max(8, cout // 4)
            y = self.relu(self.conv_bn(x, mid, 1, 1))
            y = self.relu(self.conv_bn(y, mid, kernel, stride))
            y = self.conv_bn(y, cout, 1, 1)
        else:
            y = self.relu(self.conv_bn(x, cout, kernel, stride))
            y = self.conv_bn(y, cout, kernel, 1)
        shortcut = self.conv_bn(x, cout, 1, stride) if (stride != 1 or self.channels[x] != cout) else x
        return self.relu(self.emit("add", (y, shortcut)))

    def edge(self, x: int, op: str) -> int:
        if op == "none":
            return self.emit("zero", (x,))
        if op == "skip_connect":
            return x
        if op == "avg_pool_3x3":
            return self.emit("pool", (x,))
        if op == "nor_conv_1x1":
            return self.conv_bn(self.relu(x), self.channels[x], 1, 1)
        if op == "nor_conv_3x3":
            return self.conv_bn(self.relu(x), self.channels[x], 3, 1)
        raise ValueError(f"unknown cell operation {op!r}")

    def cell(self, x: int, ops: tuple[str, ...]) -> int:
        """4-node DAG: node j sums its incoming edges from nodes < j."""
        nodes = [x]
        edges = iter(ops)
        for j in range(1, 4):
            total = self.edge(nodes[0], next(edges))
            for i in range(1, j):
                total = self.emit("add", (total, self.edge(nodes[i], next(edges))))
            nodes.append(total)
        return nodes[3]


@dataclass(frozen=True)
class Plan:
    """A compiled network: its op records for inputs of space.input_hw, and every fact derived from them.

    frees[i] holds the slots that op i reads last. one_live lists, deepest
    first, the ops after which their output is the one live slot: a block or
    cell boundary, or an op of the stem. stage_ends maps each one-live point
    followed by the plan's end or by a conv that changes the spatial size or
    the channel count to the bytes per sample of its float64 output and of
    the ReLU codes recorded up to it, ceil(units / 8) per ReLU. relu_units
    counts ReLU units per sample; count_params and count_flops return params
    and flops.
    """

    ops: tuple[_Op, ...]
    frees: tuple[tuple[int, ...], ...]
    one_live: tuple[int, ...]
    stage_ends: dict[int, tuple[int, int]]
    relu_units: int
    params: int
    flops: int


def _compile(desc: ArchDescriptor, space: SearchSpace) -> Plan:
    """The Plan of desc in space; its last op's channels are the feature width."""
    b = _PlanBuilder((space.input_hw, space.input_hw))
    if isinstance(desc, S0Depths):
        x = b.relu(b.conv_bn(0, space.stem_channels, 3, 1))
        for stage, (cout, depth) in enumerate(zip(space.stage_channels, desc.depths)):
            for i in range(depth):
                x = b.block(x, cout, 2 if (stage > 0 and i == 0) else 1)
    elif isinstance(desc, NB201Cell):
        x = b.conv_bn(0, space.stem_channels, 3, 1)
        for stage, cout in enumerate(space.stage_channels):
            if stage > 0:
                x = b.block(x, cout, 2)
            for _ in range(NB201_CELLS_PER_STAGE):
                x = b.cell(x, desc.ops)
        b.relu(b.bn(x))
    elif isinstance(desc, S2Config):
        kernel, stride = (7, 2) if space.kind == "s2_imagenet" else (3, 1)
        x = b.relu(b.conv_bn(0, desc.stem_channels, kernel, stride))
        for st in desc.stages:
            for i in range(st.depth):
                x = b.block(x, st.channels, st.stride if i == 0 else 1, st.kernel, st.block == "bottleneck")
    else:
        raise TypeError(f"not an architecture descriptor: {desc!r}")
    ops = tuple(b.ops)
    frees = [[] for _ in ops]
    for slot, i in {slot: i for i, op in enumerate(ops) for slot in op.ins}.items():
        frees[i].append(slot)
    one_live, ends, live = [], {}, 1  # live counts the slots held, at first slot 0
    codes = units = params = flops = 0
    for i, op in enumerate(ops):
        size = op.channels * op.hw[0] * op.hw[1]
        if op.kind == "relu":
            codes += -(-size // 8)
            units += size
        elif op.kind == "conv":
            params += math.prod(op.shape)
            flops += 2 * math.prod(op.shape) * op.hw[0] * op.hw[1]
        elif op.kind == "bn":
            params += 2 * op.channels  # the affine pair
        live += 1 - len(frees[i])  # op i writes one slot and drops those it reads last
        if live == 1:
            one_live.append(i)
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if nxt is None or nxt.kind == "conv" and (nxt.hw != op.hw or nxt.channels != op.channels):
                ends[i] = (8 * size, codes)
    fc = ops[-1].channels * space.num_classes  # the classifier's weights; params adds its bias
    return Plan(ops, tuple(map(tuple, frees)), tuple(reversed(one_live)), ends, units,
                params + fc + space.num_classes, flops + 2 * fc)


class _Checkpoint(NamedTuple):
    tensor: Tensor                 # the one live tensor after the prefix
    codes: tuple[np.ndarray, ...] | None  # packed ReLU codes recorded up to here; None if they were not
    nbytes: int                    # of the tensor and the codes


class PrefixCache:
    """Stage-end activations of recent forwards, keyed by plan prefix, for later forwards to resume from.

    Two plans that agree on their first n op records hold bit-identical
    tensors after op n: conv i draws its weights from the stream
    (init.seed, i) and batch norm reads only the current batch. The cache
    maps a plan prefix that ends at a stage end to the one live tensor
    there, plus the packed ReLU codes up to there (one (B, ceil(units / 8))
    uint8 array per ReLU) when its forward recorded them,
    least recently used first. A forward through the cache starts from the
    deepest point of its own plan at which that plan has a single live slot
    (see Plan) and whose prefix the cache holds, and runs only the
    rest. That point may lie inside one of its stages: 7-7-5 after 7-7-3
    resumes from the end of 7-7-3, its own third stage-3 block boundary,
    and runs two blocks. A forward records ReLU codes exactly when it is
    relu_codes, and relu_codes resumes only from checkpoints whose codes
    were recorded. So activations right after relu_codes on the same
    network runs no op, while relu_codes right after activations resumes
    only from a checkpoint an earlier relu_codes forward took.

    Each forward then stores the tensor at each of its stage ends. Before it
    runs any op it makes room: it evicts the least recently used checkpoints
    other than its own stage ends until the held bytes plus the bytes it is
    about to store fit in max_bytes, or in the bytes of its own stage ends
    if that is more (ReLU codes included when it records them; the sizes
    come from the plan's shapes, see Plan). So with max_bytes=0 the
    cache holds exactly the stage ends of the last network, which serves
    score, where neighbours in prefix-trie order share their prefixes, and
    a random search, whose draws have no parents. An evolutionary search
    gives it a budget of several networks, since a child is a mutant of a
    population member and resumes from its parent's checkpoints. It holds
    no weights.

    The cache is bound to one image array and one InitSpec; a forward with
    other images or another InitSpec raises ValueError. It is not
    thread-safe: give each thread its own.
    """

    def __init__(self, images: Tensor, init: InitSpec, max_bytes: int = 0):
        self.images = images
        self.init = init
        self.max_bytes = max_bytes
        self._store: dict[tuple[_Op, ...], _Checkpoint] = {}  # least recently used first

    def _resume(self, net: NetworkInstance, images: Tensor, record: bool):
        """Return (first op to run, slots, codes list or None) and make room for net's stage ends."""
        if images is not self.images or net.init != self.init:
            raise ValueError("a PrefixCache serves only the image array and InitSpec it was made with")
        plan, ends, store = net.plan.ops, net.plan.stage_ends, self._store
        start, slots, codes = 0, {0: images}, [] if record else None
        for i in net.plan.one_live:
            key = plan[:i + 1]
            cp = store.get(key)
            if cp is not None and (cp.codes is not None or not record):
                start, slots = i + 1, {plan[i].out: cp.tensor}
                if record:
                    codes = list(cp.codes)
                store[key] = store.pop(key)  # now the most recently used
                break
        # Take this plan's own stage ends out: those before start stay, the
        # rest are stored again as this forward runs.
        own = {}
        for i in ends:
            key = plan[:i + 1]
            cp = store.pop(key, None)
            if cp is not None and i < start:
                own[key] = cp
        batch = images.shape[0]
        size = {i: batch * (t + (c if record else 0)) for i, (t, c) in ends.items()}
        room = max(sum(size.values()), self.max_bytes)
        room -= sum(size[i] for i in ends if i >= start)
        room -= sum(cp.nbytes for cp in own.values())
        held = sum(cp.nbytes for cp in store.values())
        while store and held > room:
            held -= store.pop(next(iter(store))).nbytes
        store.update(own)
        return start, slots, codes

    def _mark(self, prefix: tuple[_Op, ...], tensor: Tensor, codes: list | None) -> None:
        codes = None if codes is None else tuple(codes)
        self._store[prefix] = _Checkpoint(tensor, codes, tensor.nbytes + sum(c.nbytes for c in codes or ()))


class NetworkInstance:
    """A built, seeded network; its weights are fixed by (descriptor, init).

    It holds no weight: a forward draws the weights of the ops it runs, and
    only activations draws the classifier's (see the module docstring).
    """

    def __init__(self, descriptor: ArchDescriptor, space: SearchSpace, init: InitSpec):
        self.descriptor = descriptor
        self.space = space
        self.init = init
        self.plan = _compile(descriptor, space)

    def _forward(self, images: Tensor, record: bool, cache: PrefixCache | None):
        """Return (pre-GAP map, packed ReLU codes in plan order or None)."""
        if cache is None:
            start, slots, codes = 0, {0: images}, [] if record else None
        else:
            start, slots, codes = cache._resume(self, images, record)
        plan = self.plan
        for index in range(start, len(plan.ops)):
            op = plan.ops[index]
            x = slots[op.ins[0]]
            if op.kind == "conv":
                y = conv2d(x, init_tensor(op.shape, self.init, op.stream), op.stride, op.shape[2] // 2)
            elif op.kind == "bn":
                y = batchnorm_batchstats(x)
            elif op.kind == "relu":
                y = relu(x)
                if codes is not None:
                    codes.append(np.packbits((x > 0).reshape(x.shape[0], -1), axis=1))
            elif op.kind == "add":
                y = residual_add(x, slots[op.ins[1]])
            elif op.kind == "pool":
                y = avg_pool2d(x)
            else:
                y = np.zeros_like(x)
            for slot in plan.frees[index]:
                del slots[slot]
            slots[op.out] = y
            if cache is not None and index in plan.stage_ends:
                cache._mark(plan.ops[:index + 1], y, codes)
        return slots[plan.ops[-1].out], codes

    def activations(self, images: Tensor, labels: np.ndarray, *, cache: PrefixCache | None = None) -> ActivationBundle:
        pre_gap = self._forward(images, False, cache)[0]
        features = global_avg_pool(pre_gap)
        last = self.plan.ops[-1]  # a bn follows every conv, so last.stream counts every conv
        fc_weight = init_tensor((self.space.num_classes, last.channels), self.init, last.stream)
        logits = linear(features, fc_weight)
        grad = fc_weight_grad(features, logits, labels)
        return ActivationBundle(features, pre_gap, logits, fc_weight, grad)

    def relu_codes(self, images: Tensor, *, cache: PrefixCache | None = None) -> np.ndarray:
        """Binary activation pattern per sample, packed to bits, concatenated over every ReLU.

        Each ReLU packs its input's sign pattern as it runs: row i holds
        sample i's signs in [C,H,W] order, eight to a byte with the first
        in the most significant bit (np.packbits), zero-padded to a whole
        byte. The result is the (B, sum of ceil(units / 8)) uint8
        concatenation of those rows in plan order; the padding bits are 0 in
        every row, and plan.relu_units counts the units without them.
        """
        return np.concatenate(self._forward(images, True, cache)[1], axis=1)


def count_params(desc: ArchDescriptor, space: SearchSpace) -> int:
    """Exact trainable parameter count (convs, BN affine pairs, FC incl. bias)."""
    return _compile(desc, space).params


def count_flops(desc: ArchDescriptor, space: SearchSpace) -> int:
    """Multiply-accumulates times two, convs and FC only, for one sample at space.input_hw."""
    return _compile(desc, space).flops


def trie_order(descs: list[ArchDescriptor], space: SearchSpace) -> list[int]:
    """Indices of descs sorted by compiled plan.

    Lexicographic order over op records is a depth-first walk of the trie
    of the plans' prefixes: the longest prefix a network shares with any
    other it shares with a neighbour in this order.
    """
    # One object per distinct op record: under tracemalloc the 64 s0 plans
    # hold about 1.15 MiB with their own records and 0.11 MiB interned.
    records: dict[_Op, _Op] = {}
    plans = [tuple(records.setdefault(op, op) for op in _compile(desc, space).ops) for desc in descs]
    return sorted(range(len(descs)), key=plans.__getitem__)


def satisfies_constraints(desc: ArchDescriptor, space: SearchSpace) -> bool:
    """Structural membership plus the space's cost limits."""
    if not descriptor_in_space(desc, space):
        return False
    c = space.constraints
    if c.max_depth is not None and block_count(desc, space) > c.max_depth:
        return False
    if c.max_params is None and c.max_flops is None:
        return True
    plan = _compile(desc, space)
    return (c.max_params is None or plan.params <= c.max_params) and (c.max_flops is None or plan.flops <= c.max_flops)


def sample_random(space: SearchSpace, rng: np.random.Generator) -> ArchDescriptor:
    """Uniform constraint-satisfying draw by rejection, within _SAMPLE_TRIES draws."""
    for _ in range(_SAMPLE_TRIES):
        desc = sample_descriptor(space, rng)
        if satisfies_constraints(desc, space):
            return desc
    raise RuntimeError(f"no constraint-satisfying candidate found in {_SAMPLE_TRIES} draws")
