"""Deterministic random number streams and weight initialization.

All randomness in the package flows through counter-based Philox generators
keyed by a pair of 64-bit integers (seed, stream_id). The keying is a format
contract: the same pair yields bit-identical draws on every platform and in
every process, which is what makes scores, searches, and CSV artifacts
reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Return the generator for the (seed, stream_id) Philox key."""
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, stream_id: int) -> int:
    """Derive a child seed: one 64-bit draw from the (seed, stream_id) stream.

    Used to hand sub-systems (batch synthesis, sampling, init) their own
    seeds from a single master seed without stream collisions.
    """
    return int(stream(seed, stream_id).integers(0, 1 << 64, dtype=np.uint64))


@dataclass(frozen=True)
class InitSpec:
    """How to initialize network weights.

    scheme: "kaiming" scales a standard normal by sqrt(2 / fan_in);
    "gaussian" uses a fixed standard deviation instead.
    """

    scheme: str = "kaiming"
    gaussian_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("kaiming", "gaussian"):
            raise ValueError(f"unknown init scheme: {self.scheme!r}")
        if self.gaussian_std <= 0:
            raise ValueError("gaussian_std must be positive")


def fan_in(shape: tuple[int, ...]) -> int:
    """Inputs feeding one output unit: Cin*k*k for conv weights, Cin for linear."""
    if len(shape) < 2:
        raise ValueError(f"weight tensors need rank >= 2, got shape {shape}")
    return math.prod(shape[1:])


def init_tensor(shape: tuple[int, ...], spec: InitSpec, stream_id: int) -> np.ndarray:
    """Draw a weight tensor from the (spec.seed, stream_id) stream.

    The mapping from (shape, spec, stream_id) to values is fixed, so two
    networks built from the same descriptor and InitSpec carry bit-identical
    weights.
    """
    if spec.scheme == "kaiming":
        std = np.sqrt(2.0 / fan_in(shape))
    else:
        std = spec.gaussian_std
    w = stream(spec.seed, stream_id).standard_normal(shape, dtype=np.float64)
    w *= std  # in place: the same multiply as w * std, without a second array
    return w
