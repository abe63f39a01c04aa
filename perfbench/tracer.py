"""Span recorder for the traced benchmark run.

    python3 perfbench/tracer.py SPANS.jsonl -- <diswot CLI argv>

runs ``diswot.cli.main(argv)`` in this process with every public function of
the traced modules wrapped in a span, then writes the spans to SPANS.jsonl
once, at the end. Nothing inside the package is edited: each function is
wrapped in its defining module and rebound in every diswot module that
imported it by name (``network.conv2d``, ``search.satisfies_constraints``), so
calls between modules and within one module are both recorded. The
constructor and the ``activations`` and ``relu_codes`` forwards of
``NetworkInstance`` are wrapped on the class itself, which covers every module's reference to it.

A span records its name (``<module>.<function>``), its parent span, its
thread, start and end times, its self time (duration minus the time of its
child spans in the same thread) and a key: the ``arch_id`` of the network it
works on, the repetition index inside ``rankstats``, or its parent's key.
A few spans also carry counts computed from argument shapes (conv flop and
im2col bytes, nwot float bytes), the size of a result (relu code bytes) or,
for ``kendall_tau`` only, a ``tracemalloc`` peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

MODULES = ("cli", "search", "network", "kernels", "metrics", "rankstats", "data", "rng")
NETWORK_METHODS = ("activations", "relu_codes")


def _conv_extras(args, kwargs, result) -> dict:
    """Computed from argument shapes: flop of the conv and bytes of its im2col matrix."""
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
    b, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    return {
        "shape": f"{cin}-{cout}.hw{h}.k{k}.s{stride}",
        "flop": 2 * b * cout * ho * wo * cin * k * k,
        "im2col_bytes": b * ho * wo * cin * k * k * x.itemsize,
    }


def _nwot_extras(args, kwargs, result) -> dict:
    """Computed from the codes shape: the float64 active and inactive copies."""
    return {"float_bytes": 2 * args[0].size * 8}


def _codes_extras(args, kwargs, result) -> dict:
    return {"bytes": int(result.nbytes)}


EXTRAS = {
    "kernels.conv2d": _conv_extras,
    "metrics.nwot_from_codes": _nwot_extras,
    "network.relu_codes": _codes_extras,
}
PEAK_MEMORY = {"rankstats.kendall_tau"}


class Recorder:
    """Holds spans in memory; wraps callables so that each call records one."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._arch_types: tuple[type, ...] = ()
        self._arch_id = None
        self._rank_rep = -1

    def _key(self, name: str, args, parent) -> str:
        for a in args[:2]:
            desc = getattr(a, "descriptor", a)
            if isinstance(desc, self._arch_types):
                return self._arch_id(desc)
        if parent is not None and parent["name"] == "rankstats.evaluate_proxy" and name.startswith("rankstats."):
            # evaluate_proxy computes kendall_tau first in each repetition.
            if name == "rankstats.kendall_tau":
                self._rank_rep += 1
            return f"rep{self._rank_rep}"
        return parent["key"] if parent is not None else "-"

    def wrap(self, name: str, fn):
        extras = EXTRAS.get(name)
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            span = {"id": next(self._ids), "parent": parent["id"] if parent else None, "name": name,
                    "key": self._key(name, args, parent), "thread": threading.get_ident(), "child_s": 0.0}
            stack.append(span)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if parent is not None:
                    parent["child_s"] += end - start
                span["start"], span["end"] = start, end
                span["self_s"] = end - start - span.pop("child_s")
                self.spans.append(span)
            if extras is not None:
                span.update(extras(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES and rebind them package-wide."""
        from diswot import arch

        self._arch_types = (arch.S0Depths, arch.NB201Cell, arch.S2Config)
        self._arch_id = arch.arch_id
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"diswot.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if (short, attr) == ("search", "evolve"):
                    obj = self._with_traced_fitness(obj)
                replaced[vars(module)[attr]] = self.wrap(f"{short}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "diswot" and not name.startswith("diswot."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

        network_cls = importlib.import_module("diswot.network").NetworkInstance
        network_cls.__init__ = self.wrap("network.NetworkInstance", network_cls.__init__)
        for method in NETWORK_METHODS:
            setattr(network_cls, method, self.wrap(f"network.{method}", getattr(network_cls, method)))

    def _with_traced_fitness(self, search_fn):
        """evolve takes the fitness as an argument: trace it as search.fitness."""

        @functools.wraps(search_fn)
        def run(space, fitness, *args, **kwargs):
            return search_fn(space, self.wrap("search.fitness", fitness), *args, **kwargs)

        return run

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                f.write(json.dumps(span, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.jsonl -- <diswot CLI argv>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("diswot.cli")
    try:
        code = cli.main(argv[2:])
    finally:
        recorder.write(Path(argv[0]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
