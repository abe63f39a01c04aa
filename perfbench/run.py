"""diswot benchmark: real CLI commands, timed end to end or traced per module.

    python3 perfbench/run.py --workload score-s0|search-s0|rank-nb201 \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package in ``src/`` and
writes only under ``.bench_work/``. Each command runs as a child process with
BLAS pinned to one thread, so its thread count equals its ``--jobs``.

A run cycles through every input variant of the workload (see
workloads.py), starting at ``seed % VARIANTS``, for as long as one more
command still ends within S seconds.

``--trace 0`` alternates a set-up probe (``probe.py``, a fresh process doing
the command's fixed set-up) with a command, runs every variant at least once,
and reports

- ``wall_s``: spawn to exit of the command;
- ``cpu_s``: user plus sys time of that child, from ``wait4``;
- ``peak_rss_mib``: that child's own max RSS, from ``wait4``;
- ``setup_s``: spawn to exit of the set-up probe.

The first three are the median over variants of each variant's median, so
every run weighs the variants alike; ``setup_s`` is the median of all probes.

``--trace 1`` alternates a plain and a traced command (``tracer.py``),
starting at variant 0, and reports per-module metrics from the spans: counts
from the variant-0 command, times as medians over the traced commands, plus
the tracing overhead.

Every command's outputs are checked against the stored reference for the
workload variant, and repeats within a run must be byte-identical. A command
that exits nonzero, is killed or fails the check counts as failed; the human
summary reports ``failed_frac`` = failed / attempted. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import VARIANTS, WORKLOADS, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DISWOT_CLI = [sys.executable, "-m", "diswot.cli"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# The conv shapes (cin-cout, input side, kernel, stride) that s0 networks produce.
S0_CONV_SHAPES = (
    "3-16.hw32.k3.s1", "16-16.hw32.k3.s1", "16-32.hw32.k3.s2", "16-32.hw32.k1.s2",
    "32-32.hw16.k3.s1", "32-64.hw16.k3.s2", "32-64.hw16.k1.s2", "64-64.hw8.k3.s1",
)
SELF_TIMED = (
    "kernels.batchnorm_batchstats", "kernels.relu", "kernels.residual_add",
    "network.activations", "network.relu_codes", "search.evolve",
    "rankstats.spearman", "rankstats.average_ranks", "rankstats.pearson", "rankstats.evaluate_proxy",
    "data.read_scores_csv", "data.load_accuracy_csv", "data.write_scores_csv", "data.synth_batch",
    "data.load_cifar_batch", "cli.main",
)
CALLED_AND_TIMED = (
    "kernels.conv2d", "network.NetworkInstance", "rng.init_tensor", "metrics.nwot_from_codes",
    "metrics.diswot_score_from_bundles", "network.satisfies_constraints", "rankstats.kendall_tau",
)
# Metrics in these units are counted, not timed: they repeat exactly for one input.
COUNTED_UNITS = ("count", "count/count", "bytes", "bytes-computed", "flop-computed")
# name -> (unit, better); the per_layer list of BENCHMARK.json.
PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in CALLED_AND_TIMED},
    **{f"{n}.self_s": ("s", "lower") for n in CALLED_AND_TIMED + SELF_TIMED},
    "kernels.conv2d.flop": ("flop-computed", "lower"),
    "kernels.conv2d.im2col_bytes": ("bytes-computed", "lower"),
    "kernels.conv2d.gflop_per_s": ("GFLOP/s", "higher"),
    **{f"kernels.conv2d.{shape}.self_s": ("s", "lower") for shape in S0_CONV_SHAPES},
    "network.forward.calls": ("count", "lower"),
    "network.relu_codes.bytes": ("bytes", "lower"),
    "metrics.nwot_from_codes.float_bytes": ("bytes-computed", "lower"),
    "search.fitness.calls": ("count", "lower"),
    "search.fitness.unique_archs": ("count", "lower"),
    "search.fitness.unique_frac": ("count/count", "higher"),
    "rankstats.kendall_tau.peak_mib": ("MiB", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    ok: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, timeout: float, log: str) -> Sample:
    """Run argv to completion; time it and read its own rusage from wait4."""
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    if not ok:
        tail = (cwd / f"{log}.err").read_text(errors="replace")[-2000:]
        print(f"{log}: exit {proc.returncode} from {' '.join(argv[:4])} ...\n{tail}", file=sys.stderr)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, ok)


class Variant:
    """One input variant of a workload: its work dir, argv and reference outputs."""

    def __init__(self, workload, index: int, root: Path):
        self.index = index
        self.work = root / f"v{index}"
        self.work.mkdir(parents=True)
        self.argv = workload.prepare(self.work, index)
        self.reference = reference(workload, index)
        self.first: dict[str, bytes] | None = None


class Runner:
    """Runs commands of one workload and checks every output; counts failures."""

    def __init__(self, workload, hard_deadline: float):
        self.workload = workload
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0

    def run(self, variant: Variant, prefix: list[str], log: str) -> Sample:
        for name in self.workload.outputs:
            (variant.work / name).unlink(missing_ok=True)
        self.attempted += 1
        sample = spawn(prefix + variant.argv, variant.work, self.hard_deadline - time.perf_counter(), log)
        if sample.ok:
            problems = self._check(variant)
            for p in problems:
                print(f"{log} (variant {variant.index}): {p}", file=sys.stderr)
            sample.ok = not problems
        self.failed += not sample.ok
        return sample

    def _check(self, variant: Variant) -> list[str]:
        missing = [n for n in self.workload.outputs if not (variant.work / n).is_file()]
        if missing:
            return [f"missing output {n}" for n in missing]
        got = {n: (variant.work / n).read_bytes() for n in self.workload.outputs}
        if variant.first is None:
            variant.first = got
        problems = self.workload.check(variant.reference, got)
        return problems + [f"{n}: not byte-identical to the first repeat" for n in got if got[n] != variant.first[n]]

    def failed_frac_line(self) -> str:
        return f"failed_frac    {self.failed / self.attempted:10.4f}  ({self.failed} of {self.attempted} commands)"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "diswot").glob("*.py")))
    return {
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": " ".join(f"{k}={v}" for k, v in BLAS_PIN.items()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_diswot_lines": lines,
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-module metrics of one traced command, from its spans."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str, field: str) -> float:
        return sum(s.get(field, 0) for s in by_name[name])

    m: dict[str, float] = {}
    for name in CALLED_AND_TIMED:
        m[f"{name}.calls"] = len(by_name[name])
    for name in CALLED_AND_TIMED + SELF_TIMED:
        m[f"{name}.self_s"] = total(name, "self_s")
    conv_s = m["kernels.conv2d.self_s"]
    m["kernels.conv2d.flop"] = total("kernels.conv2d", "flop")
    m["kernels.conv2d.im2col_bytes"] = total("kernels.conv2d", "im2col_bytes")
    m["kernels.conv2d.gflop_per_s"] = m["kernels.conv2d.flop"] / conv_s / 1e9 if conv_s else 0.0
    for shape in S0_CONV_SHAPES:
        m[f"kernels.conv2d.{shape}.self_s"] = sum(
            s["self_s"] for s in by_name["kernels.conv2d"] if s["shape"] == shape
        )
    m["network.forward.calls"] = len(by_name["network.activations"]) + len(by_name["network.relu_codes"])
    m["network.relu_codes.bytes"] = total("network.relu_codes", "bytes")
    m["metrics.nwot_from_codes.float_bytes"] = total("metrics.nwot_from_codes", "float_bytes")
    fitness = by_name["search.fitness"]
    m["search.fitness.calls"] = len(fitness)
    m["search.fitness.unique_archs"] = len({s["key"] for s in fitness})
    m["search.fitness.unique_frac"] = m["search.fitness.unique_archs"] / len(fitness) if fitness else 0.0
    peaks = [s["peak_bytes"] for s in by_name["rankstats.kendall_tau"]]
    m["rankstats.kendall_tau.peak_mib"] = max(peaks) / 2**20 if peaks else 0.0
    return m


def self_time_table(spans: list[dict], top: int = 12) -> list[str]:
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span["name"]] += span["self_s"]
    whole = sum(by_name.values()) or 1.0
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return [f"  {name:<40} {secs:9.3f} s {100 * secs / whole:5.1f} %" for name, secs in ranked]


def fits(typical_s: float, deadline: float, hard_deadline: float) -> bool:
    """Whether one more command of typical length ends by the deadline."""
    now = time.perf_counter()
    return now + typical_s <= deadline and now + 2 * typical_s <= hard_deadline


def median_of(samples: list[Sample], field: str) -> float:
    return statistics.median(getattr(s, field) for s in samples)


def balanced(values: list[float], variant_of: list[int]) -> float:
    """Median over variants of each variant's median.

    Variants of one workload need not do equal work (search-s0's paths differ),
    and a run need not repeat each variant equally often; this gives every
    variant one vote, whichever of them a run happened to repeat, and still
    shrugs off one slow outlier.
    """
    by_variant: dict[int, list[float]] = defaultdict(list)
    for value, variant in zip(values, variant_of):
        by_variant[variant].append(value)
    return statistics.median(statistics.median(v) for v in by_variant.values())


def timed_run(runner: Runner, variants: list[Variant], deadline: float) -> tuple[dict, bool]:
    """Alternate set-up probes and commands over the variants until the deadline."""
    probe = [sys.executable, str(HERE / "probe.py"), *runner.workload.probe]
    setup: list[Sample] = []
    samples: list[Sample] = []
    variant_of: list[int] = []
    # At least one command of every variant, then as many more as fit.
    while len(samples) < len(variants) or fits(median_of(setup, "wall_s") + median_of(samples, "wall_s"),
                                               deadline, runner.hard_deadline):
        variant = variants[len(samples) % len(variants)]
        setup.append(spawn(probe, variant.work, runner.hard_deadline - time.perf_counter(), f"probe{len(setup)}"))
        samples.append(runner.run(variant, DISWOT_CLI, f"cmd{len(samples)}"))
        variant_of.append(variant.index)
    columns = {name: [getattr(s, name) for s in samples] for name in ("wall_s", "cpu_s", "peak_rss_mib")}
    columns["setup_s"] = [s.wall_s for s in setup]
    print(f"{'metric':<14} {'reported':>10} {'min':>10} {'max':>10}  n")
    value = {name: balanced(col, variant_of) for name, col in columns.items() if name != "setup_s"}
    # The set-up probe does the same work for every variant: a plain median.
    value["setup_s"] = statistics.median(columns["setup_s"])
    for name, col in columns.items():
        print(f"{name:<14} {value[name]:10.4f} {min(col):10.4f} {max(col):10.4f}  {len(col)}")
    print(runner.failed_frac_line())
    metrics = {name: {"value": value[name], "unit": END_TO_END[name]} for name in columns}
    return metrics, all(s.ok for s in setup)


def traced_run(runner: Runner, variants: list[Variant], deadline: float) -> dict:
    """Alternate plain and traced commands over the variants until the deadline.

    The first pair is always variant 0, whose counts are the ones reported, so
    that counts do not change with the seed; times are medians over all pairs.
    """
    variants = sorted(variants, key=lambda v: v.index)
    per_pair: list[dict[str, float]] = []
    pair_s: list[float] = []
    spans: list[dict] = []
    while not per_pair or fits(statistics.median(pair_s), deadline, runner.hard_deadline):
        variant = variants[len(per_pair) % len(variants)]
        spans_path = variant.work / "spans.jsonl"
        plain = runner.run(variant, DISWOT_CLI, f"plain{len(per_pair)}")
        spans_path.unlink(missing_ok=True)
        tracer = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        traced = runner.run(variant, tracer, f"traced{len(per_pair)}")
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()] if spans_path.exists() else []
        layers = layer_metrics(spans)
        layers["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        per_pair.append(layers)
        pair_s.append(plain.wall_s + traced.wall_s)
    print(f"self time by span, last traced command (spans in {spans_path.relative_to(ROOT)});")
    print("with --jobs > 1 a caller's self time includes waiting for its worker threads:")
    print("\n".join(self_time_table(spans)))
    print(runner.failed_frac_line())
    return {
        name: {"value": per_pair[0][name] if unit in COUNTED_UNITS else statistics.median(p[name] for p in per_pair),
               "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    # On SIGTERM, unwind so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diswot" / "cli.py").is_file():
        print(f"error: no diswot package at {SRC}; run from the root of a diswot checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    variants = [Variant(workload, (args.seed + j) % VARIANTS, work) for j in range(VARIANTS)]
    runner = Runner(workload, started + HARD_LIMIT_S)
    print(f"workload {workload.name}, variants in order {[v.index for v in variants]}:")
    print(f"  diswot {' '.join(variants[0].argv)}")
    print("environment: " + json.dumps(environment(), sort_keys=True))

    deadline = time.perf_counter() + args.seconds
    setup_ok = True
    if args.trace:
        metrics = traced_run(runner, variants, deadline)
    else:
        metrics, setup_ok = timed_run(runner, variants, deadline)
    print(json.dumps({
        "correct": runner.failed == 0 and setup_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
