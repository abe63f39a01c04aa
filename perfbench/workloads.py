"""The three benchmark workloads: generated inputs, CLI argv, and output checks.

Every workload is a real ``diswot`` CLI command. Each has VARIANTS input
variants; the program sees only the argv and files generated for a variant.
A run cycles through all of them, in an order set by the workload seed, so
every run checks every stored reference, and run.py weighs the variants
alike, so every run measures the same mix of inputs.
Reference outputs live under ``perfbench/ref/<workload>/v<k>/`` and are
written by ``perfbench/make_refs.py``.

Commands are sized (batch 4, rank samples of 4000 cells) so that one lasts
4 to 10 s on a 2-core machine and a 40 s run holds one of each variant.

Why these three:

- ``score-s0`` scores all 64 distinct s0 students, so no candidate repeats and
  a fitness memo has nothing to reuse. ``nwot`` runs a second forward per
  student (the target of a fused forward). It runs at ``--jobs 1``: with two
  worker threads on a 2-core host the wall time measured how much of the
  second core the host gave, and spread by over a third of its median between
  runs of the same code. Every variant does the same work: only the seed
  (weights and batch) changes.
- ``search-s0`` is a serial, diswot-only evolutionary search in which about
  half of the fitness calls repeat an architecture already scored, so a memo
  shows its effect here. Its teacher is ResNet56 (``9-9-9``), which lies
  outside the 64-student grid, so no student matches it exactly and the
  search path follows the student scores: on every variant the best
  architecture changes during the search. The search seed is fixed and the
  variant changes the scoring batch, read from a generated CIFAR-10 file;
  changing the search seed instead moves the run time by up to 1.8x between
  seeds, because seeds converge to networks of very different depth.
- ``rank-nb201`` ranks a synthetic table over all 15 625 NB201 cells. It runs
  no forward pass at all; ``kendall_tau`` dominates time and peak memory.
  Scores and accuracies are rounded, so the table has many ties.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 4
REF_DIR = Path(__file__).resolve().parent / "ref"

S0_BATCH = 4
RANK_SAMPLE = 4000
RANK_REPEATS = 10
SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    # Writes the variant's input files into the work dir and returns the CLI argv.
    prepare: Callable[[Path, int], list[str]]
    # Files the command writes into the work dir, in a fixed order.
    outputs: tuple[str, ...]
    # (reference bytes, produced bytes) per output -> list of problems found.
    check: Callable[[dict[str, bytes], dict[str, bytes]], list[str]]
    # Arguments for probe.py, which times the command's fixed set-up cost.
    probe: tuple[str, ...]


# ---------------------------------------------------------------------------
# input generation


def write_cifar10_batch(path: Path, n_records: int, seed: int) -> None:
    """n_records CIFAR-10 binary records (label byte + 3072 pixel bytes)."""
    g = np.random.default_rng(seed)
    labels = g.integers(0, 10, size=(n_records, 1))
    pixels = g.integers(0, 256, size=(n_records, 3072))
    np.concatenate([labels, pixels], axis=1).astype(np.uint8).tofile(path)


def nb201_ids() -> list[str]:
    """All 5**6 NB201 cell ids, in the order of itertools.product over NB201_OPS."""
    from diswot.arch import NB201_OPS, NB201Cell, arch_id

    return [arch_id(NB201Cell(ops)) for ops in itertools.product(NB201_OPS, repeat=6)]


def write_rank_tables(scores_path: Path, accuracy_path: Path, seed: int) -> None:
    """A seeded synthetic proxy-score table and accuracy table over all of NB201.

    Accuracies are rounded to 2 decimals and scores (accuracy plus noise) to 1
    decimal, so both columns carry many ties.
    """
    from diswot.data import ACCURACY_HEADER, ScoreRow, write_scores_csv

    ids = nb201_ids()
    g = np.random.default_rng(seed)
    accuracy = np.round(np.clip(g.normal(85.0, 8.0, len(ids)), 10.0, 94.5), 2)
    scores = np.round(accuracy + g.normal(0.0, 6.0, len(ids)), 1)
    write_scores_csv(scores_path, [ScoreRow(i, "diswot", float(s), True, 0) for i, s in zip(ids, scores)])
    with open(accuracy_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ACCURACY_HEADER)
        writer.writerows([i, f"{a:.2f}"] for i, a in zip(ids, accuracy))


# ---------------------------------------------------------------------------
# output checks


def _score_rows(data: bytes) -> list[list[str]]:
    lines = data.decode().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


def check_scores(ref: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    """Identical arch_id/proxy/seed rows and values within SCORE_RTOL."""
    want, have = _score_rows(ref["scores.csv"]), _score_rows(got["scores.csv"])
    if len(want) != len(have):
        return [f"scores.csv: {len(have)} lines, reference has {len(want)}"]
    problems = []
    for n, (w, h) in enumerate(zip(want, have)):
        if n == 0 or len(w) != 5 or len(h) != 5:
            if w != h:
                problems.append(f"scores.csv line {n}: {h} != {w}")
            continue
        if w[:2] + w[3:] != h[:2] + h[3:]:
            problems.append(f"scores.csv row {n}: key {h} != {w}")
        elif not math.isclose(float(h[2]), float(w[2]), rel_tol=SCORE_RTOL, abs_tol=0.0):
            problems.append(f"scores.csv row {n}: {h[0]} {h[1]} value {h[2]} != {w[2]}")
    return problems


def _search_record_problems(where: str, want: dict, have: dict, keys: tuple[str, ...]) -> list[str]:
    """Identical values under keys, and best_score within SCORE_RTOL."""
    problems = [f"{where} {key}: {have.get(key)!r} != {want[key]!r}" for key in keys if have.get(key) != want[key]]
    score = have.get("best_score")
    if not isinstance(score, float) or not math.isclose(score, want["best_score"], rel_tol=SCORE_RTOL, abs_tol=0.0):
        problems.append(f"{where} best_score: {score!r} != {want['best_score']!r}")
    return problems


def check_search(ref: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    """Identical best_arch and evaluations, in the summary and at every iteration,
    and best_score within SCORE_RTOL."""
    want, have = json.loads(ref["search.summary.json"]), json.loads(got["search.summary.json"])
    problems = _search_record_problems("summary", want, have, ("best_arch", "evaluations"))
    want_log = [json.loads(line) for line in ref["search.jsonl"].splitlines()]
    have_log = [json.loads(line) for line in got["search.jsonl"].splitlines()]
    if len(want_log) != len(have_log):
        return problems + [f"search.jsonl: {len(have_log)} iterations, reference has {len(want_log)}"]
    for w, h in zip(want_log, have_log):
        problems += _search_record_problems(f"search.jsonl iter {w['iter']}", w, h, ("iter", "best_arch", "evals"))
    return problems


def check_identical(ref: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    return [f"{name}: differs from the reference" for name in ref if ref[name] != got[name]]


# ---------------------------------------------------------------------------
# workloads


def _prepare_score(work: Path, variant: int) -> list[str]:
    return [
        "score", "--space", "s0", "--all-s0", "--proxy", "diswot", "--proxy", "nwot",
        "--batch-size", str(S0_BATCH), "--jobs", "1", "--seed", str(variant), "--out", "scores.csv",
    ]


def _prepare_search(work: Path, variant: int) -> list[str]:
    write_cifar10_batch(work / "batch.bin", S0_BATCH, variant)
    return [
        "search", "--space", "s0", "--strategy", "evo", "--fitness", "diswot",
        "--population", "10", "--iters", "38", "--topk", "3", "--teacher", "resnet56",
        "--batch-size", str(S0_BATCH), "--data", "batch.bin", "--data-format", "cifar10", "--seed", "0",
        "--out", "search.jsonl", "--summary", "search.summary.json",
    ]


def _prepare_rank(work: Path, variant: int) -> list[str]:
    write_rank_tables(work / "nb201_scores.csv", work / "nb201_accuracy.csv", variant)
    return [
        "rank", "--scores", "nb201_scores.csv", "--accuracy", "nb201_accuracy.csv",
        "--sample", str(RANK_SAMPLE), "--seeds", str(RANK_REPEATS), "--seed", str(variant),
        "--out", "report.csv",
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("score-s0", _prepare_score, ("scores.csv",), check_scores,
                 ("forward", "synthetic", str(S0_BATCH), "7-7-7")),
        Workload("search-s0", _prepare_search, ("search.jsonl", "search.summary.json"), check_search,
                 ("forward", "batch.bin", str(S0_BATCH), "9-9-9")),
        Workload("rank-nb201", _prepare_rank, ("report.csv",), check_identical,
                 ("tables", "nb201_scores.csv", "nb201_accuracy.csv")),
    )
}


def reference(workload: Workload, variant: int) -> dict[str, bytes]:
    """Stored reference outputs; raises FileNotFoundError when absent."""
    base = REF_DIR / workload.name / f"v{variant}"
    return {name: (base / name).read_bytes() for name in workload.outputs}
