"""Rank-correlation statistics between proxy scores and true accuracies.

kendall_tau, spearman, and pearson take two equal-length 1-d arrays of
finite values. Kendall is tau-a by default: ties contribute zero to the
numerator and the denominator stays C(M,2); pass tie_correction=True for the
tau-b denominator used by most statistics libraries.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import read_scores_csv


MIN_ROWS = 3  # the fewest rows pearson, spearman and a rank report are defined on


class MissingArchError(ValueError):
    """A sampled arch_id has no entry in the accuracy table."""


def _as_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need two equal-length 1-d arrays, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    return x, y


def _is_constant(x: np.ndarray) -> bool:
    return bool(np.all(x == x[0]))


def _tied_pairs(counts: np.ndarray) -> int:
    return int((counts * (counts - 1) // 2).sum())


def _count_inversions(v: np.ndarray) -> int:
    """Pairs i < j with v[i] > v[j], for integer v in [0, len(v)).

    Bottom-up merge sort, one vectorised pass per level: at width w the
    array is sorted within blocks of w, and each element of a right half
    counts the elements of its left half that are strictly greater.
    """
    m = len(v)
    pos = np.arange(m)
    inversions = 0
    width = 1
    while width < m:
        block = pos // (2 * width)
        key = block * (m + 1) + v
        is_left = (pos // width) % 2 == 0
        left = key[is_left]  # sorted: blocks ascend, each half is sorted
        left_end = np.searchsorted(left, (block[~is_left] + 1) * (m + 1), side="left")
        inversions += int((left_end - np.searchsorted(left, key[~is_left], side="right")).sum())
        v = np.sort(key, kind="stable") - block * (m + 1)
        width *= 2
    return inversions


def kendall_tau(x, y, *, tie_correction: bool = False) -> float:
    """Pairwise concordance: sum of sgn(dx)*sgn(dy) over pairs, / C(M,2).

    With tie_correction the denominator becomes the tau-b geometric mean of
    tie-adjusted pair counts.

    The concordance is counted with Knight's algorithm (Knight 1966, JASA
    61:436) in O(M log M) time and O(M) memory: order the pairs by (x, y),
    count the discordant pairs D as the strict inversions of the reordered
    y, and take S = C(M,2) - n_x - n_y + n_xy - 2D, where n_x, n_y and n_xy
    are the pairs tied in x, in y, and in both. S is an exact integer, so
    the result equals the pairwise sign sum bit for bit.
    """
    x, y = _as_xy(x, y)
    m = len(x)
    if m < 2:
        raise ValueError("kendall_tau needs at least 2 entries")
    if _is_constant(x) or _is_constant(y):
        warnings.warn("kendall_tau of a constant series is 0 by convention", RuntimeWarning, stacklevel=2)
        return 0.0
    _, rx, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, ry, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    order = np.lexsort((ry, rx))
    rx, ry = rx[order], ry[order]
    starts = np.flatnonzero(np.r_[True, (rx[1:] != rx[:-1]) | (ry[1:] != ry[:-1]), True])
    n_x, n_y, n_xy = _tied_pairs(x_counts), _tied_pairs(y_counts), _tied_pairs(np.diff(starts))
    concordance = m * (m - 1) // 2 - n_x - n_y + n_xy - 2 * _count_inversions(ry)
    n_pairs = m * (m - 1) / 2
    if not tie_correction:
        return float(concordance) / n_pairs
    denom = np.sqrt((n_pairs - n_x) * (n_pairs - n_y))
    return float(concordance) / denom


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    v = x[order]
    new_group = np.r_[True, v[1:] != v[:-1]]
    starts = np.flatnonzero(new_group)
    ends = np.r_[starts[1:] - 1, len(x) - 1]
    ranks = np.empty(len(x))
    ranks[order] = ((starts + ends) / 2 + 1)[np.cumsum(new_group) - 1]
    return ranks


def pearson(x, y) -> float:
    x, y = _as_xy(x, y)
    if len(x) < MIN_ROWS:
        raise ValueError(f"pearson needs at least {MIN_ROWS} entries")
    if _is_constant(x) or _is_constant(y):
        raise ValueError("pearson is undefined for a zero-variance series")
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc**2).sum() * (yc**2).sum()))


def spearman(x, y) -> float:
    """Pearson correlation of the average ranks."""
    x, y = _as_xy(x, y)
    if len(x) < MIN_ROWS:
        raise ValueError(f"spearman needs at least {MIN_ROWS} entries")
    if _is_constant(x) or _is_constant(y):
        warnings.warn("spearman of a constant series is 0 by convention", RuntimeWarning, stacklevel=2)
        return 0.0
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class CoefficientSummary:
    mean: float
    std: float


@dataclass(frozen=True)
class CorrelationReport:
    proxy_name: str
    kendall_tau: CoefficientSummary
    spearman: CoefficientSummary
    pearson: CoefficientSummary
    n_seeds: int
    n_archs: int


def _summary(values: list[float]) -> CoefficientSummary:
    arr = np.asarray(values, dtype=np.float64)
    return CoefficientSummary(float(arr.mean()), float(arr.std()))


class _Series:
    """One (file, seed) score series, joined to the accuracy table once.

    Holds the series' arch ids, their scores and accuracies as arrays, and
    which ids the accuracy table has; draw() then only picks indices.
    """

    def __init__(self, rows, accuracy: Mapping[str, float]):
        ids = [r.arch_id for r in rows]
        if len(set(ids)) != len(ids):
            counts = Counter(ids)
            dup = next(i for i in ids if counts[i] > 1)
            raise ValueError(f"duplicate arch_id {dup!r} within one seed's scores")
        found = [accuracy.get(i) for i in ids]
        self.ids = ids
        self.scores = np.array([r.value for r in rows])
        self.present = np.array([t is not None for t in found])
        self.targets = np.array([np.nan if t is None else t for t in found])

    def draw(self, sample_size: int | None, rng) -> tuple[np.ndarray, np.ndarray]:
        """(targets, scores) of one repetition: a sorted sample without replacement, or the whole series."""
        n = len(self.ids)
        if sample_size is not None and sample_size < n:
            if rng is None:
                raise ValueError("subsampling needs an rng")
            picked = np.sort(rng.choice(n, size=sample_size, replace=False))
        else:
            picked = np.arange(n)
        missing = ~self.present[picked]
        if missing.any():
            first = self.ids[picked[np.argmax(missing)]]
            raise MissingArchError(f"arch_id {first!r} missing from the accuracy table")
        if len(picked) < MIN_ROWS:
            raise ValueError(f"need at least {MIN_ROWS} joined rows per seed, got {len(picked)}")
        return self.targets[picked], self.scores[picked]


def evaluate_proxy(
    score_csv_paths: Sequence[str | Path],
    accuracy_table: Mapping[str, float],
    sample_size: int | None = None,
    rng: np.random.Generator | None = None,
    n_repeats: int | None = None,
) -> list[CorrelationReport]:
    """Correlate each proxy found in the score CSVs against the accuracy table.

    Each score CSV is streamed once. Rows are grouped into per-seed series by
    (file, seed column). The first repetition that uses a series checks it
    for duplicate arch_ids and joins it to the accuracy table; every
    repetition then samples it down to sample_size without replacement (when
    given) and reduces it to the three coefficients. Means and stds
    (population) aggregate over repetitions. n_repeats, when given, runs that
    many sampling repetitions, cycling over the available series; this is how
    one score file can back several subsampled evaluations.
    """
    by_proxy: dict[str, dict[tuple[int, int], list]] = {}
    for path_idx, path in enumerate(score_csv_paths):
        for row in read_scores_csv(path):
            by_proxy.setdefault(row.proxy, {}).setdefault((path_idx, row.seed), []).append(row)

    if not by_proxy:
        raise ValueError("no score rows found")

    reports = []
    for proxy in sorted(by_proxy):
        groups = [by_proxy[proxy][key] for key in sorted(by_proxy[proxy])]
        repeats = len(groups) if n_repeats is None else n_repeats
        if repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        joined: dict[int, _Series] = {}
        taus, rhos, rs, sizes = [], [], [], []
        for rep in range(repeats):
            index = rep % len(groups)
            if index not in joined:
                joined[index] = _Series(groups[index], accuracy_table)
            targets, scores = joined[index].draw(sample_size, rng)
            taus.append(kendall_tau(targets, scores))
            rhos.append(spearman(targets, scores))
            rs.append(pearson(targets, scores))
            sizes.append(len(targets))
        if len(set(sizes)) != 1:
            raise ValueError(f"inconsistent join sizes across seeds for {proxy!r}: {sorted(set(sizes))}")
        reports.append(
            CorrelationReport(proxy, _summary(taus), _summary(rhos), _summary(rs), repeats, sizes[0])
        )
    return reports


def report_rows(reports: Sequence[CorrelationReport]) -> list[tuple]:
    """Flatten reports to (proxy, metric, mean%, std%, n_seeds, n_archs) rows."""
    rows = []
    for rep in reports:
        for metric, summ in (
            ("kendall_tau", rep.kendall_tau),
            ("spearman", rep.spearman),
            ("pearson", rep.pearson),
        ):
            rows.append(
                (rep.proxy_name, metric, 100 * summ.mean, 100 * summ.std, rep.n_seeds, rep.n_archs)
            )
    return rows


def format_report_table(reports: Sequence[CorrelationReport]) -> str:
    """Human-readable table, coefficients as percent mean +- std."""
    header = f"{'proxy':<12} {'kendall_tau':>18} {'spearman':>18} {'pearson':>18}  seeds archs"
    lines = [header, "-" * len(header)]
    for rep in reports:
        cells = [
            f"{100 * s.mean:.2f} +- {100 * s.std:.2f}"
            for s in (rep.kendall_tau, rep.spearman, rep.pearson)
        ]
        lines.append(
            f"{rep.proxy_name:<12} {cells[0]:>18} {cells[1]:>18} {cells[2]:>18}  "
            f"{rep.n_seeds:>5} {rep.n_archs:>5}"
        )
    return "\n".join(lines)
