"""Scoring batches and file artifacts.

Batches come either from CIFAR binary files (records of 1 or 2 label bytes
plus 3072 channel-major RGB pixel bytes) or from a seeded synthetic
generator. CSV writers format floats with 17 significant digits so a
write/read round trip reproduces every IEEE double exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .rng import stream

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)
CIFAR100_MEAN = (0.5071, 0.4865, 0.4409)
CIFAR100_STD = (0.2673, 0.2564, 0.2762)

_RECORD_BYTES = {"cifar10": 1 + 3072, "cifar100": 2 + 3072}

SCORES_HEADER = ["arch_id", "proxy", "value", "higher_is_better", "seed"]
ACCURACY_HEADER = ["arch_id", "accuracy"]
REPORT_HEADER = ["proxy", "metric", "mean", "std", "n_seeds", "n_archs"]

# Fixed stream ids for the module's two seeded entry points.
_SYNTH_STREAM = 0x53594E54
_CIFAR_STREAM = 0x43494641


@dataclass(frozen=True, eq=False)
class Batch:
    """One scoring mini-batch: images [B,3,H,W] float64, integer labels [B]."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be [B,C,H,W], got shape {self.images.shape}")
        b = self.images.shape[0]
        if b < 2:
            raise ValueError("a batch needs at least 2 samples")
        if self.labels.shape != (b,):
            raise ValueError(f"labels must have shape ({b},)")
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        if not np.isfinite(self.images).all():
            raise ValueError("images must be finite")


def synth_batch(
    batch_size: int,
    channels: int = 3,
    height: int = 32,
    width: int = 32,
    n_classes: int = 10,
    seed: int = 0,
) -> Batch:
    """Standard-normal images with uniform labels, fully determined by seed."""
    if batch_size < 2:
        raise ValueError("a batch needs at least 2 samples")
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    g = stream(seed, _SYNTH_STREAM)
    images = g.standard_normal((batch_size, channels, height, width))
    labels = g.integers(0, n_classes, size=batch_size)
    return Batch(images, labels)


def _detect_format(n_bytes: int, path) -> str:
    fits10 = n_bytes % _RECORD_BYTES["cifar10"] == 0
    fits100 = n_bytes % _RECORD_BYTES["cifar100"] == 0
    if fits10 and fits100:
        raise ValueError(f"{path}: size fits both formats, pass fmt='cifar10' or 'cifar100'")
    if fits10:
        return "cifar10"
    if fits100:
        return "cifar100"
    raise ValueError(f"{path}: {n_bytes} bytes is not a whole number of records (truncated file?)")


def load_cifar_batch(
    path: str | Path,
    batch_size: int,
    seed: int = 0,
    fmt: str = "auto",
) -> Batch:
    """Sample batch_size records without replacement from a CIFAR binary file.

    The records are drawn from a stream fully determined by seed.

    Records hold 1 (cifar10) or 2 (cifar100: coarse then fine) label bytes
    followed by 3072 pixel bytes, channel-major R,G,B, 32x32 row-major.
    Pixels are scaled to [0,1] and standardized with the canonical
    per-channel constants; cifar100 uses the fine label.
    """
    raw = Path(path).read_bytes()
    if not raw:
        raise ValueError(f"{path}: empty file")
    if fmt == "auto":
        fmt = _detect_format(len(raw), path)
    if fmt not in _RECORD_BYTES:
        raise ValueError(f"unknown format {fmt!r}")
    record = _RECORD_BYTES[fmt]
    if len(raw) % record != 0:
        raise ValueError(f"{path}: {len(raw)} bytes is not a multiple of {record} (truncated file?)")
    n_records = len(raw) // record
    if batch_size > n_records:
        raise ValueError(f"batch of {batch_size} exceeds the {n_records} records in {path}")
    if batch_size < 2:
        raise ValueError("a batch needs at least 2 samples")

    records = np.frombuffer(raw, dtype=np.uint8).reshape(n_records, record)
    picked = stream(seed, _CIFAR_STREAM).choice(n_records, size=batch_size, replace=False)
    label_bytes = record - 3072
    labels = records[picked, label_bytes - 1].astype(np.int64)
    pixels = records[picked, label_bytes:].reshape(batch_size, 3, 32, 32).astype(np.float64) / 255.0
    mean, std = (CIFAR10_MEAN, CIFAR10_STD) if fmt == "cifar10" else (CIFAR100_MEAN, CIFAR100_STD)
    images = (pixels - np.asarray(mean).reshape(1, 3, 1, 1)) / np.asarray(std).reshape(1, 3, 1, 1)
    return Batch(images, labels)


# ---------------------------------------------------------------------------
# CSV artifacts


class ScoreRow(NamedTuple):
    arch_id: str
    proxy: str
    value: float
    higher_is_better: bool
    seed: int


def _format_value(v: float) -> str:
    return f"{v:.17g}"


def _write_table(path: str | Path, header: list[str], records, config: dict | None) -> None:
    """Write the config comment (when config is given), the header, then each record as a CSV row."""
    with open(path, "w", newline="") as f:
        if config is not None:
            f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(records)


def write_scores_csv(path: str | Path, rows, config: dict | None = None) -> None:
    records = ([r.arch_id, r.proxy, _format_value(r.value), "true" if r.higher_is_better else "false", r.seed]
               for r in rows)
    _write_table(path, SCORES_HEADER, records, config)


def _data_lines(path, header: list[str]):
    """(line_number, fields) for each non-blank, non-comment record after the header.

    One csv.reader parses a stream of the file's non-comment lines, so no
    line list is held; line_number is the record's physical line, counting
    comment lines. The first record must equal header.
    """
    with open(path, newline="") as f:
        number = 0

        def records():
            nonlocal number
            for number, line in enumerate(f, start=1):
                if not line.startswith("#"):
                    yield line

        reader = csv.reader(records())
        first = next((fields for fields in reader if fields), None)
        if first is None:
            raise ValueError(f"{path}: no header line")
        if first != header:
            raise ValueError(f"{path}:{number}: expected header {','.join(header)}")
        for fields in reader:
            if fields:
                yield number, fields


def read_scores_csv(path: str | Path) -> list[ScoreRow]:
    rows: list[ScoreRow] = []
    for n, fields in _data_lines(path, SCORES_HEADER):
        if len(fields) != 5:
            raise ValueError(f"{path}:{n}: expected 5 fields, got {len(fields)}")
        arch, proxy, value, hib, seed = fields
        if hib not in ("true", "false"):
            raise ValueError(f"{path}:{n}: higher_is_better must be true/false, got {hib!r}")
        try:
            row = ScoreRow(arch, proxy, float(value), hib == "true", int(seed))
        except ValueError as e:
            raise ValueError(f"{path}:{n}: {e}") from None
        if not math.isfinite(row.value):
            raise ValueError(f"{path}:{n}: non-finite value {value!r} for arch_id {arch!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no score rows")
    return rows


def load_accuracy_csv(path: str | Path) -> dict[str, float]:
    """arch_id -> accuracy, preserving file order."""
    table: dict[str, float] = {}
    for n, fields in _data_lines(path, ACCURACY_HEADER):
        if len(fields) != 2:
            raise ValueError(f"{path}:{n}: expected 2 fields, got {len(fields)}")
        arch, acc = fields
        if arch in table:
            raise ValueError(f"{path}:{n}: duplicate arch_id {arch!r}")
        try:
            table[arch] = float(acc)
        except ValueError:
            raise ValueError(f"{path}:{n}: bad accuracy value {acc!r}") from None
        if not math.isfinite(table[arch]):
            raise ValueError(f"{path}:{n}: non-finite accuracy {acc!r} for arch_id {arch!r}")
    if not table:
        raise ValueError(f"{path}: no accuracy rows")
    return table


def write_report_csv(path: str | Path, rows, config: dict | None = None) -> None:
    """Write rankstats.report_rows rows, each percentage to two decimals."""
    records = ([proxy, metric, f"{mean:.2f}", f"{std:.2f}", n_seeds, n_archs]
               for proxy, metric, mean, std, n_seeds, n_archs in rows)
    _write_table(path, REPORT_HEADER, records, config)
