"""Batch provisioning and CSV artifact tests."""

import re

import numpy as np
import pytest

from diswot.data import (
    CIFAR10_MEAN,
    CIFAR10_STD,
    CIFAR100_MEAN,
    CIFAR100_STD,
    ScoreRow,
    load_accuracy_csv,
    load_cifar_batch,
    read_scores_csv,
    synth_batch,
    write_scores_csv,
)


# ---------------------------------------------------------------------------
# synthetic batches


def test_synth_batch_deterministic():
    a = synth_batch(8, 3, 32, 32, 10, seed=5)
    b = synth_batch(8, 3, 32, 32, 10, seed=5)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synth_batch(8, 3, 32, 32, 10, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_synth_batch_label_range():
    batch = synth_batch(10_000, 1, 1, 1, 7, seed=0)
    assert batch.labels.min() >= 0
    assert batch.labels.max() <= 6
    # every class appears over this many draws
    assert len(set(batch.labels.tolist())) == 7


def test_synth_batch_pixel_statistics():
    batch = synth_batch(10, 1, 100, 100, 10, seed=1)  # 1e5 pixels
    n = batch.images.size
    assert abs(batch.images.mean()) < 3.0 / np.sqrt(n)


def test_synth_batch_min_size():
    with pytest.raises(ValueError):
        synth_batch(1, 3, 8, 8, 10, seed=0)


# ---------------------------------------------------------------------------
# CIFAR binary decoding


def make_cifar10_file(tmp_path, n_records, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_records):
        label = bytes([i % 10])
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
        records.append(label + pixels)
    path = tmp_path / "c10.bin"
    path.write_bytes(b"".join(records))
    return path, records


def test_cifar10_byte_oracle(tmp_path):
    path, records = make_cifar10_file(tmp_path, 2)
    batch = load_cifar_batch(path, 2, 0)
    assert batch.images.shape == (2, 3, 32, 32)
    assert set(batch.labels.tolist()) == {0, 1}
    # identify which sampled row is file record 0 by its label
    row = int(np.argwhere(batch.labels == 0)[0][0])
    raw = records[0][1]  # first red-channel byte of record 0
    want = (raw / 255.0 - CIFAR10_MEAN[0]) / CIFAR10_STD[0]
    assert batch.images[row, 0, 0, 0] == pytest.approx(want, abs=1e-12)


def test_cifar100_second_label_byte(tmp_path):
    rng = np.random.default_rng(1)
    blobs = []
    for coarse, fine in [(3, 41), (7, 99)]:
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
        blobs.append(bytes([coarse, fine]) + pixels)
    path = tmp_path / "c100.bin"
    path.write_bytes(b"".join(blobs))
    batch = load_cifar_batch(path, 2, 0)
    assert set(batch.labels.tolist()) == {41, 99}
    row = int(np.argwhere(batch.labels == 41)[0][0])
    raw = blobs[0][2]
    want = (raw / 255.0 - CIFAR100_MEAN[0]) / CIFAR100_STD[0]
    assert batch.images[row, 0, 0, 0] == pytest.approx(want, abs=1e-12)


def test_cifar_seeded_sampling_reproducible(tmp_path):
    path, _ = make_cifar10_file(tmp_path, 8)
    a = load_cifar_batch(path, 4, 3)
    b = load_cifar_batch(path, 4, 3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_cifar_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(5000))
    with pytest.raises(ValueError, match="record"):
        load_cifar_batch(path, 2)


def test_cifar_batch_exceeding_records(tmp_path):
    path, _ = make_cifar10_file(tmp_path, 3)
    with pytest.raises(ValueError):
        load_cifar_batch(path, 4)


def test_cifar_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        load_cifar_batch(path, 2)


def test_cifar_ambiguous_length_needs_format(tmp_path):
    # 3073 and 3074 are coprime, so the smallest ambiguous size is their product
    path = tmp_path / "ambig.bin"
    path.write_bytes(bytes(3073 * 3074))
    with pytest.raises(ValueError, match="ambiguous|format"):
        load_cifar_batch(path, 2)
    batch = load_cifar_batch(path, 2, 0, fmt="cifar10")
    assert batch.images.shape == (2, 3, 32, 32)


def test_cifar_explicit_format_mismatch(tmp_path):
    path, _ = make_cifar10_file(tmp_path, 2)
    with pytest.raises(ValueError):
        load_cifar_batch(path, 2, fmt="cifar100")


# ---------------------------------------------------------------------------
# scores CSV


def sample_rows():
    return [
        ScoreRow("3-5-7", "diswot", -0.0123456789012345678, True, 0),
        ScoreRow("1-1-1", "diswot", -7.25, True, 0),
        ScoreRow("3-5-7", "params", 334132.0, True, 1),
    ]


def test_scores_csv_round_trip(tmp_path):
    path = tmp_path / "scores.csv"
    rows = sample_rows()
    write_scores_csv(path, rows, config={"space": "s0", "seeds": [0, 1]})
    back = read_scores_csv(path)
    assert len(back) == 3
    for orig, read in zip(rows, back):
        assert read.arch_id == orig.arch_id
        assert read.proxy == orig.proxy
        assert read.value == orig.value  # 17 significant digits survive
        assert read.higher_is_better == orig.higher_is_better
        assert read.seed == orig.seed


def test_scores_csv_layout(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(path, sample_rows(), config={"space": "s0"})
    lines = path.read_text().splitlines()
    assert lines[0] == '# config: {"space": "s0"}'
    assert lines[1] == "arch_id,proxy,value,higher_is_better,seed"
    assert lines[2].endswith(",true,0")


def test_scores_csv_no_config_line(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(path, sample_rows())
    assert path.read_text().startswith("arch_id,proxy,value")


@pytest.mark.parametrize("read", [read_scores_csv, load_accuracy_csv], ids=["scores", "accuracy"])
@pytest.mark.parametrize("text,where", [
    ("arch,proxy,value\n", ":1: expected header"),
    ("# config: {}\n\narch,proxy,value\n", ":3: expected header"),
    ("", ": no header line"),
    ("# config: {}\n\n", ": no header line"),
], ids=["wrong", "wrong-after-comment", "empty", "comment-only"])
def test_csv_bad_header(tmp_path, read, text, where):
    # The message names the file, and the header's physical line where there is one.
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
        read(path)


def test_scores_csv_bad_value_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "arch_id,proxy,value,higher_is_better,seed\n"
        "a,diswot,0.5,true,0\n"
        "b,diswot,oops,true,0\n"
    )
    with pytest.raises(ValueError, match=r":3:"):
        read_scores_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scores_csv_non_finite_value_names_line_and_arch(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(
        "arch_id,proxy,value,higher_is_better,seed\n"
        "a,diswot,0.5,true,0\n"
        f"b,diswot,{value},true,0\n"
    )
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite value .* for arch_id 'b'"):
        read_scores_csv(path)


def test_scores_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("arch_id,proxy,value,higher_is_better,seed\n")
    with pytest.raises(ValueError):
        read_scores_csv(path)


def test_scores_csv_wrong_field_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("arch_id,proxy,value,higher_is_better,seed\na,diswot,0.5\n")
    with pytest.raises(ValueError, match=r":2:"):
        read_scores_csv(path)


def test_scores_csv_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "# config: {}\n"
        "arch_id,proxy,value,higher_is_better,seed\n"
        "a,diswot,0.5,true,0\n"
        "# a note between rows\n"
        "\n"
        "b,diswot,-1.5,false,2\n"
        "\n"
    )
    assert read_scores_csv(path) == [ScoreRow("a", "diswot", 0.5, True, 0), ScoreRow("b", "diswot", -1.5, False, 2)]


def test_scores_csv_quoted_comma_round_trip(tmp_path):
    path = tmp_path / "scores.csv"
    rows = [ScoreRow('{"depths": [1, 2]}', "params", 7.0, True, 0), ScoreRow("1-1-1", "params", 8.0, True, 0)]
    write_scores_csv(path, rows, config={"space": "s0"})
    assert '"{""depths"": [1, 2]}"' in path.read_text()
    assert read_scores_csv(path) == rows


def test_scores_csv_error_counts_comment_lines(tmp_path):
    # The bad record is the fourth data line but the sixth line of the file.
    path = tmp_path / "bad.csv"
    path.write_text(
        "# config: {}\n"
        "arch_id,proxy,value,higher_is_better,seed\n"
        "a,diswot,0.5,true,0\n"
        "# note\n"
        "b,diswot,0.7,true,0\n"
        "c,diswot,oops,true,0\n"
    )
    with pytest.raises(ValueError, match=r"bad\.csv:6: "):
        read_scores_csv(path)


def test_score_row_is_an_immutable_tuple():
    row = ScoreRow("1-1-1", "diswot", 0.5, True, 3)
    assert row == ("1-1-1", "diswot", 0.5, True, 3)
    assert row._fields == ("arch_id", "proxy", "value", "higher_is_better", "seed")
    with pytest.raises(AttributeError):
        row.value = 1.0


# ---------------------------------------------------------------------------
# accuracy CSV


def test_accuracy_csv_round_trip(tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("arch_id,accuracy\n3-3-3,71.51\n1-1-1,68.20\n")
    table = load_accuracy_csv(path)
    assert table == {"3-3-3": 71.51, "1-1-1": 68.20}


def test_accuracy_csv_duplicate_id(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("arch_id,accuracy\na,1.0\na,2.0\n")
    with pytest.raises(ValueError, match="'a'"):
        load_accuracy_csv(path)


def test_accuracy_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("arch_id,accuracy\n")
    with pytest.raises(ValueError):
        load_accuracy_csv(path)


def test_accuracy_csv_bad_float(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arch_id,accuracy\na,high\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_accuracy_csv(path)


def test_accuracy_csv_error_counts_comment_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# source: synthetic\narch_id,accuracy\n\n# note\na,1.0\nb,high\n")
    with pytest.raises(ValueError, match=r"bad\.csv:6: bad accuracy value 'high'"):
        load_accuracy_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_accuracy_csv_non_finite_names_line_and_arch(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"arch_id,accuracy\na,1.0\nb,{value}\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite accuracy .* for arch_id 'b'"):
        load_accuracy_csv(path)
