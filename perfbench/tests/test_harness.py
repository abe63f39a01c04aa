"""Fast smoke tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_every_variant_has_reference_outputs():
    for workload in workloads.WORKLOADS.values():
        for variant in range(workloads.VARIANTS):
            assert set(workloads.reference(workload, variant)) == set(workload.outputs)


def test_rank_tables_are_seeded_and_tied(tmp_path):
    a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
    workloads.write_rank_tables(a, b, seed=3)
    first = a.read_bytes(), b.read_bytes()
    workloads.write_rank_tables(a, b, seed=3)
    assert (a.read_bytes(), b.read_bytes()) == first
    workloads.write_rank_tables(a, c, seed=4)
    assert a.read_bytes() != first[0]
    from diswot.data import load_accuracy_csv, read_scores_csv

    scores = [r.value for r in read_scores_csv(tmp_path / "a.csv")]
    assert len(scores) == len(load_accuracy_csv(b)) == 5**6
    assert len(set(scores)) < len(scores) // 10


def test_checks_reject_wrong_outputs():
    ref = workloads.reference(workloads.WORKLOADS["score-s0"], 0)
    assert workloads.check_scores(ref, ref) == []
    text = ref["scores.csv"].decode()
    value = text.splitlines()[2].split(",")[2]
    drifted = repr(float(value) * (1 + 1e-12))
    assert workloads.check_scores(ref, {"scores.csv": text.replace(value, drifted, 1).encode()}) == []
    wrong = repr(float(value) * (1 + 1e-6))
    assert workloads.check_scores(ref, {"scores.csv": text.replace(value, wrong, 1).encode()})



def _with_record(ref: dict, name: str, line: int, **changes) -> dict:
    """ref with the given fields of one JSON record replaced (line None: the whole file)."""
    if line is None:
        return {**ref, name: json.dumps({**json.loads(ref[name]), **changes}).encode()}
    lines = ref[name].decode().splitlines()
    lines[line] = json.dumps({**json.loads(lines[line]), **changes})
    return {**ref, name: "\n".join(lines).encode()}


def test_search_check_rejects_wrong_paths_and_scores():
    ref = workloads.reference(workloads.WORKLOADS["search-s0"], 0)
    assert workloads.check_search(ref, ref) == []
    log = [json.loads(line) for line in ref["search.jsonl"].splitlines()]
    score = log[-1]["best_score"]
    assert workloads.check_search(ref, _with_record(ref, "search.jsonl", -1, best_score=score * (1 + 1e-12))) == []
    wrong = [
        _with_record(ref, "search.summary.json", None, evaluations=json.loads(ref["search.summary.json"])["evaluations"] + 1),
        _with_record(ref, "search.summary.json", None, best_arch="1-1-1"),
        _with_record(ref, "search.summary.json", None, best_score=score * (1 + 1e-6)),
        _with_record(ref, "search.jsonl", 0, best_arch="1-1-1"),
        _with_record(ref, "search.jsonl", len(log) // 2, best_score=log[len(log) // 2]["best_score"] * (1 + 1e-6)),
        {**ref, "search.jsonl": b"\n".join(ref["search.jsonl"].splitlines()[:-1])},
    ]
    for got in wrong:
        assert workloads.check_search(ref, got)


def test_search_references_follow_the_scores():
    # The best architecture changes during every reference search, so a wrong
    # student score (or a memo returning another architecture's score) moves it.
    for variant in range(workloads.VARIANTS):
        ref = workloads.reference(workloads.WORKLOADS["search-s0"], variant)
        log = [json.loads(line) for line in ref["search.jsonl"].splitlines()]
        assert len({r["best_arch"] for r in log}) > 1
        assert all(r["best_score"] < 0 for r in log)


def test_balanced_weighs_variants_alike():
    # Variant 1 repeated three times counts once.
    assert run.balanced([1.0, 3.0, 3.0, 3.0], [0, 1, 1, 1]) == 2.0
    assert run.balanced([1.0, 1.0, 9.0, 3.0, 5.0, 7.0], [0, 0, 0, 1, 2, 3]) == 4.0


def test_traced_command_records_spans_and_keeps_outputs(tmp_path):
    argv = ["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "diswot", "--proxy", "nwot",
            "--batch-size", "2", "--out", "scores.csv"]
    plain = run.spawn(run.DISWOT_CLI + argv, tmp_path, 120.0, "plain")
    expected = (tmp_path / "scores.csv").read_bytes()
    traced = run.spawn([sys.executable, str(BENCH / "tracer.py"), "spans.jsonl", "--"] + argv,
                       tmp_path, 120.0, "traced")
    assert plain.ok and traced.ok
    assert (tmp_path / "scores.csv").read_bytes() == expected

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["self_s"] >= 0 for s in spans)
    assert {s["shape"] for s in spans if s["name"] == "kernels.conv2d"} <= set(run.S0_CONV_SHAPES)
    assert {s["key"] for s in spans if s["name"] == "network.relu_codes"} == {"1-1-1"}

    metrics = run.layer_metrics(spans)
    assert metrics["network.forward.calls"] == 3  # teacher, student, student's nwot forward
    assert metrics["network.NetworkInstance.calls"] == 2
    assert metrics["metrics.nwot_from_codes.calls"] == 1
    assert metrics["kernels.conv2d.flop"] > 0
    assert set(run.PER_LAYER) - {"trace.overhead_frac"} == set(metrics)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "rank-nb201", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
