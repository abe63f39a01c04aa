"""Command-line workflow tests (run in-process through cli.main)."""

import json

import numpy as np
import pytest

from diswot.arch import S0Depths, enumerate_s0, s0_space
from diswot.cli import main
from diswot.data import read_scores_csv
from diswot.network import count_params


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# score


def test_score_all_s0_params_rows(tmp_path):
    out = tmp_path / "scores.csv"
    code = run(["score", "--space", "s0", "--all-s0", "--proxy", "params", "--out", str(out)])
    assert code == 0
    rows = read_scores_csv(out)
    assert len(rows) == 64
    space = s0_space()
    by_id = {r.arch_id: r.value for r in rows}
    for desc in enumerate_s0():
        assert by_id[f"{desc.d1}-{desc.d2}-{desc.d3}"] == float(count_params(desc, space))


def test_score_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["score", "--space", "s0", "--arch", "1-1-1", "--arch", "3-3-3",
            "--proxy", "diswot", "--batch-size", "4", "--seed", "1", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_score_jobs_do_not_change_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["score", "--space", "s0", "--arch", "1-1-1", "--arch", "1-3-1", "--arch", "3-1-1",
            "--proxy", "diswot", "--proxy", "nwot", "--batch-size", "4", "--seed", "2"]
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--jobs", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_score_repeated_seed_flags_accumulate(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    common = ["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params"]
    assert run(common + ["--seed", "0", "--seed", "1", "--out", str(a)]) == 0
    assert run(common + ["--seed", "0", "1", "--out", str(b)]) == 0
    rows = read_scores_csv(a)
    assert [r.seed for r in rows] == [0, 1]
    assert a.read_bytes() == b.read_bytes()


def test_score_rejects_arch_outside_space(tmp_path, capsys):
    code = run(["score", "--space", "s0", "--arch", "2-2-2", "--proxy", "params",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "2-2-2" in capsys.readouterr().err


def test_score_row_ordering_arch_outer(tmp_path):
    out = tmp_path / "o.csv"
    code = run(["score", "--space", "s0", "--arch", "1-1-1", "--arch", "3-3-3",
                "--proxy", "params", "--proxy", "flops",
                "--seed", "0", "1", "--out", str(out)])
    assert code == 0
    rows = read_scores_csv(out)
    key = [(r.arch_id, r.proxy, r.seed) for r in rows]
    assert key == [
        ("1-1-1", "params", 0), ("1-1-1", "params", 1),
        ("1-1-1", "flops", 0), ("1-1-1", "flops", 1),
        ("3-3-3", "params", 0), ("3-3-3", "params", 1),
        ("3-3-3", "flops", 0), ("3-3-3", "flops", 1),
    ]


def test_score_teacher_template_flag(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "diswot",
                "--teacher", "18,18,18-template", "--batch-size", "4", "--out", str(out)])
    assert code == 0
    assert len(read_scores_csv(out)) == 1


def test_score_unknown_proxy_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["score", "--space", "s0", "--all-s0", "--proxy", "synflow", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_score_missing_arch_flag_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["score", "--space", "s0", "--proxy", "params", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_score_bad_data_path_exit_1(tmp_path, capsys):
    code = run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "diswot",
                "--data", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_score_env_seed_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("DISWOT_SEED", "7")
    assert run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot",
                "--batch-size", "4", "--out", str(out_env)]) == 0
    monkeypatch.delenv("DISWOT_SEED")
    assert run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot",
                "--batch-size", "4", "--seed", "7", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_score_config_echo_excludes_jobs(tmp_path):
    out = tmp_path / "c.csv"
    run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params",
         "--jobs", "3", "--out", str(out)])
    first = out.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    config = json.loads(first[len("# config: "):])
    assert "jobs" not in config
    assert "out" not in config
    assert config["space"] == "s0"


def test_score_nb201_space(tmp_path):
    out = tmp_path / "n.csv"
    cell = "|skip_connect~0|+|nor_conv_1x1~0|skip_connect~1|+|none~0|skip_connect~1|nor_conv_1x1~2|"
    code = run(["score", "--space", "nb201", "--arch", cell, "--proxy", "nwot",
                "--batch-size", "4", "--out", str(out)])
    assert code == 0
    rows = read_scores_csv(out)
    assert rows[0].arch_id == cell


# ---------------------------------------------------------------------------
# search


def test_search_minimize_params_finds_smallest(tmp_path):
    out = tmp_path / "run.jsonl"
    summary = tmp_path / "summary.json"
    code = run(["search", "--space", "s0", "--strategy", "evo",
                "--fitness", "params", "--minimize",
                "--population", "16", "--iters", "300", "--sample-ratio", "0.5",
                "--topk", "5", "--seed", "0",
                "--out", str(out), "--summary", str(summary)])
    assert code == 0
    blob = json.loads(summary.read_text())
    assert blob["best_arch"] == "1-1-1"
    assert blob["config"]["fitness"] == "params"
    assert blob["config"]["minimize"] is True
    assert blob["config"]["population"] == 16
    lines = out.read_text().splitlines()
    assert len(lines) == 300
    first = json.loads(lines[0])
    assert set(first) == {"iter", "best_score", "best_arch", "evals"}


def test_search_deterministic(tmp_path):
    argv = ["search", "--space", "s0", "--fitness", "flops", "--minimize",
            "--population", "8", "--iters", "40", "--topk", "3", "--seed", "5"]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_random_strategy(tmp_path):
    out = tmp_path / "r.jsonl"
    code = run(["search", "--space", "s0", "--strategy", "random", "--budget", "200",
                "--fitness", "params", "--minimize", "--seed", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["best_arch"] == "1-1-1"
    assert summary["evaluations"] == 200


def test_search_budget_zero_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--space", "s0", "--strategy", "random", "--budget", "0",
             "--fitness", "params", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


def test_search_random_needs_budget(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--space", "s0", "--strategy", "random",
             "--fitness", "params", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


def test_search_diswot_fitness_smoke(tmp_path):
    out = tmp_path / "d.jsonl"
    code = run(["search", "--space", "s0", "--fitness", "diswot",
                "--batch-size", "4", "--population", "4", "--iters", "3",
                "--topk", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


# ---------------------------------------------------------------------------
# rank


def write_rank_fixture(tmp_path, n=10, seeds=(0, 1)):
    ids = [f"{d}-{d}-{d}" for d in range(1, n + 1)]
    acc_path = tmp_path / "acc.csv"
    acc_path.write_text("arch_id,accuracy\n" + "".join(f"{a},{60 + i}\n" for i, a in enumerate(ids)))
    score_paths = []
    for seed in seeds:
        p = tmp_path / f"scores{seed}.csv"
        body = "arch_id,proxy,value,higher_is_better,seed\n"
        body += "".join(f"{a},diswot,{float(i)},true,{seed}\n" for i, a in enumerate(ids))
        p.write_text(body)
        score_paths.append(p)
    return score_paths, acc_path


def test_rank_perfect_fixture(tmp_path, capsys):
    score_paths, acc_path = write_rank_fixture(tmp_path)
    out = tmp_path / "report.csv"
    code = run(["rank", "--scores", *map(str, score_paths), "--accuracy", str(acc_path),
                "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "100.00" in stdout
    text = out.read_text()
    assert "diswot,kendall_tau,100.00,0.00,2,10" in text
    assert "diswot,spearman,100.00,0.00,2,10" in text
    assert "diswot,pearson,100.00,0.00,2,10" in text


def test_rank_missing_arch_exit_2(tmp_path, capsys):
    score_paths, acc_path = write_rank_fixture(tmp_path, n=5, seeds=(0,))
    acc_path.write_text("arch_id,accuracy\n1-1-1,60\n2-2-2,61\n3-3-3,62\n4-4-4,63\n")
    code = run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path)])
    assert code == 2
    assert "5-5-5" in capsys.readouterr().err


def test_rank_sample_and_seeds_in_metadata(tmp_path):
    score_paths, acc_path = write_rank_fixture(tmp_path, n=20, seeds=(0,))
    out = tmp_path / "report.csv"
    code = run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path),
                "--sample", "10", "--seeds", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    assert config["sample"] == 10
    assert config["seeds"] == 4
    rows = [l for l in lines if l.startswith("diswot,kendall_tau")]
    assert rows[0].split(",")[4] == "4"   # n_seeds column
    assert rows[0].split(",")[5] == "10"  # n_archs column


@pytest.mark.parametrize("seed_args", [["--seed", "0", "1"], ["--seed", "0", "--seed", "1"]])
def test_rank_two_seeds_exit_2(tmp_path, seed_args):
    score_paths, acc_path = write_rank_fixture(tmp_path, n=10, seeds=(0,))
    with pytest.raises(SystemExit) as exc:
        run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path), *seed_args])
    assert exc.value.code == 2


def test_rank_seed_env_fallback(tmp_path, monkeypatch):
    score_paths, acc_path = write_rank_fixture(tmp_path, n=20, seeds=(0,))
    common = ["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path),
              "--sample", "10", "--seeds", "3"]
    out_flag = tmp_path / "flag.csv"
    out_env = tmp_path / "env.csv"
    assert run(common + ["--seed", "5", "--out", str(out_flag)]) == 0
    monkeypatch.setenv("DISWOT_SEED", "5")
    assert run(common + ["--out", str(out_env)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_rank_missing_file_exit_1(tmp_path, capsys):
    acc = tmp_path / "acc.csv"
    acc.write_text("arch_id,accuracy\na,1\nb,2\nc,3\n")
    code = run(["rank", "--scores", str(tmp_path / "absent.csv"), "--accuracy", str(acc)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
