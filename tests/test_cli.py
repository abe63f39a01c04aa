"""Command-line workflow tests (run in-process through cli.main)."""

import argparse
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diswot import arch, cli, metrics, network
from diswot.arch import S0Depths, S2Config, S2Stage, arch_id, descriptor_to_json, enumerate_s0, s0_space, s2_cifar_space
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
    # Neighbours share prefixes, so each worker's cache resumes inside its run.
    base = ["score", "--space", "s0", "--arch", "1-1-1", "--arch", "1-1-3", "--arch", "1-3-1",
            "--arch", "3-1-1", "--arch", "3-1-3", "--proxy", "diswot", "--proxy", "nwot",
            "--batch-size", "4", "--seed", "2"]
    assert run(base + ["--out", str(a)]) == 0
    for jobs in ("2", "4"):
        assert run(base + ["--jobs", jobs, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_score_arch_order_never_changes_a_value(tmp_path):
    # The order of --arch sets where each student resumes in the prefix
    # cache, and --jobs splits the list into runs; neither may change a value.
    archs = ["1-1-1", "1-1-3", "1-3-1", "3-1-1", "3-1-3", "3-3-1", "5-3-1", "1-1-5"]
    common = ["score", "--space", "s0", "--proxy", "diswot", "--proxy", "nwot", "--batch-size", "4", "--seed", "3"]

    def values(order, jobs):
        out = tmp_path / f"{jobs}-{'_'.join(order)}.csv"
        flags = [arg for a in order for arg in ("--arch", a)]
        assert run(common + flags + ["--jobs", jobs, "--out", str(out)]) == 0
        return {(r.arch_id, r.proxy): r.value for r in read_scores_csv(out)}

    reference = values(sorted(archs), "1")
    assert len(reference) == 2 * len(archs)
    shuffled = [archs[i] for i in np.random.default_rng(0).permutation(len(archs))]
    assert shuffled != sorted(archs)
    for jobs in ("1", "2"):
        assert values(shuffled, jobs) == reference


def test_score_all_s0_peak_memory(tmp_path):
    # 68 418 598 bytes is this command's tracemalloc peak when every student
    # runs two full forwards and nwot makes one float64 copy of all its ReLU
    # codes.
    argv = ["score", "--space", "s0", "--all-s0", "--proxy", "diswot", "--proxy", "nwot",
            "--batch-size", "16", "--seed", "0", "--out", str(tmp_path / "s.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 68_418_598


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


def test_score_s2_json_teacher_echoed(tmp_path):
    space = s2_cifar_space()
    teacher = S2Config(16, tuple(S2Stage(*st) for st in (
        ("basic", 3, 16, 1, 1), ("basic", 3, 32, 1, 2), ("basic", 5, 32, 1, 1),
        ("basic", 3, 64, 1, 2), ("basic", 3, 64, 1, 2), ("basic", 7, 128, 1, 1))))
    student = S2Config(16, tuple(S2Stage(*st) for st in (
        ("bottleneck", 3, 16, 2, 1), ("basic", 5, 24, 1, 2), ("bottleneck", 3, 32, 1, 1),
        ("bottleneck", 7, 48, 1, 2), ("basic", 3, 64, 2, 2), ("bottleneck", 5, 96, 1, 1))))
    out = tmp_path / "s2.csv"
    code = run(["score", "--space", "s2_cifar", "--arch", json.dumps(descriptor_to_json(student, space)),
                "--teacher", json.dumps(descriptor_to_json(teacher, space)), "--proxy", "diswot",
                "--batch-size", "2", "--out", str(out)])
    assert code == 0
    config = json.loads(out.read_text().splitlines()[0][len("# config: "):])
    assert config["teacher"] == arch_id(teacher)
    assert [r.arch_id for r in read_scores_csv(out)] == [arch_id(student)]


def test_score_reads_teacher_file_once(tmp_path, monkeypatch):
    teacher = tmp_path / "t.json"
    teacher.write_text(json.dumps(descriptor_to_json(S0Depths(1, 3, 1), s0_space())))
    reads = []
    read_text = Path.read_text

    def counting(path, *args, **kwargs):
        if path.name == "t.json":
            reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    out = tmp_path / "s.csv"
    code = run(["score", "--space", "s0", "--arch", "1-1-1", "--teacher", str(teacher), "--seed", "0",
                "--seed", "1", "--proxy", "diswot", "--batch-size", "2", "--out", str(out)])
    assert code == 0
    assert len(reads) == 1
    assert json.loads(out.read_text().splitlines()[0][len("# config: "):])["teacher"] == "1-3-1"


def test_score_proxy_order_never_changes_the_work(tmp_path, monkeypatch):
    # A student that needs nwot takes its relu_codes forward first, so its
    # bundle is a full prefix-cache hit in either order: the convs run are
    # the teacher's 45 and the students' 13 + 7 + 14 + 7, as for diswot
    # alone. The students run in prefix-trie order, 1-1-3, 1-3-1, 3-1-3,
    # 3-3-1: 1-3-1 resumes where 1-1-3's stage 2 ends, after the first of
    # its three stage-2 blocks, 3-1-3 where 1-3-1's stage 1 ends, and 3-3-1
    # where 3-1-3's stage 2 ends.
    convs = []
    conv2d = network.conv2d
    monkeypatch.setattr(network, "conv2d", lambda *a: convs.append(1) or conv2d(*a))
    archs = [arg for a in ("1-1-3", "3-1-3", "3-3-1", "1-3-1") for arg in ("--arch", a)]
    values = {}
    for proxies in (("diswot", "nwot"), ("nwot", "diswot"), ("diswot",)):
        convs.clear()
        out = tmp_path / f"{'-'.join(proxies)}.csv"
        flags = [arg for p in proxies for arg in ("--proxy", p)]
        assert run(["score", "--space", "s0", *archs, *flags, "--batch-size", "4", "--out", str(out)]) == 0
        assert len(convs) == 86
        values[proxies] = {(r.arch_id, r.proxy): r.value for r in read_scores_csv(out)}
    assert values[("diswot", "nwot")] == values[("nwot", "diswot")]
    assert len(values[("diswot", "nwot")]) == 8
    assert values[("diswot",)].items() <= values[("diswot", "nwot")].items()


def test_score_arch_list_runs_in_prefix_trie_order(tmp_path, monkeypatch):
    # The 64 students, reversed: sorted by plan they run the same convs as
    # --all-s0, whose lexicographic order is already the trie order.
    convs = []
    conv2d = network.conv2d
    monkeypatch.setattr(network, "conv2d", lambda *a: convs.append(1) or conv2d(*a))
    common = ["score", "--space", "s0", "--proxy", "diswot", "--batch-size", "2", "--seed", "0"]
    assert run(common + ["--all-s0", "--out", str(tmp_path / "all.csv")]) == 0
    all_s0 = len(convs)
    convs.clear()
    reversed_archs = [arg for desc in reversed(enumerate_s0()) for arg in ("--arch", arch_id(desc))]
    out = tmp_path / "reversed.csv"
    assert run(common + reversed_archs + ["--out", str(out)]) == 0
    assert len(convs) == all_s0 == 360
    assert [r.arch_id for r in read_scores_csv(out)] == [arch_id(d) for d in reversed(enumerate_s0())]


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


def test_score_empty_data_path_exit_1(tmp_path, capsys):
    # An empty --data is a path that names no file, not a request for synthetic images.
    code = run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot", "--batch-size", "2",
                "--data", "", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_score_env_seed_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    for seed in ("7", str(2**64 - 1)):  # the largest seed either takes
        monkeypatch.setenv("DISWOT_SEED", seed)
        assert run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot",
                    "--batch-size", "4", "--out", str(out_env)]) == 0
        monkeypatch.delenv("DISWOT_SEED")
        assert run(["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot",
                    "--batch-size", "4", "--seed", seed, "--out", str(out_flag)]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()


@pytest.mark.parametrize("command", ["score", "search", "rank"])
@pytest.mark.parametrize("value", ["-1", "18446744073709551616", "seven"])
def test_env_seed_outside_range_exit_1(tmp_path, monkeypatch, capsys, command, value):
    # The fallback takes the range --seed takes; outside it, the run stops before reading anything.
    argv = {
        "score": ["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot"],
        "search": ["search", "--space", "s0", "--fitness", "params", "--strategy", "random", "--budget", "2"],
        "rank": ["rank", "--scores", "absent.csv", "--accuracy", "absent.csv", "--sample", "3"],
    }[command]
    monkeypatch.setenv("DISWOT_SEED", value)
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"error: DISWOT_SEED must be an integer in [0, 2**64), got {value!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def subcommand_actions(name):
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    return {a.dest: a for a in commands[name]._actions if a.dest != "help"}


def test_proxy_choices_are_the_metrics_table():
    proxy = subcommand_actions("score")["proxies"]
    fitness = subcommand_actions("search")["fitness"]
    want = ("diswot", "nwot", "params", "flops", "kd_kl", "fitnets", "at", "sp", "cc", "rkd", "nst", "pkt")
    assert tuple(proxy.choices) == tuple(fitness.choices) == tuple(metrics.PROXIES) == want


def test_space_choices_are_the_arch_table():
    want = ("s0", "nb201", "s2_cifar", "s2_imagenet")
    for command in ("score", "search"):
        assert tuple(subcommand_actions(command)["space"].choices) == tuple(arch.SPACE_FACTORIES) == want


# Parsed values no artifact echoes: --jobs, --out and --summary change no
# output byte, and --all-s0 is echoed as the archs it expands to.
UNECHOED = {"jobs", "out", "summary", "all_s0"}
# Flags read only by a proxy that runs a forward, by a proxy that reads a
# teacher, by diswot, by kd_kl, and by each search strategy.
BATCH_KEYS = {"batch_size", "data", "data_format", "init", "gaussian_std"}
DISWOT_KEYS = {"weight_source", "normalization", "semantic_only", "relation_only"}
EVO_KEYS = {"population", "iters", "sample_ratio", "topk"}


def echoed_dests(command):
    return (set(subcommand_actions(command)) | {"command"}) - UNECHOED


def test_config_echoes_every_flag(tmp_path, monkeypatch):
    # The echo holds exactly the flags the run read: all of them when diswot
    # and kd_kl run, none of the conditional ones for a cost proxy.
    monkeypatch.setenv("DISWOT_SEED", "9")
    teacher = tmp_path / "t.json"
    teacher.write_text(json.dumps(descriptor_to_json(S0Depths(3, 1, 3), s0_space())))
    # Four cifar10 records, labels 0 to 3; --data-format is left out, so the echo holds its default.
    data = tmp_path / "batch.bin"
    np.concatenate([np.arange(4)[:, None], np.zeros((4, 3072), int)], axis=1).astype(np.uint8).tofile(data)
    scores = tmp_path / "s.csv"
    assert run(["score", "--space", "s0", "--num-classes", "7", "--teacher", str(teacher),
                "--batch-size", "3", "--data", str(data), "--init", "gaussian", "--gaussian-std", "0.2",
                "--temperature", "2", "--weight-source", "fc_weight_grads", "--normalization", "matrix_l2",
                "--arch", "1-3-1", "--arch", "1-1-1", "--proxy", "kd_kl", "--proxy", "diswot",
                "--relation-only", "--jobs", "2", "--out", str(scores)]) == 0
    config = json.loads(scores.read_text().splitlines()[0][len("# config: "):])
    assert set(config) == echoed_dests("score")
    score_config = {"command": "score", "space": "s0", "num_classes": 7, "seeds": [9], "archs": ["1-3-1", "1-1-1"]}
    assert config == score_config | {
        "teacher": "3-1-3", "batch_size": 3, "data": str(data), "data_format": "auto", "init": "gaussian",
        "gaussian_std": 0.2, "temperature": 2.0, "weight_source": "fc_weight_grads", "normalization": "matrix_l2",
        "proxies": ["kd_kl", "diswot"], "semantic_only": False, "relation_only": True,
    }
    assert run(["score", "--space", "s0", "--num-classes", "7", "--arch", "1-3-1", "--arch", "1-1-1",
                "--proxy", "params", "--proxy", "flops", "--out", str(scores)]) == 0
    config = json.loads(scores.read_text().splitlines()[0][len("# config: "):])
    assert config == score_config | {"proxies": ["params", "flops"]}

    search_flags = ["search", "--space", "nb201", "--num-classes", "5", "--max-params", "90000",
                    "--max-flops", "20000000", "--max-depth", "8", "--minimize", "--seed", "4"]
    search_config = {
        "command": "search", "space": "nb201", "num_classes": 5, "seed": 4,
        "max_params": 90000, "max_flops": 20000000, "max_depth": 8, "minimize": True,
    }
    out, summary = tmp_path / "r.jsonl", tmp_path / "r.json"
    assert run([*search_flags, "--fitness", "params", "--strategy", "random", "--budget", "3",
                "--out", str(out), "--summary", str(summary)]) == 0
    config = json.loads(summary.read_text())["config"]
    # A cost fitness reads no batch, teacher or proxy setting, and a random search no evo flag.
    assert set(config) == echoed_dests("search") - BATCH_KEYS - DISWOT_KEYS - EVO_KEYS - {"teacher", "temperature"}
    assert config == search_config | {"fitness": "params", "strategy": "random", "budget": 3}
    # nwot reads a batch but no teacher. --topk, --data and --gaussian-std are
    # left out, so the evo summary echoes their defaults; without --data,
    # --data-format is not read.
    assert run([*search_flags, "--fitness", "nwot", "--batch-size", "5", "--population", "8", "--iters", "2",
                "--sample-ratio", "0.75", "--init", "gaussian", "--out", str(out), "--summary", str(summary)]) == 0
    config = json.loads(summary.read_text())["config"]
    assert set(config) == echoed_dests("search") - DISWOT_KEYS - {"budget", "data_format", "teacher", "temperature"}
    assert config == search_config | {"fitness": "nwot", "strategy": "evo", "population": 8, "iters": 2,
                                      "sample_ratio": 0.75, "topk": 5, "batch_size": 5, "data": None,
                                      "init": "gaussian", "gaussian_std": 0.1}

    score_paths, acc_path = write_rank_fixture(tmp_path, n=10, seeds=(0,))
    report = tmp_path / "report.csv"
    assert run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path),
                "--sample", "6", "--seeds", "2", "--out", str(report)]) == 0
    config = json.loads(report.read_text().splitlines()[0][len("# config: "):])
    assert set(config) == echoed_dests("rank")
    assert config == {
        "command": "rank", "scores": [str(score_paths[0])], "accuracy": str(acc_path),
        "sample": 6, "seeds": 2, "seed": 9,
    }


def test_score_rejects_non_finite_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(metrics, "nwot_from_codes", lambda codes, units: float("nan"))
    out = tmp_path / "x.csv"
    code = run(["score", "--space", "s0", "--arch", "1-3-5", "--proxy", "nwot",
                "--batch-size", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "1-3-5" in err and "nwot" in err
    assert not out.exists()


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


@pytest.mark.parametrize("space", ["s0", "nb201", "s2_cifar", "s2_imagenet"])
def test_search_unsatisfiable_constraints_exit_2(tmp_path, space, capsys):
    # No member of any space has 1000 params or fewer; the search says so
    # before it draws a candidate or builds a teacher.
    with pytest.raises(SystemExit) as exc:
        run(["search", "--space", space, "--fitness", "params", "--max-params", "1000",
             "--out", str(tmp_path / "s.jsonl")])
    assert exc.value.code == 2
    assert "the constraints admit no member" in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


def test_search_child_resumes_from_its_parent(tmp_path, monkeypatch):
    # The search-s0 benchmark command, variant 0. The prefix cache keeps up
    # to 128 MiB of stage ends, at batch 4 those of every network this search
    # scores, so a child resumes from its parent: 380 convs, against 624 with
    # the last network only.
    g = np.random.default_rng(0)
    labels, pixels = g.integers(0, 10, size=(4, 1)), g.integers(0, 256, size=(4, 3072))
    np.concatenate([labels, pixels], axis=1).astype(np.uint8).tofile(tmp_path / "batch.bin")
    convs = []
    conv2d = network.conv2d
    monkeypatch.setattr(network, "conv2d", lambda *a: convs.append(1) or conv2d(*a))
    code = run(["search", "--space", "s0", "--strategy", "evo", "--fitness", "diswot",
                "--population", "10", "--iters", "38", "--topk", "3", "--teacher", "resnet56",
                "--batch-size", "4", "--data", str(tmp_path / "batch.bin"), "--data-format", "cifar10",
                "--seed", "0", "--out", str(tmp_path / "s.jsonl")])
    assert code == 0
    assert len(convs) == 380


@pytest.mark.parametrize("strategy,max_bytes", [("evo", 128 * 2**20), ("random", 0)])
def test_search_keeps_several_networks_only_for_evo(tmp_path, monkeypatch, strategy, max_bytes):
    # An evo child resumes from a population member; random draws have no
    # parents, so a random search keeps the last network only.
    kept = []
    prefix_cache = cli.PrefixCache
    monkeypatch.setattr(cli, "PrefixCache", lambda images, init, n: kept.append(n) or prefix_cache(images, init, n))
    own = {"evo": ["--population", "6", "--iters", "4", "--topk", "2"], "random": ["--budget", "4"]}[strategy]
    code = run(["search", "--space", "s0", "--strategy", strategy, *own, "--fitness", "nwot", "--batch-size", "2",
                "--seed", "0", "--out", str(tmp_path / "s.jsonl")])
    assert code == 0
    assert kept == [max_bytes]


@pytest.mark.parametrize("argv,says", [
    (["search", "--space", "s0", "--topk", "99"], "topk"),
    (["search", "--space", "s2_cifar", "--topk", "99"], "topk"),
    (["search", "--space", "s0", "--strategy", "random"], "--budget"),
    (["search", "--space", "s0", "--strategy", "random", "--budget", "0"], "--budget"),
    (["search", "--space", "s0", "--strategy", "random", "--budget", "3", "--population", "5"], "--population"),
    (["search", "--space", "s0", "--strategy", "random", "--budget", "3", "--topk", "3"], "--topk"),
    (["search", "--space", "s0", "--fitness", "params", "--budget", "5"], "--budget"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "kd_kl", "--temperature", "0"], "--temperature"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--init", "gaussian", "--gaussian-std", "0"], "--gaussian-std"),
    (["search", "--space", "s0", "--temperature", "-1"], "--temperature"),
    (["search", "--space", "s0", "--gaussian-std", "nan"], "--gaussian-std"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--batch-size", "1"], "--batch-size"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--num-classes", "0"], "--num-classes"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--max-params", "10"], "--max-params"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--jobs", "0"], "--jobs"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--jobs", "-1"], "--jobs"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "diswot", "--semantic-only", "--relation-only"],
     "--relation-only"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--seeds", "0"], "--seeds"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--sample", "2"], "--sample"),
    (["score", "--space", "nb201", "--all-s0"], "--all-s0 requires --space s0"),
    (["search", "--space", "s0", "--fitness", "params", "--seed", "1", "2"], "a single --seed"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--sample", "3", "--seed", "1", "--seed", "2"],
     "a single --seed"),
    # Only subsampling reads the seed; the tables are not read first.
    (["rank", "--scores", "absent.csv", "--accuracy", "absent.csv", "--seed", "5"], "--seed: read only with --sample"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--gaussian-std", "0.2"], "--gaussian-std: read only with --init gaussian"),
    (["search", "--space", "s0", "--data-format", "cifar10"], "--data-format: read only with --data"),
    # One case per condition of cli._CONDITIONAL not covered above.
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--data", "/nonexistent.bin"],
     "--data: read only by a proxy that reads a batch"),
    (["search", "--space", "s0", "--fitness", "params", "--strategy", "random", "--budget", "3", "--teacher", "garbage",
      "--batch-size", "7", "--init", "gaussian", "--gaussian-std", "0.3"],
     "--batch-size, --init: read only by a proxy that reads a batch"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot", "--teacher", "9-9-9"],
     "--teacher: read only by a proxy that reads a teacher"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot", "--weight-source", "fc_weight_grads",
      "--normalization", "matrix_l2", "--semantic-only"], "--weight-source, --normalization, --semantic-only: read only by diswot"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--temperature", "5", "--teacher", "garbage"],
     "--temperature: read only by kd_kl"),
    # A repeated seed, proxy or architecture would write each of its rows twice.
    (["score", "--space", "s0", "--arch", "1-1-1", "--arch", "3-3-3", "--arch", "5-5-5", "--proxy", "params",
      "--seed", "1", "--seed", "1"], "--seed 1 is given more than once"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "params", "--proxy", "flops", "--proxy", "params"],
     "--proxy params is given more than once"),
    (["score", "--space", "s0", "--arch", "1-3-5", "--arch", '{"space": "s0", "desc": [1, 3, 5]}', "--proxy", "nwot"],
     "--arch 1-3-5 is given more than once"),
    # rng.stream keys on 64 bits and rejects any other seed.
    (["score", "--space", "s0", "--arch", "1-3-5", "--proxy", "nwot", "--seed", "0", "18446744073709551616"],
     "argument --seed: must be an integer in [0, 2**64), got '18446744073709551616'"),
    (["search", "--space", "s0", "--fitness", "params", "--seed", "-1"],
     "argument --seed: must be an integer in [0, 2**64), got '-1'"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--seed", "-1"],
     "argument --seed: must be an integer in [0, 2**64), got '-1'"),
    # Without --sample each series is one repetition, so --seeds draws nothing.
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--seeds", "3"], "--seeds: read only with --sample"),
    # A series given twice would be counted twice; an output naming an input would replace it.
    (["rank", "--scores", "scores0.csv", "scores0.csv", "--accuracy", "acc.csv"],
     "--scores scores0.csv is given more than once"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--out", "acc.csv"], "--accuracy and --out both name acc.csv"),
    (["rank", "--scores", "scores0.csv", "--accuracy", "acc.csv", "--out", "./scores0.csv"],
     "--scores and --out both name ./scores0.csv"),
    (["search", "--space", "s0", "--fitness", "params", "--strategy", "random", "--budget", "2",
      "--out", "same.json", "--summary", "same.json"], "--out and --summary both name same.json"),
    (["score", "--space", "s0", "--arch", "1-1-1", "--proxy", "nwot", "--data", "acc.csv", "--out", "acc.csv"],
     "--data and --out both name acc.csv"),
], ids=["topk-s0", "topk-s2_cifar", "no-budget", "budget-0", "random-population", "random-topk", "evo-budget",
        "temperature-0", "gaussian-std-0", "temperature-negative", "gaussian-std-nan", "batch-size-1", "num-classes-0",
        "score-max-params", "jobs-0", "jobs-negative", "semantic-and-relation-only", "rank-seeds-0", "rank-sample-2", "nb201-all-s0",
        "search-two-seeds", "rank-two-seeds", "gaussian-std-without-gaussian-init", "data-format-without-data",
        "data-without-batch-proxy", "search-batch-flags-without-batch-proxy", "teacher-without-teacher-proxy",
        "diswot-flags-without-diswot", "temperature-without-kd_kl", "repeated-seed",
        "repeated-proxy", "repeated-arch", "score-seed-2**64", "search-seed-negative", "rank-seed-negative",
        "rank-seed-without-sample", "rank-seeds-without-sample", "rank-repeated-scores", "rank-out-is-accuracy",
        "rank-out-is-scores", "search-out-is-summary", "score-out-is-data"])
def test_usage_errors_exit_2_before_any_forward(tmp_path, monkeypatch, capsys, argv, says):
    def no_network(*args):
        raise AssertionError("a usage error must be reported before any network is built")

    monkeypatch.setattr(cli, "NetworkInstance", no_network)
    # rank reads well-formed tables from the working directory, so only the flag is at fault.
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_rank_fixture(inputs, seeds=(0,))
    given = {path.name: path.read_bytes() for path in inputs.iterdir()}
    monkeypatch.chdir(inputs)
    with pytest.raises(SystemExit) as exc:
        run(argv if "--out" in argv else [*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert says in err
    # Cross-flag checks report on the subcommand's parser, as argparse's own checks do.
    assert err.splitlines()[0].startswith(f"usage: diswot {argv[0]} ")
    assert list(tmp_path.iterdir()) == [inputs]
    assert sorted(p.name for p in inputs.iterdir()) == ["acc.csv", "scores0.csv"]
    assert {path.name: path.read_bytes() for path in inputs.iterdir()} == given


def test_conditional_flags_are_the_table():
    # Every flag of score, search or rank that the parser gives no default has
    # exactly one row of the table, which its help names, and every row is
    # such a flag of some command. A dest may be conditional in one command
    # only: rank reads --seed and --seeds with --sample, score and search
    # read their --seed always.
    rows = [(dest, needs) for needs, _, defaults in cli._CONDITIONAL for dest in defaults]
    assert len({dest for dest, _ in rows}) == len(rows)
    conditional = {}
    for command in ("score", "search", "rank"):
        actions = subcommand_actions(command)
        conditional[command] = {dest for dest, a in actions.items() if a.default is argparse.SUPPRESS}
        for dest in conditional[command]:
            assert f"read only {dict(rows)[dest]}" in actions[dest].help
    assert set().union(*conditional.values()) == {dest for dest, _ in rows}
    assert conditional["rank"] == {"seed", "seeds"}
    assert {"seed", "seeds"} & (conditional["score"] | conditional["search"]) == set()


def test_score_rejects_coerced_json_arch(tmp_path, capsys):
    # 1.9 and true are not depths: the architecture is not read as 1-1-3.
    code = run(["score", "--space", "s0", "--arch", '{"space": "s0", "desc": [1.9, true, 3]}', "--proxy", "params",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "s0 depth d1 must be an integer, got 1.9" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_search_builds_each_student_once(tmp_path, monkeypatch):
    built = []
    network_instance = cli.NetworkInstance

    def recording(desc, space, init):
        built.append(arch_id(desc))
        return network_instance(desc, space, init)

    monkeypatch.setattr(cli, "NetworkInstance", recording)
    summary = tmp_path / "s.json"
    code = run(["search", "--space", "s0", "--fitness", "diswot", "--teacher", "resnet56",
                "--batch-size", "2", "--population", "6", "--iters", "24", "--topk", "2",
                "--seed", "0", "--out", str(tmp_path / "s.jsonl"), "--summary", str(summary)])
    assert code == 0
    teacher, students = built[0], built[1:]
    assert teacher == "9-9-9"
    assert len(students) == len(set(students))
    evaluations = json.loads(summary.read_text())["evaluations"]
    assert evaluations == 6 + 24  # every fitness call counts, repeats included
    assert len(students) < evaluations


@pytest.mark.parametrize("fitness,teacher", [("diswot", "7-7-7"), ("kd_kl", "9-9-9"), ("params", None)])
def test_search_echoes_the_resolved_teacher(tmp_path, fitness, teacher):
    # As in score: the teacher's arch id when the fitness reads bundles; a
    # fitness that reads none takes no --teacher and echoes no teacher key.
    flags = [] if teacher is None else ["--teacher", {"7-7-7": "max", "9-9-9": "resnet56"}[teacher], "--batch-size", "2"]
    summary = tmp_path / "s.json"
    assert run(["search", "--space", "s0", "--fitness", fitness, *flags, "--strategy", "random", "--budget", "2",
                "--seed", "0", "--out", str(tmp_path / "s.jsonl"), "--summary", str(summary)]) == 0
    config = json.loads(summary.read_text())["config"]
    if teacher is None:
        assert "teacher" not in config
    else:
        assert config["teacher"] == teacher


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


@pytest.mark.parametrize("table", ["scores", "accuracy"])
def test_rank_non_finite_input_names_file_and_line(tmp_path, capsys, table):
    score_paths, acc_path = write_rank_fixture(tmp_path, n=4, seeds=(0,))
    if table == "scores":
        bad = score_paths[0]
        bad.write_text(bad.read_text().replace("3-3-3,diswot,2.0,", "3-3-3,diswot,nan,"))
    else:
        bad = acc_path
        bad.write_text(bad.read_text().replace("3-3-3,62", "3-3-3,nan"))
    code = run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:4: non-finite" in err
    assert "'3-3-3'" in err


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
        run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path), "--sample", "5", *seed_args])
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


def test_rank_without_sample_reads_no_seed(tmp_path, monkeypatch):
    # Without --sample nothing is drawn: DISWOT_SEED is not read, and the echo holds no seed or seeds.
    score_paths, acc_path = write_rank_fixture(tmp_path, n=10, seeds=(0,))
    monkeypatch.setenv("DISWOT_SEED", "seven")
    out = tmp_path / "report.csv"
    assert run(["rank", "--scores", str(score_paths[0]), "--accuracy", str(acc_path), "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0][len("# config: "):])
    assert config == {"command": "rank", "scores": [str(score_paths[0])], "accuracy": str(acc_path), "sample": None}


def test_rank_missing_file_exit_1(tmp_path, capsys):
    acc = tmp_path / "acc.csv"
    acc.write_text("arch_id,accuracy\na,1\nb,2\nc,3\n")
    code = run(["rank", "--scores", str(tmp_path / "absent.csv"), "--accuracy", str(acc)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
