"""Acceptance gate: ten end-to-end checks, one test per check.

Covers golden parameter counts, structural-vs-built weight totals, the
classifier gradient against finite differences, every similarity metric
against brute-force implementations, invariance fuzzing, evolutionary
search against exhaustive enumeration, rank statistics on all short
permutations, CLI byte determinism, cell-string round-trips, and the
correlation pipeline fed from a user-supplied accuracy table.

Run `pytest tests/test_acceptance.py -v -s` to get one summary line per
check next to pytest's own PASSED/FAILED column.
"""

import itertools
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from diswot.arch import S0Depths, enumerate_s0, parse_nb201, s0_space, serialize_nb201
from diswot.cli import main as cli_main
from diswot.data import ScoreRow, load_accuracy_csv, write_scores_csv
from diswot.kernels import fc_weight_grad, global_avg_pool
from diswot.metrics import (
    COST_PROXIES,
    gradcam_maps,
    gram_distance,
    kd_distance,
)
from diswot.metrics import _fitnets_projection
from diswot.network import ActivationBundle, NetworkInstance, count_params
from diswot.rankstats import (
    CoefficientSummary,
    CorrelationReport,
    evaluate_proxy,
    format_report_table,
    kendall_tau,
    pearson,
    report_rows,
    spearman,
)
from diswot.rng import InitSpec
from diswot.search import EvoConfig, evolve, random_search


def _report(line: str) -> None:
    print(line, flush=True)


def _consistent_bundle(rng, b, c, hw, n):
    """Random activations whose logits/grad really follow from the weights."""
    pre_gap = rng.standard_normal((b, c, hw, hw))
    features = global_avg_pool(pre_gap)
    weight = rng.standard_normal((n, c))
    logits = features @ weight.T
    labels = rng.integers(0, n, size=b)
    grad = fc_weight_grad(features, logits, labels)
    return ActivationBundle(features, pre_gap, logits, weight, grad)


# ---------------------------------------------------------------------------
# 1. golden parameter counts


GOLDEN_KPARAMS = [
    ((7, 1, 3), 259.89),
    ((3, 3, 3), 278.32),
    ((7, 5, 3), 334.13),
    ((1, 7, 3), 343.22),
    ((5, 5, 7), 620.72),
    ((3, 7, 7), 648.50),
    ((7, 3, 5), 444.98),
    ((5, 5, 5), 472.76),
]


def test_01_golden_parameter_counts():
    space = s0_space()
    start = time.perf_counter()
    for depths, expected_k in GOLDEN_KPARAMS:
        got_k = count_params(S0Depths(*depths), space) / 1000.0
        assert abs(got_k - expected_k) <= 0.01, f"{depths}: {got_k} K vs {expected_k} K"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"PASS 01 golden parameter counts: 8/8 within 0.01 K in {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------------------
# 2. structural count equals built weights


def test_02_count_matches_built_weights():
    space = s0_space()
    init = InitSpec(seed=0)
    for desc in enumerate_s0():
        net = NetworkInstance(desc, space, init)
        built = sum(w.size for _, w in oracles.named_weights(net))
        assert count_params(desc, space) == built, desc
    _report("PASS 02 structural parameter count equals built weight elements for all 64 candidates")


# ---------------------------------------------------------------------------
# 3. classifier gradient vs central finite differences


def test_03_classifier_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 6))
        c = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        features = rng.standard_normal((b, c))
        weight = rng.standard_normal((n, c))
        labels = rng.integers(0, n, size=b)
        logits = features @ weight.T
        grad = fc_weight_grad(features, logits, labels)
        approx = oracles.fc_grad_fd(features, weight, labels)
        scale = max(float(np.abs(approx).max()), 1e-12)
        worst = max(worst, float(np.abs(grad - approx).max()) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    _report(
        f"PASS 03 classifier gradient vs central differences: "
        f"max rel err {worst:.2e} over 20 instances in {elapsed:.2f} s"
    )


# ---------------------------------------------------------------------------
# 4. metrics vs brute force on tiny bundles


def test_04_metrics_match_brute_force():
    rng = np.random.default_rng(4)
    worst = 0.0

    def check(got, want):
        nonlocal worst
        diff = abs(got - want)
        worst = max(worst, diff)
        assert diff <= 1e-10

    for _ in range(100):
        b = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        hw = int(rng.integers(1, 4))
        ct = int(rng.integers(2, 7))
        cs = int(rng.integers(2, 7))
        t = _consistent_bundle(rng, b, ct, hw, n)
        s = _consistent_bundle(rng, b, cs, hw, n)

        t_maps = gradcam_maps(t)
        s_maps = gradcam_maps(s)
        check(
            gram_distance(t_maps, s_maps),
            oracles.semantic_naive(
                oracles.gradcam_naive(t.pre_gap_map, t.fc_weight),
                oracles.gradcam_naive(s.pre_gap_map, s.fc_weight),
            ),
        )
        check(
            gram_distance(t.pre_gap_map, s.pre_gap_map),
            oracles.relation_naive(t.pre_gap_map, s.pre_gap_map),
        )

        rho = float(rng.uniform(1.0, 8.0))
        projection = None if cs == ct else _fitnets_projection(cs, ct)
        wanted = {
            "kd_kl": oracles.kd_kl_naive(t.logits, s.logits, rho),
            "fitnets": oracles.fitnets_naive(
                t.penultimate_features, s.penultimate_features, projection
            ),
            "at": oracles.at_naive(t.pre_gap_map, s.pre_gap_map),
            "sp": oracles.relation_naive(t.pre_gap_map, s.pre_gap_map),
            "cc": oracles.cc_naive(t.penultimate_features, s.penultimate_features),
            "rkd": oracles.rkd_naive(t.penultimate_features, s.penultimate_features),
            "nst": oracles.nst_naive(t.pre_gap_map, s.pre_gap_map),
            "pkt": oracles.pkt_naive(t.penultimate_features, s.penultimate_features),
        }
        for kind, want in wanted.items():
            check(-kd_distance(kind, t, s, temperature=rho), want)

    _report(
        f"PASS 04 similarity metrics vs brute force: "
        f"M_s, M_r, and 8 distillation distances on 100 bundles, max |diff| {worst:.1e} <= 1e-10"
    )


# ---------------------------------------------------------------------------
# 5. invariance fuzzing


def _rebuilt(bundle, scale):
    return ActivationBundle(
        penultimate_features=bundle.penultimate_features * scale,
        pre_gap_map=bundle.pre_gap_map * scale,
        logits=bundle.logits * scale,
        fc_weight=bundle.fc_weight,
        fc_weight_grad=bundle.fc_weight_grad,
    )


def test_05_invariance_fuzzing():
    cases = 1000
    failures = {"scale_ms": 0, "scale_mr": 0, "perm_mr": 0, "shift_kd": 0, "isometry_rkd": 0}

    rng = np.random.default_rng(51)
    for _ in range(cases):
        b = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        t = _consistent_bundle(rng, b, int(rng.integers(2, 6)), int(rng.integers(1, 4)), n)
        s = _consistent_bundle(rng, b, int(rng.integers(2, 6)), int(rng.integers(1, 4)), n)
        st = 10.0 ** float(rng.uniform(-3, 3))
        ss = 10.0 ** float(rng.uniform(-3, 3))
        t2, s2 = _rebuilt(t, st), _rebuilt(s, ss)

        ms = gram_distance(gradcam_maps(t), gradcam_maps(s))
        ms2 = gram_distance(gradcam_maps(t2), gradcam_maps(s2))
        if not math.isclose(ms, ms2, rel_tol=1e-9, abs_tol=1e-12):
            failures["scale_ms"] += 1

        mr = gram_distance(t.pre_gap_map, s.pre_gap_map)
        mr2 = gram_distance(t2.pre_gap_map, s2.pre_gap_map)
        if not math.isclose(mr, mr2, rel_tol=1e-9, abs_tol=1e-12):
            failures["scale_mr"] += 1

    rng = np.random.default_rng(52)
    for _ in range(cases):
        b = int(rng.integers(2, 6))
        tp = rng.standard_normal((b, int(rng.integers(2, 6)), 3, 3))
        sp = rng.standard_normal((b, int(rng.integers(2, 6)), 3, 3))
        perm = rng.permutation(b)
        before = gram_distance(tp, sp)
        after = gram_distance(tp[perm], sp[perm])
        if not math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-12):
            failures["perm_mr"] += 1

    rng = np.random.default_rng(53)
    for _ in range(cases):
        b, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        t = _consistent_bundle(rng, b, 3, 2, n)
        s = _consistent_bundle(rng, b, 3, 2, n)
        rho = float(rng.uniform(1.0, 8.0))
        t2 = ActivationBundle(
            t.penultimate_features,
            t.pre_gap_map,
            t.logits + rng.standard_normal((b, 1)) * 10.0,
            t.fc_weight,
            t.fc_weight_grad,
        )
        s2 = ActivationBundle(
            s.penultimate_features,
            s.pre_gap_map,
            s.logits + rng.standard_normal((b, 1)) * 10.0,
            s.fc_weight,
            s.fc_weight_grad,
        )
        before = kd_distance("kd_kl", t, s, temperature=rho)
        after = kd_distance("kd_kl", t2, s2, temperature=rho)
        if not math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-12):
            failures["shift_kd"] += 1

    rng = np.random.default_rng(54)
    for _ in range(cases):
        b, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        t = _consistent_bundle(rng, b, 3, 2, 3)
        fs = rng.standard_normal((b, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        moved = fs @ q.T + rng.standard_normal((1, d)) * 5.0

        def rkd_against(features):
            s_bundle = ActivationBundle(
                features, t.pre_gap_map, t.logits, t.fc_weight, t.fc_weight_grad
            )
            return kd_distance("rkd", t, s_bundle)

        before = rkd_against(fs)
        after = rkd_against(moved)
        if not math.isclose(before, after, rel_tol=1e-7, abs_tol=1e-9):
            failures["isometry_rkd"] += 1

    assert all(v == 0 for v in failures.values()), failures
    _report(
        "PASS 05 invariances: scale(M_s), scale(M_r), batch-perm(M_r), "
        f"shift(KD_KL), isometry(RKD) with 0 failures over {cases} fuzzed cases each"
    )


# ---------------------------------------------------------------------------
# 6. evolution vs exhaustive enumeration


def test_06_evolution_recovers_exhaustive_optimum():
    space = s0_space()
    start = time.perf_counter()

    for kind in ("params", "flops"):
        def fitness(desc, kind=kind):
            return -float(COST_PROXIES[kind](desc, space))

        optimum = max(fitness(d) for d in enumerate_s0())
        for seed in range(10):
            cfg = EvoConfig(
                population_size=16, max_iterations=500, sample_ratio=0.5, topk=5, master_seed=seed
            )
            state = evolve(space, fitness, cfg)
            assert state.best[1] == optimum, (kind, seed, state.best)

    def neg_params(desc):
        return -float(COST_PROXIES["params"](desc, space))

    evo_best, rand_best = [], []
    for seed in range(100, 120):
        cfg = EvoConfig(
            population_size=16, max_iterations=84, sample_ratio=0.5, topk=5, master_seed=seed
        )
        state = evolve(space, neg_params, cfg)
        paired = random_search(space, neg_params, budget=state.evaluations, seed=seed)
        evo_best.append(state.best[1])
        rand_best.append(paired.best[1])
    assert statistics.median(evo_best) >= statistics.median(rand_best)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "PASS 06 evolution: exhaustive optimum found 10/10 seeds for -params and -flops; "
        f"median best {statistics.median(evo_best):.0f} >= random {statistics.median(rand_best):.0f} "
        f"over 20 paired budgets; {elapsed:.1f} s"
    )


# ---------------------------------------------------------------------------
# 7. rank statistics on every short permutation


def test_07_rank_statistics_exact_on_short_permutations():
    checked = 0
    worst_closed = 0.0
    for m in range(3, 7):
        x = [float(v) for v in range(1, m + 1)]
        for perm in itertools.permutations(x):
            y = list(perm)
            assert kendall_tau(x, y) == oracles.kendall_naive(x, y)
            s = spearman(x, y)
            assert s == oracles.spearman_naive(x, y)
            worst_closed = max(worst_closed, abs(s - oracles.spearman_closed_form(x, y)))
            assert worst_closed <= 3e-16
            assert pearson(x, y) == oracles.pearson_naive(x, y)
            checked += 1
    for y in ([1.0, 2.0], [2.0, 1.0]):
        assert kendall_tau([1.0, 2.0], y) == oracles.kendall_naive([1.0, 2.0], y)

    fixture = CorrelationReport(
        proxy_name="diswot",
        kendall_tau=CoefficientSummary(0.7398, 0.012),
        spearman=CoefficientSummary(0.9138, 0.0),
        pearson=CoefficientSummary(0.8483, 0.034),
        n_seeds=10,
        n_archs=50,
    )
    rows = report_rows([fixture])
    assert rows[0][2] == pytest.approx(73.98) and rows[0][3] == pytest.approx(1.2)
    table = format_report_table([fixture])
    assert "73.98 +- 1.20" in table
    assert "91.38 +- 0.00" in table
    assert "84.83 +- 3.40" in table

    _report(
        f"PASS 07 rank statistics: brute-force/closed-form agreement on {checked} permutations "
        f"(closed-form spearman within {worst_closed:.1e}); percent mean +- std tables render"
    )


# ---------------------------------------------------------------------------
# 8. CLI byte determinism


def test_08_cli_score_byte_determinism(tmp_path):
    argv = [
        "score", "--space", "s0", "--all-s0", "--proxy", "diswot",
        "--batch-size", "4", "--seed", "0",
    ]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    assert cli_main(argv + ["--jobs", "4", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()
    assert len(a.read_text().splitlines()) == 66  # config line + header + 64 rows
    _report("PASS 08 CLI determinism: score --all-s0 --proxy diswot byte-identical across reruns and --jobs 4")


# ---------------------------------------------------------------------------
# 9. cell-string round trips


# Seven strings that between them exercise every operation and every
# source-index position of the three-node cell grammar.
CELL_STRINGS = (
    "|skip_connect~0|+|nor_conv_3x3~0|skip_connect~1|+|nor_conv_3x3~0|nor_conv_1x1~1|avg_pool_3x3~2|",
    "|skip_connect~0|+|avg_pool_3x3~0|skip_connect~1|+|avg_pool_3x3~0|skip_connect~1|skip_connect~2|",
    "|nor_conv_3x3~0|+|skip_connect~0|skip_connect~1|+|skip_connect~0|skip_connect~1|avg_pool_3x3~2|",
    "|skip_connect~0|+|nor_conv_1x1~0|nor_conv_3x3~1|+|nor_conv_1x1~0|avg_pool_3x3~1|nor_conv_3x3~2|",
    "|skip_connect~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|skip_connect~0|skip_connect~1|nor_conv_3x3~2|",
    "|nor_conv_1x1~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_1x1~2|",
    "|skip_connect~0|+|nor_conv_3x3~0|nor_conv_1x1~1|+|nor_conv_1x1~0|nor_conv_3x3~1|nor_conv_3x3~2|",
)


def test_09_cell_string_round_trip():
    for text in CELL_STRINGS:
        assert serialize_nb201(parse_nb201(text)) == text
    _report("PASS 09 cell strings: 7/7 parse/serialize round trips byte-identical")


# ---------------------------------------------------------------------------
# 10. correlation pipeline on user-supplied accuracies


def test_10_correlation_pipeline_accepts_user_accuracy_table(tmp_path, capsys):
    ids = [f"{d.d1}-{d.d2}-{d.d3}" for d in enumerate_s0()][:20]
    rng = np.random.default_rng(10)

    score_paths = []
    for seed in (0, 1, 2):
        rows = [
            ScoreRow(arch_id, "diswot", -float(i) + float(rng.normal(0, 0.5)), True, seed)
            for i, arch_id in enumerate(ids)
        ]
        path = tmp_path / f"scores{seed}.csv"
        write_scores_csv(path, rows)
        score_paths.append(path)
    accuracy_path = tmp_path / "accuracy.csv"
    accuracy_path.write_text(
        "arch_id,accuracy\n" + "".join(f"{a},{70.0 - 0.3 * i}\n" for i, a in enumerate(ids))
    )

    reports = evaluate_proxy(score_paths, load_accuracy_csv(accuracy_path))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.proxy_name == "diswot"
    assert rep.n_seeds == 3 and rep.n_archs == 20
    for summary in (rep.kendall_tau, rep.spearman, rep.pearson):
        assert -1.0 <= summary.mean <= 1.0

    out = tmp_path / "report.csv"
    code = cli_main(
        ["rank", "--scores", *map(str, score_paths), "--accuracy", str(accuracy_path),
         "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kendall_tau" in stdout and "+-" in stdout
    lines = out.read_text().splitlines()
    assert "proxy,metric,mean,std,n_seeds,n_archs" in lines
    assert any(line.startswith("diswot,kendall_tau,") for line in lines)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "accurac" in readme.lower() and "train" in readme.lower()

    _report(
        "PASS 10 correlation pipeline: user accuracy CSV + score CSVs -> percent report table "
        "(summary numbers depend on trained ground truth the user must supply)"
    )
