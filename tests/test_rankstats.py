"""Correlation coefficient and proxy-evaluation tests."""

import itertools
import re
import tempfile
import tracemalloc
import warnings
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diswot.data import ScoreRow, write_scores_csv
from diswot.rankstats import (
    CoefficientSummary,
    CorrelationReport,
    MissingArchError,
    average_ranks,
    evaluate_proxy,
    format_report_table,
    kendall_tau,
    pearson,
    report_rows,
    spearman,
)

import oracles


# ---------------------------------------------------------------------------
# hand examples


def test_kendall_examples():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(4.0 / 6.0)


def test_kendall_ties_contribute_zero():
    # pairs: (0,1) tied in targets -> 0; (0,2) and (1,2) concordant -> 2/3
    assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2.0 / 3.0)


def test_kendall_tau_b_tie_correction():
    got = kendall_tau([1, 1, 2], [1, 2, 3], tie_correction=True)
    assert got == pytest.approx(2.0 / np.sqrt(6.0), abs=1e-12)


def test_spearman_examples():
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_examples():
    assert pearson([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0)       # 2b + 1
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(np.sqrt(27.0 / 28.0), abs=1e-12)


def test_average_ranks():
    np.testing.assert_array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_array_equal(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# brute-force equivalence on all small permutations


def test_all_permutations_match_oracles():
    for m in range(3, 7):
        base = np.arange(1.0, m + 1)
        for perm in itertools.permutations(base):
            y = np.array(perm)
            assert kendall_tau(base, y) == oracles.kendall_naive(base, y)
            s = spearman(base, y)
            assert s == oracles.spearman_naive(base, y)
            # algebraic closed form differs by at most one rounding step
            assert s == pytest.approx(oracles.spearman_closed_form(base, y), abs=3e-16)
            assert pearson(base, y) == oracles.pearson_naive(base, y)
    # kendall is defined down to M = 2
    assert kendall_tau([1.0, 2.0], [2.0, 1.0]) == -1.0


def test_tied_inputs_match_oracles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(3, 9))
        x = rng.integers(0, 4, size=m).astype(float)
        y = rng.integers(0, 4, size=m).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert kendall_tau(x, y) == pytest.approx(oracles.kendall_naive(x, y), abs=1e-15)
        assert spearman(x, y) == pytest.approx(oracles.spearman_naive(x, y), abs=1e-12)


def test_kendall_heavy_ties_exact():
    # The concordance is an exact integer count, so no tolerance is needed.
    rng = np.random.default_rng(7)
    for m in (2, 3, 17, 64, 65, 128, 199, 200):
        for levels in (2, 5, m):
            x = rng.integers(0, levels, size=m).astype(float)
            y = rng.integers(0, max(2, levels // 2), size=m).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau(x, y) == oracles.kendall_naive(x, y)


def test_average_ranks_tied_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(1, 61))
        x = rng.integers(0, int(rng.integers(1, 10)), size=m).astype(float)
        np.testing.assert_array_equal(average_ranks(x), oracles.ranks_naive(x))


def test_kendall_full_nb201_size_in_bounded_memory():
    # All 15 625 NB201 cells, rounded like a real accuracy table, so both
    # columns are heavily tied; pairwise sign matrices would need ~7 GiB.
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(9)
    accs = np.round(np.clip(rng.normal(85.0, 8.0, 15625), 10.0, 94.5), 2)
    scores = np.round(accs + rng.normal(0.0, 6.0, 15625), 1)
    tracemalloc.start()
    try:
        tau_b = kendall_tau(accs, scores, tie_correction=True)
        average_ranks(scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau_b == pytest.approx(scipy_stats.kendalltau(accs, scores).statistic, abs=1e-12)
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------------------
# properties


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    assert kendall_tau(x, np.exp(y)) == pytest.approx(kendall_tau(x, y), abs=1e-15)
    assert spearman(x, np.exp(y)) == pytest.approx(spearman(x, y), abs=1e-12)
    assert pearson(x, 2.0 * y + 3.0) == pytest.approx(pearson(x, y), abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(9)
    y = rng.standard_normal(9)
    assert kendall_tau(x, y) == kendall_tau(y, x)
    assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


def test_coefficients_bounded():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(3, 20))
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        for v in (kendall_tau(x, y), spearman(x, y), pearson(x, y)):
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_constant_series_behavior():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert len(caught) == 2
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_minimum_lengths():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0], [1.0])


@pytest.mark.parametrize("coefficient", [kendall_tau, spearman, pearson])
def test_coefficients_reject_non_finite(coefficient):
    good = [1.0, 2.0, 3.0, 4.0]
    for bad in ([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, np.inf, 4.0]):
        with pytest.raises(ValueError, match="finite"):
            coefficient(good, bad)
        with pytest.raises(ValueError, match="finite"):
            coefficient(bad, good)


# ---------------------------------------------------------------------------
# evaluate_proxy


def write_fixture(tmp_path, name, rows, config=None):
    path = tmp_path / name
    write_scores_csv(path, rows, config)
    return path


def accuracy_map(ids, values):
    return dict(zip(ids, values))


def test_evaluate_proxy_perfect_agreement(tmp_path):
    ids = [f"arch{i}" for i in range(10)]
    acc = accuracy_map(ids, [float(i) for i in range(10)])
    paths = []
    for seed in range(3):
        rows = [ScoreRow(a, "diswot", float(i), True, seed) for i, a in enumerate(ids)]
        paths.append(write_fixture(tmp_path, f"s{seed}.csv", rows))
    reports = evaluate_proxy(paths, acc)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.proxy_name == "diswot"
    assert rep.n_seeds == 3
    assert rep.n_archs == 10
    for coeff in (rep.kendall_tau, rep.spearman, rep.pearson):
        assert coeff.mean == pytest.approx(1.0, abs=1e-12)
        assert coeff.std == pytest.approx(0.0, abs=1e-12)


def test_evaluate_proxy_single_seed_zero_std(tmp_path):
    ids = ["a", "b", "c", "d"]
    rows = [ScoreRow(a, "nwot", float(i * i), True, 0) for i, a in enumerate(ids)]
    path = write_fixture(tmp_path, "one.csv", rows)
    rep = evaluate_proxy([path], accuracy_map(ids, [0.0, 1.0, 2.0, 3.0]))[0]
    assert rep.n_seeds == 1
    assert rep.spearman.std == 0.0
    assert rep.spearman.mean == pytest.approx(1.0)


def test_evaluate_proxy_missing_arch_named(tmp_path):
    # The first missing id in row order is named.
    ids = ["a", "b", "ghost2", "c", "ghost1"]
    rows = [ScoreRow(a, "diswot", float(i), True, 0) for i, a in enumerate(ids)]
    path = write_fixture(tmp_path, "m.csv", rows)
    with pytest.raises(MissingArchError, match="'ghost2'"):
        evaluate_proxy([path], accuracy_map(["a", "b", "c"], [1.0, 2.0, 3.0]))


def test_evaluate_proxy_duplicate_arch_named(tmp_path):
    rows = [ScoreRow(a, "diswot", float(i), True, 0) for i, a in enumerate(["a", "b", "a", "c"])]
    rows.append(ScoreRow("a", "diswot", 9.0, True, 1))  # another seed may repeat it
    path = write_fixture(tmp_path, "dup.csv", rows)
    with pytest.raises(ValueError, match="duplicate arch_id 'a'"):
        evaluate_proxy([path], accuracy_map(["a", "b", "c"], [1.0, 2.0, 3.0]))


def test_evaluate_proxy_too_few_rows(tmp_path):
    rows = [ScoreRow(a, "diswot", 1.0, True, 0) for a in ["a", "b"]]
    path = write_fixture(tmp_path, "few.csv", rows)
    with pytest.raises(ValueError):
        evaluate_proxy([path], accuracy_map(["a", "b"], [1.0, 2.0]))


def test_evaluate_proxy_subsample_repeats(tmp_path):
    rng = np.random.default_rng(4)
    ids = [f"n{i}" for i in range(30)]
    accs = list(rng.standard_normal(30))
    rows = [ScoreRow(a, "diswot", v + 0.01 * rng.standard_normal(), True, 0) for a, v in zip(ids, accs)]
    path = write_fixture(tmp_path, "sub.csv", rows)
    rep = evaluate_proxy(
        [path], accuracy_map(ids, accs), sample_size=10,
        rng=np.random.default_rng(5), n_repeats=10,
    )[0]
    assert rep.n_seeds == 10
    assert rep.n_archs == 10
    assert rep.spearman.std > 0.0


def test_evaluate_proxy_multiple_proxies_sorted(tmp_path):
    ids = ["a", "b", "c", "d"]
    rows = [ScoreRow(a, "nwot", float(i), True, 0) for i, a in enumerate(ids)]
    rows += [ScoreRow(a, "diswot", float(-i), True, 0) for i, a in enumerate(ids)]
    path = write_fixture(tmp_path, "multi.csv", rows)
    reports = evaluate_proxy([path], accuracy_map(ids, [0.0, 1.0, 2.0, 3.0]))
    assert [r.proxy_name for r in reports] == ["diswot", "nwot"]
    assert reports[0].spearman.mean == pytest.approx(-1.0)
    assert reports[1].spearman.mean == pytest.approx(1.0)


def test_evaluate_proxy_noisy_against_reference_stats(tmp_path):
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(6)
    ids = [f"x{i}" for i in range(50)]
    accs = rng.standard_normal(50)
    noise = 0.55 * rng.standard_normal(50)
    scores = accs + noise
    rows = [ScoreRow(a, "diswot", float(s), True, 0) for a, s in zip(ids, scores)]
    path = write_fixture(tmp_path, "noisy.csv", rows)
    rep = evaluate_proxy([path], accuracy_map(ids, accs))[0]
    want_rho = scipy_stats.spearmanr(accs, scores).statistic
    want_tau = scipy_stats.kendalltau(accs, scores).statistic
    want_r = scipy_stats.pearsonr(accs, scores).statistic
    assert rep.spearman.mean == pytest.approx(want_rho, abs=0.05)
    assert rep.kendall_tau.mean == pytest.approx(want_tau, abs=0.05)
    assert rep.pearson.mean == pytest.approx(want_r, abs=0.05)


def expected_reports(repetitions):
    """CorrelationReports from the oracle's joined series, with the package's coefficients."""
    reports = []
    for proxy, series in repetitions.items():
        coeffs = [[f(t, s) for t, s in series] for f in (kendall_tau, spearman, pearson)]
        summaries = [CoefficientSummary(float(np.mean(c)), float(np.std(c))) for c in coeffs]
        reports.append(CorrelationReport(proxy, *summaries, len(series), len(series[0][0])))
    return reports


@st.composite
def tied_rank_tables(draw):
    """Score tables over a tied accuracy table: several files, seeds and proxies, rows shuffled."""
    n = draw(st.integers(4, 16))
    ids = [f"arch{i}" for i in range(n)]
    accuracy = {i: draw(st.sampled_from([60.0, 61.5, 65.0, 70.25, 75.5, 80.0])) for i in ids}
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for proxy in draw(st.lists(st.sampled_from(["diswot", "nwot", "params"]), min_size=1, max_size=3, unique=True)):
            for seed in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
                rows += [ScoreRow(i, proxy, float(draw(st.integers(-5, 5))), True, seed) for i in ids]
        tables.append(draw(st.permutations(rows)))
    subsample = st.integers(max(3, n // 2), n - 1)
    sample = draw(st.one_of(st.none(), st.just(n), subsample, subsample))
    repeats = draw(st.one_of(st.none(), st.integers(1, 6)))
    return tables, accuracy, sample, repeats


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=tied_rank_tables(), seed=st.integers(0, 2**32 - 1))
def test_evaluate_proxy_matches_per_repetition_join(case, seed):
    # Joining each series once gives the reports that joining it afresh in
    # every repetition gives, rng draw for rng draw.
    tables, accuracy, sample, repeats = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"s{k}.csv" for k in range(len(tables))]
        for path, rows in zip(paths, tables):
            write_scores_csv(path, rows, config={"table": path.name})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # constant samples
            try:
                want = expected_reports(oracles.rank_repetitions_naive(
                    tables, accuracy, sample, np.random.default_rng(seed), repeats))
            except ValueError as e:  # a constant sample has no pearson
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    evaluate_proxy(paths, accuracy, sample, np.random.default_rng(seed), repeats)
                return
            got = evaluate_proxy(paths, accuracy, sample, np.random.default_rng(seed), repeats)
    assert got == want


class CountingTable(Mapping):
    """An accuracy table that counts the lookups of each key."""

    def __init__(self, table):
        self.table = table
        self.lookups = Counter()

    def __getitem__(self, key):
        self.lookups[key] += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_evaluate_proxy_joins_each_series_once(tmp_path):
    # Two seeds' series over the same ids, sampled in ten repetitions: each
    # id is looked up once per series, however often a repetition draws it.
    ids = [f"a{i}" for i in range(8)]
    rows = [ScoreRow(a, "diswot", float(i % 3), True, seed) for seed in (0, 1) for i, a in enumerate(ids)]
    path = write_fixture(tmp_path, "two.csv", rows)
    table = CountingTable(accuracy_map(ids, [float(i) for i in range(8)]))
    evaluate_proxy([path], table, sample_size=6, rng=np.random.default_rng(0), n_repeats=10)
    assert table.lookups == Counter({a: 2 for a in ids})


def test_evaluate_proxy_unused_series_not_checked(tmp_path):
    # Only series a repetition uses are joined: with one repetition, seed 1's
    # duplicate goes unread.
    rows = [ScoreRow(a, "diswot", float(i), True, 0) for i, a in enumerate(["a", "b", "c"])]
    rows += [ScoreRow(a, "diswot", float(i), True, 1) for i, a in enumerate(["a", "a", "b"])]
    path = write_fixture(tmp_path, "dup1.csv", rows)
    acc = accuracy_map(["a", "b", "c"], [1.0, 2.0, 3.0])
    assert evaluate_proxy([path], acc, n_repeats=1)[0].n_archs == 3
    with pytest.raises(ValueError, match="duplicate arch_id 'a'"):
        evaluate_proxy([path], acc, n_repeats=2)


# ---------------------------------------------------------------------------
# report formatting


def fake_report():
    return CorrelationReport(
        proxy_name="diswot",
        kendall_tau=CoefficientSummary(0.7398, 0.012),
        spearman=CoefficientSummary(0.9138, 0.008),
        pearson=CoefficientSummary(0.8483, 0.02),
        n_seeds=10,
        n_archs=50,
    )


def test_report_rows_are_percentages():
    rows = report_rows([fake_report()])
    assert rows[0][:2] == ("diswot", "kendall_tau")
    assert rows[0][2] == pytest.approx(73.98)
    assert rows[1][2] == pytest.approx(91.38)
    assert rows[2][2] == pytest.approx(84.83)
    assert rows[0][4:] == (10, 50)


def test_report_csv_two_decimal_percent(tmp_path):
    from diswot.data import write_report_csv

    path = tmp_path / "report.csv"
    write_report_csv(path, report_rows([fake_report()]))
    text = path.read_text()
    assert text.splitlines()[0] == "proxy,metric,mean,std,n_seeds,n_archs"
    assert "diswot,kendall_tau,73.98,1.20,10,50" in text
    assert "diswot,spearman,91.38,0.80,10,50" in text
    assert "diswot,pearson,84.83,2.00,10,50" in text


def test_format_report_table_renders_percent():
    table = format_report_table([fake_report()])
    assert "diswot" in table
    assert "73.98 +- 1.20" in table
    assert "91.38 +- 0.80" in table
    assert "84.83 +- 2.00" in table
