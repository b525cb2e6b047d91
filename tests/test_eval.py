"""Cross-validation harness and the statistics underneath it."""

import json
from dataclasses import replace

import numpy as np
import pytest

import stats_fixtures
from emoprop.evaluate import (
    EvalError,
    aggregate_reports,
    compare_runs,
    format_comparison,
    format_metrics_table,
    make_folds,
    paired_t_test,
    pooled_r_r2,
    prf_scores,
    run_cv,
    shapiro_wilk,
)
from emoprop.graph import DIMENSIONS, LEXICAL_UNIT, NUM_DIMENSIONS
from emoprop.mlp import MLPConfig
from emoprop.synth import SynthConfig, generate
from helpers import ann, lu, random_table


class TestMakeFolds:
    def test_exact_80_10_10(self):
        folds = make_folds(list(range(100)), seed=0)
        for fold in folds:
            assert (len(fold.train), len(fold.val), len(fold.test)) == (80, 10, 10)

    @pytest.mark.parametrize("n", [10, 37])
    def test_partition_invariants(self, n):
        ids = [f"id{i}" for i in range(n)]
        folds = make_folds(ids, seed=3)
        assert len(folds) == 10
        seen_in_test = []
        for fold in folds:
            parts = [*fold.train, *fold.val, *fold.test]
            assert sorted(parts) == sorted(ids)
            assert abs(len(fold.test) - n / 10) < 1
            assert abs(len(fold.val) - n / 10) < 1
            seen_in_test.extend(fold.test)
        assert sorted(seen_in_test) == sorted(ids)

    def test_deterministic(self):
        a = make_folds(list(range(30)), seed=5)
        b = make_folds(list(range(30)), seed=5)
        assert a == b

    def test_seed_changes_assignment(self):
        a = make_folds(list(range(30)), seed=0)
        b = make_folds(list(range(30)), seed=1)
        assert a != b

    def test_too_few_ids(self):
        with pytest.raises(EvalError, match="need at least 10 ids"):
            make_folds(list(range(9)), seed=0)

    def test_three_folds(self):
        folds = make_folds(list(range(12)), seed=2, n_folds=3)
        assert len(folds) == 3
        for fold in folds:
            assert (len(fold.train), len(fold.val), len(fold.test)) == (4, 4, 4)


class TestPrfScores:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gold = rng.random((8, NUM_DIMENSIONS)) < 0.3
        gold[0, :] = True
        report = prf_scores(gold, gold)
        assert np.all(report.precision == 1.0)
        assert np.all(report.recall == 1.0)
        assert np.all(report.f1 == 1.0)
        assert report.micro == (1.0, 1.0, 1.0)

    def test_all_negative_counts_as_zero(self):
        empty = np.zeros((4, NUM_DIMENSIONS), dtype=bool)
        report = prf_scores(empty, empty)
        assert np.all(report.f1 == 0.0)
        assert report.micro == (0.0, 0.0, 0.0)
        assert report.weighted == (0.0, 0.0, 0.0)

    def test_counting_case(self):
        """One dimension with gold [1,0] and pred [1,1]: P 1/2, R 1, F1 2/3."""
        gold = np.zeros((2, NUM_DIMENSIONS), dtype=bool)
        pred = np.zeros((2, NUM_DIMENSIONS), dtype=bool)
        gold[0, 0] = True
        pred[:, 0] = True
        report = prf_scores(pred, gold)
        assert report.precision[0] == 0.5
        assert report.recall[0] == 1.0
        assert report.f1[0] == pytest.approx(2 / 3, rel=1e-12)
        assert report.micro.precision == 0.5
        assert report.micro.recall == 1.0
        assert report.micro.f1 == pytest.approx(2 / 3, rel=1e-12)
        assert report.macro.f1 == pytest.approx((2 / 3) / NUM_DIMENSIONS, rel=1e-12)
        assert report.support[0] == 1
        assert report.support[1:].sum() == 0

    def test_weighted_equals_macro_for_uniform_support(self):
        gold = np.eye(NUM_DIMENSIONS, dtype=bool)
        pred = np.random.default_rng(4).random((NUM_DIMENSIONS, NUM_DIMENSIONS)) < 0.4
        report = prf_scores(pred, gold)
        assert report.weighted.precision == pytest.approx(report.macro.precision, rel=1e-12)
        assert report.weighted.recall == pytest.approx(report.macro.recall, rel=1e-12)
        assert report.weighted.f1 == pytest.approx(report.macro.f1, rel=1e-12)

    def test_micro_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(9)
        gold = rng.random((12, NUM_DIMENSIONS)) < 0.3
        pred = rng.random((12, NUM_DIMENSIONS)) < 0.3
        r = prf_scores(pred, gold)
        p, rec = r.micro.precision, r.micro.recall
        assert r.micro.f1 == pytest.approx(2 * p * rec / (p + rec), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(EvalError, match="shape"):
            prf_scores(np.zeros((3, NUM_DIMENSIONS)), np.zeros((4, NUM_DIMENSIONS)))
        with pytest.raises(EvalError, match="shape"):
            prf_scores(np.zeros((3, 5)), np.zeros((3, 5)))


class TestPooledR:
    def test_perfect_is_exactly_one_one(self):
        gold = np.random.default_rng(1).random((4, NUM_DIMENSIONS))
        assert pooled_r_r2(gold.copy(), gold) == (1.0, 1.0)

    def test_constant_mean_prediction_is_zero_zero(self):
        gold = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, 2.5)
        assert pooled_r_r2(pred, gold) == (0.0, 0.0)

    def test_hand_case(self):
        r, r2 = pooled_r_r2(np.array([2.0, 4.0, 6.0]), np.array([1.0, 2.0, 3.0]))
        assert r == 1.0
        assert r2 == -6.0

    def test_constant_gold_rejected(self):
        with pytest.raises(EvalError, match="gold series is constant"):
            pooled_r_r2(np.array([1.0, 2.0, 3.0]), np.full(3, 0.5))

    def test_r_stays_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pred = rng.normal(size=50) * rng.uniform(0.1, 10)
            gold = rng.normal(size=50)
            r, r2 = pooled_r_r2(pred, gold)
            assert -1.0 <= r <= 1.0
            assert r2 <= 1.0

    def test_too_short(self):
        with pytest.raises(EvalError, match="at least 2"):
            pooled_r_r2(np.array([1.0]), np.array([2.0]))


# scipy only warns on some of what the guards reject (a UserWarning for
# N > 5000 and for a range it treats as zero, a RuntimeWarning for
# differences equal up to rounding), and pyproject turns only
# RuntimeWarning into an error; here every warning is one, so each guard
# must raise EvalError before scipy is called.
@pytest.mark.filterwarnings("error")
class TestShapiroWilk:
    @pytest.mark.parametrize(
        "name,sample,expected_w,expected_p", stats_fixtures.SHAPIRO_CASES
    )
    def test_reference_values(self, name, sample, expected_w, expected_p):
        got = shapiro_wilk(sample)
        assert got.statistic == pytest.approx(expected_w, abs=5e-7)
        assert got.pvalue == pytest.approx(expected_p, abs=5e-7)
        assert got.statistic <= 1.0

    def test_affine_invariance(self):
        sample = [0.31, 0.42, 0.58, 0.61, 0.77, 0.93, 1.2]
        base = shapiro_wilk(sample)
        scaled = shapiro_wilk([3.0 * v + 7.0 for v in sample])
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-10)
        assert scaled.pvalue == pytest.approx(base.pvalue, rel=1e-10)

    def test_rejects_bimodal(self):
        case = dict((c[0], c) for c in stats_fixtures.SHAPIRO_CASES)["ten_bimodal"]
        assert shapiro_wilk(case[1]).pvalue < 0.05

    def test_accepts_normal_quantiles(self):
        case = dict((c[0], c) for c in stats_fixtures.SHAPIRO_CASES)["ten_normal_quantiles"]
        assert shapiro_wilk(case[1]).pvalue > 0.05

    def test_input_validation(self):
        with pytest.raises(EvalError, match="at least 3"):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(EvalError, match="more than 5000"):
            shapiro_wilk(np.arange(5001, dtype=float))
        with pytest.raises(EvalError, match="zero variance"):
            shapiro_wilk([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(EvalError, match="zero variance"):
            shapiro_wilk([0.0, 1e-300, 3e-300])
        got = shapiro_wilk(np.arange(5000, dtype=float) ** 2)
        assert 0.0 < got.statistic < 1.0 and 0.0 <= got.pvalue < 0.05


@pytest.mark.filterwarnings("error")
class TestPairedTTest:
    @pytest.mark.parametrize("name,a,b,expected_t,expected_p", stats_fixtures.TTEST_CASES)
    def test_reference_values(self, name, a, b, expected_t, expected_p):
        got = paired_t_test(a, b)
        assert got.statistic == pytest.approx(expected_t, abs=1e-7)
        assert got.pvalue == pytest.approx(expected_p, abs=1e-7)
        assert got.df == len(a) - 1

    def test_hand_case(self):
        got = paired_t_test([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert got.statistic == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert got.df == 2

    def test_symmetric_differences(self):
        got = paired_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0])
        assert got.statistic == 0.0
        assert got.pvalue == 1.0

    def test_constant_difference_rejected(self):
        with pytest.raises(EvalError, match="zero-variance differences"):
            paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])

    def test_inexact_constant_difference_rejected(self):
        """np.std of ten copies of 1/3 is 5.9e-17, not 0; constancy is
        detected on the differences themselves."""
        with pytest.raises(EvalError, match="zero-variance differences"):
            paired_t_test(np.full(10, 1 / 3), np.zeros(10))
        # 0.1 up to rounding: 0.09999999999999998, 0.10000000000000009, ...
        with pytest.raises(EvalError, match="zero-variance differences"):
            paired_t_test([0.7, 0.8, 0.9], [0.6, 0.7, 0.8])

    def test_shift_invariance(self):
        a = [0.3, 0.6, 0.2, 0.9, 0.4]
        b = [0.1, 0.5, 0.4, 0.6, 0.2]
        base = paired_t_test(a, b)
        shifted = paired_t_test([v + 10 for v in a], [v + 10 for v in b])
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(EvalError, match="shape"):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvalError, match="at least 2"):
            paired_t_test([1.0], [2.0])


@pytest.mark.filterwarnings("error")
class TestCompareRuns:
    def test_identical_samples(self):
        vals = [0.5, 0.6, 0.7, 0.8]
        report = compare_runs(vals, list(vals))
        assert report.identical is True
        assert report.ttest is None
        assert report.significant is None
        assert any("zero variance" in n for n in report.notes)
        text = format_comparison(report)
        assert "paired t-test: identical samples, no statistic" in text

    def test_constant_shift_is_not_identical(self):
        report = compare_runs([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5])
        assert report.identical is False
        assert report.ttest is None
        assert report.significant is None
        assert report.mean_difference == 0.5
        text = format_comparison(report)
        assert "paired t-test: constant difference 0.5000, no statistic" in text
        assert "identical" not in text

    def test_inexact_constant_shift_has_no_statistic(self):
        report = compare_runs(np.full(10, 1 / 3), np.zeros(10))
        assert report.identical is False
        assert report.ttest is None
        assert report.significant is None
        text = format_comparison(report)
        assert "paired t-test: constant difference 0.3333, no statistic" in text
        assert "significant" not in text
        report = compare_runs([0.7, 0.8, 0.9], [0.6, 0.7, 0.8])
        assert report.ttest is None and report.significant is None
        assert "constant difference 0.1000, no statistic" in format_comparison(report)

    def test_unpaired_samples_rejected(self):
        with pytest.raises(EvalError, match="differ in shape"):
            compare_runs([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7])
        with pytest.raises(EvalError, match="at least 2 pairs"):
            compare_runs([0.5], [0.6])

    def test_constant_sample_undetermined(self):
        report = compare_runs([0.5] * 5, [0.1, 0.4, 0.2, 0.5, 0.3])
        assert report.shapiro_a is None
        assert report.normal_a is None
        assert any(n.startswith("sample a: normality undetermined") for n in report.notes)
        assert report.ttest is not None
        assert "shapiro-wilk a: undetermined" in format_comparison(report)

    def test_matches_direct_calls(self):
        case = dict((c[0], c) for c in stats_fixtures.TTEST_CASES)["eight_independent"]
        _, a, b, _, _ = case
        report = compare_runs(a, b, alpha=0.05)
        assert report.shapiro_a == shapiro_wilk(a)
        assert report.shapiro_b == shapiro_wilk(b)
        assert report.ttest == paired_t_test(a, b)
        assert report.normal_a == (report.shapiro_a.pvalue > 0.05)
        assert report.significant == (report.ttest.pvalue < 0.05)

    def test_alpha_controls_significance(self):
        a, b = [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
        # p = 0.2254 for this pair
        assert compare_runs(a, b, alpha=0.3).significant is True
        assert compare_runs(a, b, alpha=0.05).significant is False

    def test_format_lines(self):
        case = dict((c[0], c) for c in stats_fixtures.TTEST_CASES)["eight_independent"]
        _, a, b, _, _ = case
        text = format_comparison(compare_runs(a, b))
        assert text.startswith("alpha = 0.05")
        assert "shapiro-wilk a: W = " in text
        assert "shapiro-wilk b: W = " in text
        assert "paired t-test: t = " in text
        assert "(significant)" in text or "(not significant)" in text


def _toy_reports():
    rng = np.random.default_rng(6)
    reports = []
    for _ in range(3):
        gold = rng.random((10, NUM_DIMENSIONS)) < 0.3
        pred = rng.random((10, NUM_DIMENSIONS)) < 0.3
        reports.append(prf_scores(pred, gold))
    return reports


class TestAggregateAndFormat:
    def test_mean_and_sd(self):
        reports = _toy_reports()
        agg = aggregate_reports(reports)
        vals = [r.micro.f1 for r in reports]
        assert agg["micro"]["f1"]["mean"] == pytest.approx(np.mean(vals), rel=1e-12)
        assert agg["micro"]["f1"]["sd"] == pytest.approx(np.std(vals, ddof=1), rel=1e-12)
        assert set(agg[DIMENSIONS[0]]) == {"precision", "recall", "f1", "support"}

    def test_single_report_sd_zero(self):
        agg = aggregate_reports(_toy_reports()[:1])
        assert agg["macro"]["f1"]["sd"] == 0.0

    def test_pooled_only_when_all_present(self):
        reports = _toy_reports()
        assert "pooled_r" not in aggregate_reports(reports)
        for r in reports:
            r.pooled_r, r.pooled_r2 = 0.5, 0.25
        agg = aggregate_reports(reports)
        assert agg["pooled_r"]["mean"] == pytest.approx(0.5)
        assert agg["pooled_r2"]["sd"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="no reports"):
            aggregate_reports([])

    def test_table_layout(self):
        reports = _toy_reports()
        for r in reports:
            r.pooled_r, r.pooled_r2 = 0.5, 0.25
        table = format_metrics_table(aggregate_reports(reports))
        lines = table.splitlines()
        assert lines[0].split() == ["P", "R", "F1"]
        assert len(lines) == 1 + NUM_DIMENSIONS + 3 + 2
        names = [ln.split()[0] for ln in lines[1:]]
        assert names == [*DIMENSIONS, "micro", "macro", "weighted", "pooled_r", "pooled_r2"]
        assert all("±" in ln for ln in lines[1:])

    def test_table_without_pooled(self):
        table = format_metrics_table(aggregate_reports(_toy_reports()))
        assert "pooled_r" not in table


def _cv_fixture():
    g = generate(
        SynthConfig(
            communities=2,
            synsets_per_community=6,
            lus_per_synset=2,
            languages=("pl",),
            seed=14,
        )
    )
    lus = sorted(n for n in g.nodes if n.kind == LEXICAL_UNIT)
    table = random_table(lus + g.synsets(), dim=8, seed=15)
    cfg = MLPConfig(variant="base", input_dim=8, batch_size=16, max_epochs=20, patience=30, seed=3)
    return g, table, cfg


class TestRunCv:
    def test_structure(self):
        g, table, cfg = _cv_fixture()
        result = run_cv(g, table, cfg, seed=21)
        assert len(result.folds) == 10
        assert len(result.reports) == 10
        assert all(r.pooled_r is not None for r in result.reports)
        tested = sorted(x for fold in result.folds for x in fold.test)
        assert tested == sorted(g.annotations)
        assert "micro" in result.aggregate and "pooled_r" in result.aggregate

    def test_deterministic(self):
        g, table, cfg = _cv_fixture()
        a = run_cv(g, table, cfg, seed=21)
        b = run_cv(g, table, cfg, seed=21)
        assert json.dumps(a.aggregate, sort_keys=True) == json.dumps(b.aggregate, sort_keys=True)

    def test_fewer_folds(self):
        g, table, cfg = _cv_fixture()
        result = run_cv(g, table, cfg, seed=21, n_folds=5)
        assert len(result.folds) == 5

    def test_annotation_subset(self):
        g, table, cfg = _cv_fixture()
        subset = dict(sorted(g.annotations.items())[:20])
        result = run_cv(replace(g, annotations=subset), table, cfg, seed=21)
        tested = sorted(x for fold in result.folds for x in fold.test)
        assert tested == sorted(subset)

    def test_too_few_annotations(self):
        g, table, cfg = _cv_fixture()
        subset = dict(sorted(g.annotations.items())[:4])
        with pytest.raises(EvalError, match="need at least 20 annotated"):
            run_cv(replace(g, annotations=subset), table, cfg, seed=21)
