"""Cross-validation harness, multilabel P/R/F1, pooled R/R² and the two
significance tests used to compare configurations.

Folds: annotated LU ids are shuffled once per seed and cut into 10
contiguous blocks; fold k tests on block k, validates on block (k+1) mod
10 and trains on the rest, an 80/10/10 split when the count divides
evenly.  Classification metrics binarize at 0.5 and follow the 0/0 = 0
convention; regression metrics pool all (LU, dimension) pairs into one
series.  Normality is checked with Shapiro-Wilk and runs are compared
with a paired two-sided Student t-test, both computed by ``scipy.stats``,
which is imported on first use so that no pipeline stage loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import DIMENSIONS, NUM_DIMENSIONS, WordNetGraph
from .mlp import MLPConfig, binarize
from .propagate import propagate, training_set

NUM_FOLDS = 10
DEFAULT_ALPHA = 0.05


class EvalError(ValueError):
    """Invalid evaluation inputs."""


@dataclass(frozen=True)
class FoldSpec:
    index: int
    train: tuple
    val: tuple
    test: tuple


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


class ShapiroResult(NamedTuple):
    statistic: float
    pvalue: float


class TTestResult(NamedTuple):
    statistic: float
    df: int
    pvalue: float


@dataclass
class MetricsReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    micro: PRF
    macro: PRF
    weighted: PRF
    pooled_r: float | None = None
    pooled_r2: float | None = None


@dataclass
class CVResult:
    folds: list[FoldSpec]
    reports: list[MetricsReport]
    aggregate: dict


@dataclass
class ComparisonReport:
    alpha: float
    shapiro_a: ShapiroResult | None
    shapiro_b: ShapiroResult | None
    normal_a: bool | None
    normal_b: bool | None
    ttest: TTestResult | None
    significant: bool | None
    identical: bool
    mean_difference: float
    notes: list[str] = field(default_factory=list)


def make_folds(lu_ids: Sequence, seed: int, n_folds: int = NUM_FOLDS) -> list[FoldSpec]:
    """Shuffle, cut into n_folds contiguous blocks (sizes differ by at
    most 1), rotate test/val/train roles."""
    ids = list(lu_ids)
    if len(ids) < n_folds:
        raise EvalError(f"need at least {n_folds} ids, got {len(ids)}")
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(len(ids))]
    blocks = [
        [shuffled[i] for i in chunk]
        for chunk in np.array_split(np.arange(len(ids)), n_folds)
    ]
    folds = []
    for k in range(n_folds):
        test = tuple(blocks[k])
        val = tuple(blocks[(k + 1) % n_folds])
        train = tuple(
            x for j, b in enumerate(blocks) if j not in (k, (k + 1) % n_folds) for x in b
        )
        folds.append(FoldSpec(index=k, train=train, val=val, test=test))
    return folds


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


def prf_scores(pred: np.ndarray, gold: np.ndarray) -> MetricsReport:
    """Per-dimension and averaged precision/recall/F1 over binary labels.

    0/0 counts as 0 everywhere; weighted averages use gold positives per
    dimension as weights.
    """
    pred = np.asarray(pred, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if pred.shape != gold.shape or pred.ndim != 2 or pred.shape[1] != NUM_DIMENSIONS:
        raise EvalError(f"label shape mismatch: pred {pred.shape} vs gold {gold.shape}")
    tp = (pred & gold).sum(axis=0)
    fp = (pred & ~gold).sum(axis=0)
    fn = (~pred & gold).sum(axis=0)
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    support = gold.sum(axis=0)

    tp_all, fp_all, fn_all = int(tp.sum()), int(fp.sum()), int(fn.sum())
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    macro = PRF(float(precision.mean()), float(recall.mean()), float(f1.mean()))
    total = support.sum()
    if total:
        weighted = PRF(
            float(np.average(precision, weights=support)),
            float(np.average(recall, weights=support)),
            float(np.average(f1, weights=support)),
        )
    else:
        weighted = PRF(0.0, 0.0, 0.0)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        micro=PRF(micro_p, micro_r, micro_f1),
        macro=macro,
        weighted=weighted,
    )


def pooled_r_r2(pred: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Pearson R and R² = 1 − FVU over the flattened (LU, dim) series.

    A constant prediction series has no defined correlation; R = 0 by
    convention there.  Zero residual short-circuits to exactly (1, 1).
    """
    p = np.asarray(pred, dtype=np.float64).ravel()
    g = np.asarray(gold, dtype=np.float64).ravel()
    if p.shape != g.shape:
        raise EvalError(f"series length mismatch: {p.shape} vs {g.shape}")
    if p.size < 2:
        raise EvalError("need at least 2 pooled values")
    gc = g - g.mean()
    ss_gold = float(np.dot(gc, gc))
    if ss_gold == 0.0:
        raise EvalError("gold series is constant")
    resid = p - g
    ss_res = float(np.dot(resid, resid))
    if ss_res == 0.0:
        return 1.0, 1.0
    r2 = 1.0 - ss_res / ss_gold
    pc = p - p.mean()
    ss_pred = float(np.dot(pc, pc))
    if ss_pred == 0.0:
        return 0.0, r2
    r = float(np.dot(pc, gc) / np.sqrt(ss_pred * ss_gold))
    return max(-1.0, min(1.0, r)), r2


def shapiro_wilk(sample: Iterable[float]) -> ShapiroResult:
    """W statistic and p-value from ``scipy.stats.shapiro``.  Fewer than 3
    observations (scipy raises ValueError), more than 5000 or a range under
    1e-19 (scipy warns and returns a number) raise EvalError before the call."""
    x = np.asarray(list(sample), dtype=np.float64)
    if x.size < 3:
        raise EvalError("need at least 3 observations")
    if x.size > 5000:
        raise EvalError("more than 5000 observations")
    if x.max() - x.min() < 1e-19:  # the range swilk treats as zero (scipy 1.17.1)
        raise EvalError("zero variance sample")
    from scipy.stats import shapiro

    res = shapiro(x)
    return ShapiroResult(float(res.statistic), float(res.pvalue))


def _paired_differences(a: Iterable[float], b: Iterable[float]) -> np.ndarray:
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvalError(f"paired samples differ in shape: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise EvalError("need at least 2 pairs")
    return a - b


def paired_t_test(a: Iterable[float], b: Iterable[float]) -> TTestResult:
    """Two-sided paired t-test: ``scipy.stats.ttest_1samp`` of a − b against 0,
    as ``ttest_rel`` computes it.  Differences equal up to rounding raise EvalError."""
    d = _paired_differences(a, b)
    mean = d.mean()
    # scipy 1.17.1's _demean warns of cancellation at a spread under 10 ulps of the mean
    spread = np.abs(d - mean).max()
    if (d == d[0]).all() or spread < 10 * np.finfo(np.float64).eps * abs(mean):
        raise EvalError("zero-variance differences (samples identical up to a shift)")
    from scipy.stats import ttest_1samp

    res = ttest_1samp(d, 0.0)
    return TTestResult(float(res.statistic), d.size - 1, float(res.pvalue))


def compare_runs(
    f1_a: Sequence[float], f1_b: Sequence[float], alpha: float = DEFAULT_ALPHA
) -> ComparisonReport:
    """Normality check on each per-fold sample, then the paired t-test.

    Samples of unequal length or with fewer than 2 pairs raise EvalError.
    Other degenerate inputs are reported instead of raised: a zero-variance
    sample leaves its normality flag undetermined, and paired differences
    of zero variance leave no test statistic, with identical=True only
    when every difference is 0.
    """
    diff = _paired_differences(f1_a, f1_b)
    notes: list[str] = []

    def _shapiro(sample, label):
        try:
            res = shapiro_wilk(sample)
        except EvalError as exc:
            notes.append(f"sample {label}: normality undetermined ({exc})")
            return None, None
        return res, bool(res.pvalue > alpha)

    shapiro_a, normal_a = _shapiro(f1_a, "a")
    shapiro_b, normal_b = _shapiro(f1_b, "b")

    ttest = None
    significant = None
    identical = False
    try:
        ttest = paired_t_test(f1_a, f1_b)
        significant = bool(ttest.pvalue < alpha)
    except EvalError:
        # the samples passed _paired_differences, so the differences are constant
        identical = not diff.any()
        kind = "identical samples" if identical else "constant difference"
        notes.append(f"{kind}: paired differences have zero variance")
    return ComparisonReport(
        alpha=alpha,
        shapiro_a=shapiro_a,
        shapiro_b=shapiro_b,
        normal_a=normal_a,
        normal_b=normal_b,
        ttest=ttest,
        significant=significant,
        identical=identical,
        mean_difference=float(diff.mean()),
        notes=notes,
    )


def _mean_sd(values: Sequence[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "sd": sd}


def aggregate_reports(reports: Sequence[MetricsReport]) -> dict:
    """Mean ± sample sd across folds, keyed by dimension name plus the
    three averaging schemes and the pooled regression metrics."""
    if not reports:
        raise EvalError("no reports to aggregate")
    agg: dict = {}
    for di, name in enumerate(DIMENSIONS):
        agg[name] = {
            "precision": _mean_sd([r.precision[di] for r in reports]),
            "recall": _mean_sd([r.recall[di] for r in reports]),
            "f1": _mean_sd([r.f1[di] for r in reports]),
            "support": _mean_sd([float(r.support[di]) for r in reports]),
        }
    for scheme in ("micro", "macro", "weighted"):
        agg[scheme] = {
            metric: _mean_sd([getattr(getattr(r, scheme), metric) for r in reports])
            for metric in ("precision", "recall", "f1")
        }
    if all(r.pooled_r is not None for r in reports):
        agg["pooled_r"] = _mean_sd([r.pooled_r for r in reports])
        agg["pooled_r2"] = _mean_sd([r.pooled_r2 for r in reports])
    return agg


def format_metrics_table(aggregate: Mapping) -> str:
    """Aligned text rendering of an aggregate, one row per key."""
    rows = [("", "P", "R", "F1")]
    for name in (*DIMENSIONS, "micro", "macro", "weighted"):
        if name not in aggregate:
            continue
        entry = aggregate[name]
        rows.append(
            (
                name,
                _pm(entry["precision"]),
                _pm(entry["recall"]),
                _pm(entry["f1"]),
            )
        )
    for name in ("pooled_r", "pooled_r2"):
        if name in aggregate:
            rows.append((name, _pm(aggregate[name]), "", ""))
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    lines = [
        "  ".join(
            cell.ljust(widths[c]) if c == 0 else cell.rjust(widths[c])
            for c, cell in enumerate(row)
        ).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def _pm(entry: Mapping) -> str:
    return f"{entry['mean']:.3f} ± {entry['sd']:.3f}"


def format_comparison(report: ComparisonReport) -> str:
    lines = [f"alpha = {report.alpha}"]
    for label, res, flag in (
        ("a", report.shapiro_a, report.normal_a),
        ("b", report.shapiro_b, report.normal_b),
    ):
        if res is None:
            lines.append(f"shapiro-wilk {label}: undetermined")
        else:
            verdict = "not rejected" if flag else "rejected"
            lines.append(
                f"shapiro-wilk {label}: W = {res.statistic:.4f}, "
                f"p = {res.pvalue:.4f} (normality {verdict})"
            )
    if report.identical:
        lines.append("paired t-test: identical samples, no statistic")
    elif report.ttest is None:
        lines.append(
            f"paired t-test: constant difference {report.mean_difference:.4f}, no statistic"
        )
    else:
        verdict = "significant" if report.significant else "not significant"
        lines.append(
            f"paired t-test: t = {report.ttest.statistic:.4f}, "
            f"df = {report.ttest.df}, p = {report.ttest.pvalue:.4f} ({verdict})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def run_cv(
    g: WordNetGraph,
    embeddings,
    mlp_cfg: MLPConfig,
    seed: int,
    retrain_per_wave: bool = False,
    n_folds: int = NUM_FOLDS,
) -> CVResult:
    """Full cross-validated propagation: each fold seeds the model with
    its train block, early-stops on its val block and scores predictions
    against the held-out test block."""
    lu_ids = sorted(g.annotations)
    if len(lu_ids) < 2 * n_folds:
        raise EvalError(
            f"need at least {2 * n_folds} annotated LUs for {n_folds}-fold "
            f"evaluation (each validation block needs 2 samples), got {len(lu_ids)}"
        )
    folds = make_folds(lu_ids, seed, n_folds)
    reports = []
    for fold in folds:
        result = propagate(
            g, embeddings, mlp_cfg, fold.train, fold.val, fold.test, retrain_per_wave
        )
        test_sorted = sorted(fold.test)
        raw = np.stack([result.predictions[lu] for lu in test_sorted])
        _, gold_raw = training_set(g, embeddings, test_sorted)
        report = prf_scores(binarize(raw), binarize(gold_raw))
        report.pooled_r, report.pooled_r2 = pooled_r_r2(raw, gold_raw)
        reports.append(report)
    return CVResult(folds=folds, reports=reports, aggregate=aggregate_reports(reports))
