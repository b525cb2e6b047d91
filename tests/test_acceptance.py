"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS|FAIL`` line with
the measured quantities before asserting, so a verbose run reads as a
checklist.  The expensive fixtures (benchmark graph, walk corpora,
embedding tables, the two cross-validation runs) are module scoped and
built once; wall-clock budgets are tracked per fixture so the timed
criteria account for everything they depend on.
"""
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import stats_fixtures
from emoprop.corpus import CorpusConfig, generate_corpus, node_token
from emoprop.embed import EmbedConfig, cosine, sgns_grads, train_embeddings
from emoprop.evaluate import (
    compare_runs,
    format_comparison,
    make_folds,
    paired_t_test,
    prf_scores,
    run_cv,
    shapiro_wilk,
)
from emoprop.mlp import (
    MLPConfig,
    binarize,
    fvu_loss_and_grad,
    init_model,
    loss_and_grads,
    make_dropout_masks,
)
from emoprop.pipeline import config_from_dict, run
from emoprop.synth import SynthConfig, generate
from helpers import window_loss


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def bench():
    """Benchmark graph, corpora and embedding tables, with build timings."""
    timings = {}
    t = time.monotonic()
    cfg = SynthConfig(communities=4, synsets_per_community=10, lus_per_synset=4,
                      languages=("pl", "en"), interlingual_fraction=0.5,
                      label_noise=0.1, seed=11)
    g = generate(cfg)
    timings["graph"] = time.monotonic() - t

    t = time.monotonic()
    ccfg = CorpusConfig(num_walks=6000, length=20, seed=12, cross_lingual=True)
    cross = generate_corpus(g, ccfg)
    mono = generate_corpus(g, replace(ccfg, cross_lingual=False))
    timings["corpora"] = time.monotonic() - t

    ecfg = EmbedConfig(dim=50, epochs=8, seed=13)
    t = time.monotonic()
    cross_table = train_embeddings(cross.sequences, ecfg)
    timings["cross_table"] = time.monotonic() - t
    t = time.monotonic()
    mono_table = train_embeddings(mono.sequences, ecfg)
    timings["mono_table"] = time.monotonic() - t

    return {"graph": g, "cross_table": cross_table,
            "mono_table": mono_table, "timings": timings}


@pytest.fixture(scope="module")
def md_cv(bench):
    """Cross-lingual embeddings + Deep regressor, 10-fold CV."""
    cfg = MLPConfig(variant="deep", input_dim=50, max_epochs=140, patience=30,
                    batch_size=128, seed=5)
    t = time.monotonic()
    result = run_cv(bench["graph"], bench["cross_table"], cfg, seed=99)
    bench["timings"]["md_cv"] = time.monotonic() - t
    return result


@pytest.fixture(scope="module")
def hb_cv(bench):
    """Monolingual embeddings + Base regressor, 10-fold CV."""
    cfg = MLPConfig(variant="base", input_dim=50, max_epochs=200, patience=30,
                    seed=5)
    t = time.monotonic()
    result = run_cv(bench["graph"], bench["mono_table"], cfg, seed=99)
    bench["timings"]["hb_cv"] = time.monotonic() - t
    return result


def _fd_mlp(mcfg, n_weight_samples):
    """Central finite differences against loss_and_grads on a 5-sample
    batch with fixed dropout masks; returns (worst relative error, checks)."""
    model = init_model(mcfg)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, mcfg.input_dim))
    y = rng.random((5, 26))
    masks = make_dropout_masks(mcfg, 5, rng)
    _, d_w, d_b = loss_and_grads(model, x, y, masks)
    h = 1e-5
    worst = 0.0
    checks = 0
    for li in range(len(model.weights)):
        flat = model.weights[li].reshape(-1)
        grad = d_w[li].reshape(-1)
        idx = rng.choice(flat.size, size=min(n_weight_samples, flat.size),
                         replace=False)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + h
            lp = loss_and_grads(model, x, y, masks)[0]
            flat[k] = orig - h
            lm = loss_and_grads(model, x, y, masks)[0]
            flat[k] = orig
            fd = (lp - lm) / (2 * h)
            a = float(grad[k])
            assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-8
            worst = max(worst, abs(a - fd) / (abs(a) + abs(fd) + 1e-8))
            checks += 1
        bias = model.biases[li]
        for k in range(min(bias.size, 64)):
            orig = bias[k]
            bias[k] = orig + h
            lp = loss_and_grads(model, x, y, masks)[0]
            bias[k] = orig - h
            lm = loss_and_grads(model, x, y, masks)[0]
            bias[k] = orig
            fd = (lp - lm) / (2 * h)
            a = float(d_b[li][k])
            assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-8
            worst = max(worst, abs(a - fd) / (abs(a) + abs(fd) + 1e-8))
            checks += 1
    return worst, checks


class TestAcceptance:

    def test_01_walk_invariants(self):
        """1,000 seeded corpora over random graphs: self-avoidance,
        node/edge alternation, token budget, monolingual purity."""
        t0 = time.monotonic()
        node_re = re.compile(r"^[SL]#[a-z]+#\d+$")
        edge_re = re.compile(r"^ri?(SS|SL|LS|LL)#.+$")
        rng = np.random.default_rng(20250819)
        corpora = 0
        for _ in range(25):
            n_langs = int(rng.integers(1, 3))
            cfg = SynthConfig(
                communities=int(rng.integers(2, 5)),
                synsets_per_community=int(rng.integers(3, 7)),
                lus_per_synset=int(rng.integers(1, 4)),
                languages=("pl", "en")[:n_langs],
                interlingual_fraction=0.5 if n_langs == 2 else 0.0,
                seed=int(rng.integers(0, 2**31)),
            )
            g = generate(cfg)
            assert len(g.nodes) <= 500
            for ci in range(40):
                cross = bool(ci % 2)
                length = int(rng.integers(1, 9))
                ccfg = CorpusConfig(num_walks=5, length=length,
                                    seed=int(rng.integers(0, 2**31)),
                                    cross_lingual=cross)
                corpus = generate_corpus(g, ccfg)
                assert len(corpus.sequences) == 5
                for seq in corpus.sequences:
                    assert len(seq) <= 2 * length - 1
                    assert len(seq) % 2 == 1
                    nodes = seq[0::2]
                    edges = seq[1::2]
                    assert all(node_re.match(tok) for tok in nodes)
                    assert all(edge_re.match(tok) for tok in edges)
                    assert len(set(nodes)) == len(nodes)
                    if not cross:
                        assert len({tok.split("#")[1] for tok in nodes}) == 1
                        assert not any(tok.startswith("ri") for tok in edges)
                corpora += 1
        elapsed = time.monotonic() - t0
        ok = corpora == 1000 and elapsed < 60.0
        _report(1, "walk invariants", ok, f"{corpora} corpora in {elapsed:.1f}s")
        assert corpora == 1000
        assert elapsed < 60.0

    def test_02_sgns_gradient_oracle(self):
        """Analytic skip-gram gradients vs central finite differences on
        100 random windows: 1 to 4 contexts, 4 negatives per context."""
        t0 = time.monotonic()
        rng = np.random.default_rng(82)
        h = 1e-5
        worst = 0.0
        for trial in range(100):
            n_pos = 1 + trial % 4
            center = rng.normal(scale=0.5, size=10)
            rows = rng.normal(scale=0.5, size=(5 * n_pos, 10))
            d_c, d_rows = sgns_grads(center, rows, rows @ center, n_pos)
            for arr, grad in ((center, d_c), (rows.reshape(-1), d_rows.reshape(-1))):
                for i in range(arr.size):
                    orig = arr[i]
                    arr[i] = orig + h
                    lp = window_loss(center, rows, n_pos)
                    arr[i] = orig - h
                    lm = window_loss(center, rows, n_pos)
                    arr[i] = orig
                    fd = (lp - lm) / (2 * h)
                    a = float(grad[i])
                    assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-10
                    worst = max(worst, abs(a - fd) / (abs(a) + abs(fd) + 1e-10))
        elapsed = time.monotonic() - t0
        ok = elapsed < 10.0
        _report(2, "sgns gradient oracle", ok,
                f"worst rel {worst:.2e} in {elapsed:.1f}s")
        assert elapsed < 10.0

    def test_03_mlp_gradient_oracle(self):
        """Backprop through the base regressor and a shrunken deep variant
        (300-64-32-16-26, dropout 0.2) vs finite differences."""
        t0 = time.monotonic()
        w1, c1 = _fd_mlp(MLPConfig(variant="base", input_dim=300, seed=3), 300)
        w2, c2 = _fd_mlp(MLPConfig(variant="deep", input_dim=300,
                                   hidden_dims=(64, 32, 16), dropout=0.2,
                                   seed=3), 300)
        elapsed = time.monotonic() - t0
        worst = max(w1, w2)
        ok = elapsed < 30.0
        _report(3, "mlp gradient oracle", ok,
                f"{c1 + c2} params, worst rel {worst:.2e} in {elapsed:.1f}s")
        assert elapsed < 30.0

    def test_04_loss_semantics(self):
        """fvu_loss(target, target) == 0 and the batch-mean predictor
        scores exactly 1 on nonconstant dims; constant dims fall back to
        a mean-squared term."""
        rng = np.random.default_rng(44)
        y = rng.normal(size=(40, 26))
        loss_self, _ = fvu_loss_and_grad(y.copy(), y)
        mean_pred = np.tile(y.mean(axis=0), (40, 1))
        loss_mean, _ = fvu_loss_and_grad(mean_pred, y)

        y_const = y.copy()
        y_const[:, 0] = 0.5
        pred_const = y_const.copy()
        pred_const[:, 0] = 1.0
        loss_fallback, _ = fvu_loss_and_grad(pred_const, y_const)

        ok = loss_self == 0.0 and loss_mean == 1.0
        _report(4, "loss semantics", ok,
                f"self {loss_self!r}, batch-mean {loss_mean!r}")
        assert loss_self == 0.0
        assert loss_mean == 1.0
        assert loss_fallback == pytest.approx(0.25 / 26, rel=1e-12)

    def test_05_crosslingual_alignment(self, bench):
        """Interlingual synonym synset pairs are closer in embedding space
        than random cross-language synset pairs by a clear margin."""
        g = bench["graph"]
        table = bench["cross_table"]
        t0 = time.monotonic()
        pairs = [(e.src, e.dst) for e in g.edges if e.rel.interlingual]
        syn = [cosine(table.vector_of(node_token(a)),
                      table.vector_of(node_token(b))) for a, b in pairs]
        rng = np.random.default_rng(99)
        pl = [n for n in g.synsets() if n.lang == "pl"]
        en = [n for n in g.synsets() if n.lang == "en"]
        rand = []
        for _ in range(500):
            a = pl[rng.integers(len(pl))]
            b = en[rng.integers(len(en))]
            rand.append(cosine(table.vector_of(node_token(a)),
                               table.vector_of(node_token(b))))
        gap = float(np.mean(syn) - np.mean(rand))
        budget = (bench["timings"]["graph"] + bench["timings"]["corpora"]
                  + bench["timings"]["cross_table"] + (time.monotonic() - t0))
        ok = bool(pairs) and gap >= 0.15 and budget < 300.0
        _report(5, "cross-lingual alignment", ok,
                f"{len(pairs)} pairs, gap {gap:.4f}, budget {budget:.1f}s")
        assert pairs
        assert gap >= 0.15
        assert budget < 300.0

    def test_06_propagation_beats_baseline(self, bench, md_cv):
        """Deep regressor on cross-lingual embeddings clears a per-fold
        majority-class baseline by >= 0.15 macro F1."""
        gold = bench["graph"].annotations
        base_macro = []
        for fold in md_cv.folds:
            train_gold = np.stack([gold[lu] for lu in fold.train])
            test_gold = np.stack([gold[lu] for lu in fold.test])
            majority = binarize(train_gold).mean(axis=0) >= 0.5
            pred = np.tile(majority, (len(fold.test), 1))
            base_macro.append(prf_scores(pred, binarize(test_gold)).macro.f1)
        baseline = float(np.mean(base_macro))
        md_macro = md_cv.aggregate["macro"]["f1"]["mean"]
        budget = (bench["timings"]["graph"] + bench["timings"]["corpora"]
                  + bench["timings"]["cross_table"] + bench["timings"]["md_cv"])
        ok = md_macro >= baseline + 0.15 and budget < 600.0
        _report(6, "propagation beats baseline", ok,
                f"macro {md_macro:.4f} vs baseline {baseline:.4f}, "
                f"budget {budget:.1f}s")
        assert md_macro >= baseline + 0.15
        assert budget < 600.0

    def test_07_ordering_property(self, md_cv, hb_cv):
        """Cross-lingual walks + deep regressor score at least as high as
        monolingual walks + base regressor on mean micro F1; the paired
        comparison machinery runs and its full report is emitted.  Only
        the direction is asserted; significance is reported."""
        md_f1 = [r.micro.f1 for r in md_cv.reports]
        hb_f1 = [r.micro.f1 for r in hb_cv.reports]
        report = compare_runs(md_f1, hb_f1)
        text = format_comparison(report)
        print(text)
        assert "shapiro-wilk a:" in text
        assert "paired t-test:" in text
        assert report.identical is False
        assert report.shapiro_a is not None
        assert report.shapiro_b is not None
        assert report.ttest is not None
        assert report.significant is not None
        ok = float(np.mean(md_f1)) >= float(np.mean(hb_f1))
        _report(7, "ordering property", ok,
                f"micro F1 {np.mean(md_f1):.4f} vs {np.mean(hb_f1):.4f}, "
                f"t = {report.ttest.statistic:.4f}, p = {report.ttest.pvalue:.4f}, "
                f"significant = {report.significant}")
        assert np.mean(md_f1) >= np.mean(hb_f1)

    def test_08_statistics_oracles(self):
        """Normality and paired-test outputs match the frozen reference
        fixtures within 1e-4 absolute, including the hand-derived
        t = sqrt(3), df = 2 case."""
        worst = 0.0
        for _, sample, w_ref, p_ref in stats_fixtures.SHAPIRO_CASES:
            res = shapiro_wilk(np.asarray(sample))
            worst = max(worst, abs(res.statistic - w_ref),
                        abs(res.pvalue - p_ref))
            assert res.statistic == pytest.approx(w_ref, abs=1e-4)
            assert res.pvalue == pytest.approx(p_ref, abs=1e-4)
        for _, a, b, t_ref, p_ref in stats_fixtures.TTEST_CASES:
            res = paired_t_test(np.asarray(a), np.asarray(b))
            worst = max(worst, abs(res.statistic - t_ref),
                        abs(res.pvalue - p_ref))
            assert res.statistic == pytest.approx(t_ref, abs=1e-4)
            assert res.pvalue == pytest.approx(p_ref, abs=1e-4)
        hand = paired_t_test(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
        n_cases = len(stats_fixtures.SHAPIRO_CASES) + len(stats_fixtures.TTEST_CASES)
        ok = n_cases == 20
        _report(8, "statistics oracles", ok,
                f"{n_cases} fixtures, worst abs dev {worst:.2e}")
        assert n_cases == 20
        assert hand.statistic == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert hand.df == 2

    def test_09_fold_protocol(self):
        """Folds partition the ids exactly; test/val blocks are floor/ceil
        tenths and train takes the rest, exact 80/10/10 when 10 | N."""
        problems = []
        for n in (10, 11, 37, 100, 1000):
            folds = make_folds(list(range(n)), seed=5)
            if len(folds) != 10:
                problems.append(f"N={n}: {len(folds)} folds")
            lo, hi = n // 10, -(-n // 10)
            for f in folds:
                if sorted([*f.train, *f.val, *f.test]) != list(range(n)):
                    problems.append(f"N={n} fold {f.index}: not a partition")
                if len(f.test) not in (lo, hi) or len(f.val) not in (lo, hi):
                    problems.append(f"N={n} fold {f.index}: block sizes")
                if len(f.train) != n - len(f.test) - len(f.val):
                    problems.append(f"N={n} fold {f.index}: train size")
            if sorted(x for f in folds for x in f.test) != list(range(n)):
                problems.append(f"N={n}: test blocks do not cover ids once")
            if n % 10 == 0 and any(
                    len(f.test) != n // 10 or len(f.val) != n // 10
                    or len(f.train) != 8 * n // 10 for f in folds):
                problems.append(f"N={n}: not exactly 80/10/10")
        ok = not problems
        _report(9, "fold protocol", ok,
                "N in {10, 11, 37, 100, 1000}" if ok else "; ".join(problems))
        assert not problems, problems

    def test_10_end_to_end_determinism(self, tmp_path):
        """Two full pipeline runs with identical configs produce
        byte-identical corpus, embedding and metrics files."""
        doc = {
            "seed": 21,
            "synth": {"communities": 2, "synsets_per_community": 3,
                      "lus_per_synset": 2, "languages": ["pl", "en"],
                      "interlingual_fraction": 0.5},
            "corpus": {"num_walks": 200, "length": 8},
            "embed": {"dim": 8, "epochs": 2},
            "mlp": {"variant": "base", "max_epochs": 15, "patience": 5,
                    "batch_size": 16},
            "propagate": {"mask_fraction": 0.2},
            "eval": {"folds": 3},
        }
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = config_from_dict({**doc, "out_dir": str(out)})
            rc = run("all", cfg, echo=lambda line: None)
            assert rc == 0
            blobs.append({name: (out / name).read_bytes()
                          for name in ("corpus.txt", "embeddings.txt",
                                       "metrics.json")})
        ok = blobs[0] == blobs[1]
        _report(10, "end-to-end determinism", ok,
                "corpus, embeddings and metrics byte-identical" if ok
                else "outputs differ")
        for name in ("corpus.txt", "embeddings.txt", "metrics.json"):
            assert blobs[0][name] == blobs[1][name]
