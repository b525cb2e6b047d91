"""Skip-gram embedding trainer: vocabulary, gradients, subwords, IO."""

import tracemalloc

import numpy as np
import pytest

import emoprop.embed
from emoprop.corpus import CorpusConfig, generate_corpus
from emoprop.embed import (
    EmbedConfig,
    EmbeddingError,
    build_vocab,
    cosine,
    load_embeddings,
    save_embeddings,
    sgns_grads,
    sgns_loss,
    token_ngrams,
    train_embeddings,
)
from emoprop.synth import SynthConfig, generate
from helpers import window_loss


class TestEmbedConfig:
    def test_defaults(self):
        cfg = EmbedConfig()
        assert cfg.dim == 300
        assert cfg.window == 5
        assert cfg.negatives == 5
        assert cfg.noise_exponent == 0.75
        assert cfg.subword is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"negatives": -1},
            {"noise_exponent": 1.5},
            {"noise_exponent": -0.1},
            {"min_count": 0},
            {"subword": (0, 3)},
            {"subword": (4, 3)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EmbedConfig(**kwargs)


class TestVocabulary:
    def test_sorted_by_count_then_token(self):
        seqs = [["A"] * 5 + ["B"] * 5 + ["C"]]
        vocab = build_vocab(seqs, min_count=2)
        # tie between A and B broken alphabetically, C filtered out
        assert vocab.tokens == ["A", "B"]
        assert vocab.token_to_index == {"A": 0, "B": 1}
        assert vocab.counts.tolist() == [5, 5]
        assert "C" not in vocab
        assert len(vocab) == 2

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([["A", "e", "B"]], min_count=1)
        assert len(vocab) == 3
        assert set(vocab.tokens) == {"A", "B", "e"}

    def test_empty_after_filter(self):
        with pytest.raises(EmbeddingError, match="min_count"):
            build_vocab([["A", "e", "B"]], min_count=2)


class TestTokenNgrams:
    def test_short_token(self):
        assert token_ngrams("ab", 3, 6) == ["<ab", "ab>"]

    def test_count_formula(self):
        grams = token_ngrams("abcd", 3, 4)
        wrapped = "<abcd>"
        expected = []
        for n in (3, 4):
            expected.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
        assert grams == expected

    def test_excludes_full_wrapped_form(self):
        assert "<ab>" not in token_ngrams("ab", 3, 6)


def _reference_kernel(center, rows, n_pos):
    """The window kernel as first written: the loss as two sums and the
    sigmoid clipped to [-60, 60]."""

    def _sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def _log_sigmoid(x):
        return -np.logaddexp(0.0, -x)

    dots = rows @ center
    loss = -float(np.sum(_log_sigmoid(dots[:n_pos])) + np.sum(_log_sigmoid(-dots[n_pos:])))
    coef = _sigmoid(dots)
    coef[:n_pos] -= 1.0
    return loss, coef @ rows, coef[:, None] * center


class TestSgnsGradients:
    def test_zero_center_loss(self):
        """With a zero center vector every dot product is 0; sigmoid gives 1/2."""
        rng = np.random.default_rng(0)
        for n_pos in range(1, 5):
            rows = rng.normal(size=(5 * n_pos, 8))
            center = np.zeros(8)
            d_c, d_rows = sgns_grads(center, rows, rows @ center, n_pos)
            assert window_loss(center, rows, n_pos) == pytest.approx(len(rows) * np.log(2.0), rel=1e-12)
            assert np.array_equal(d_rows, np.zeros_like(rows))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for trial in range(20):
            n_pos = 1 + trial % 4
            center = rng.normal(scale=0.5, size=8)
            rows = rng.normal(scale=0.5, size=(5 * n_pos, 8))
            d_c, d_rows = sgns_grads(center, rows, rows @ center, n_pos)
            for arr, grad in ((center, d_c), (rows, d_rows)):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = window_loss(center, rows, n_pos)
                    arr[idx] = orig - h
                    lm = window_loss(center, rows, n_pos)
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    a = grad[idx]
                    assert abs(a - fd) <= 1e-4 * (abs(a) + abs(fd)) + 1e-10

    def test_loss_is_the_two_sided_log_sigmoid_sum(self):
        """One logaddexp over the window equals -(sum log s(d_pos) +
        sum log s(-d_neg)), also where the dot products pass +-60."""
        rng = np.random.default_rng(11)
        largest = 0.0
        for trial in range(40):
            n_pos = 1 + trial % 6
            scale = 0.3 if trial < 20 else 40.0
            center = rng.normal(scale=scale, size=10)
            rows = rng.normal(scale=scale, size=(6 * n_pos, 10))
            dots = rows @ center
            largest = max(largest, np.abs(dots).max())
            log_sig_pos = -np.logaddexp(0.0, -dots[:n_pos])
            log_sig_neg = -np.logaddexp(0.0, dots[n_pos:])
            expected = -(np.sum(log_sig_pos) + np.sum(log_sig_neg))
            assert window_loss(center, rows, n_pos) == pytest.approx(expected, rel=1e-12)
        assert largest > 60.0

    def test_walk_loss_is_the_sum_of_window_losses(self):
        """Training's one `sgns_loss` call over a walk's interleaved
        windows, signs from the walk plan, equals the windows' losses
        summed, up to summation order."""
        rng = np.random.default_rng(12)
        pos, signs, spans = emoprop.embed._walk_plan(7, 2, 3)
        dots = rng.normal(scale=3.0, size=len(pos))
        windows = 0.0
        for n_ctx, start, end in spans:
            assert list(signs[start:end]) == [-1.0] * n_ctx + [1.0] * (end - start - n_ctx)
            windows += sgns_loss(dots[start:end], signs[start:end])
        assert sgns_loss(dots, signs) == pytest.approx(windows, rel=1e-12)

    def test_grads_match_the_clipped_reference_bit_for_bit(self):
        """Without the clip at +60 the gradients keep every bit of the
        kernel that clips to [-60, 60], on rows scaled so the dot products
        pass +-60 and +-710 (where exp overflows), and on inf and NaN."""
        rng = np.random.default_rng(13)
        reached = np.zeros(4, dtype=bool)
        for trial in range(60):
            n_pos = 1 + trial % 4
            scale = (1.0, 4.0, 12.0)[trial % 3]
            center = rng.normal(scale=scale, size=10)
            rows = rng.normal(scale=scale, size=(5 * n_pos, 10))
            dots = rows @ center
            reached |= [dots.max() > 60, dots.min() < -60, dots.max() > 710, dots.min() < -710]
            _, want_c, want_rows = _reference_kernel(center, rows, n_pos)
            d_c, d_rows = sgns_grads(center, rows, dots, n_pos)
            assert np.array_equal(d_c, want_c)
            assert np.array_equal(d_rows, want_rows)
        assert reached.all()
        center = np.ones(3)
        rows = np.array([[np.inf, 0, 0], [-np.inf, 0, 0], [np.nan, 0, 0], [1e308, 1e308, 0]])
        with np.errstate(invalid="ignore", over="ignore"):
            _, want_c, want_rows = _reference_kernel(center, rows, 2)
            d_c, d_rows = sgns_grads(center, rows, rows @ center, 2)
        assert np.array_equal(d_c, want_c, equal_nan=True)
        assert np.array_equal(d_rows, want_rows, equal_nan=True)


class TestNoiseSampler:
    @pytest.mark.parametrize("n_tokens", [1, 2, 3, 5000, 40000])
    def test_guide_table_equals_searchsorted(self, n_tokens):
        """The guide table inverts the noise CDF as `np.searchsorted` does:
        at 0, on every bucket edge j/G and the double just below it, on
        every CDF value and the doubles around it, and on random keys;
        40,000 tokens reach the table's size cap."""
        rng = np.random.default_rng(n_tokens)
        counts = np.sort(rng.integers(1, 500, size=n_tokens))[::-1]
        cdf = emoprop.embed._noise_cdf(counts, 0.75)
        guide = emoprop.embed._guide_table(cdf)
        size = len(guide)
        assert size == min(emoprop.embed.GUIDE_SIZE, 1 << (4 * n_tokens - 1).bit_length())
        edges = np.arange(size) / size
        keys = np.concatenate([
            edges,
            np.nextafter(edges[1:], 0.0),
            np.nextafter(cdf[:-1], 0.0),
            cdf[:-1],
            np.nextafter(cdf[:-1], 1.0),
            [np.nextafter(1.0, 0.0)],
            rng.random(20000),
        ])
        assert keys.min() == 0.0 and keys.max() < 1.0
        drawn = emoprop.embed._invert_cdf(cdf, guide, keys)
        assert np.array_equal(drawn, np.searchsorted(cdf, keys))


def _reference_train(sequences, cfg):
    """Per-center SGNS as first written: a 2-D ``np.add.at`` scatter, one
    ``rng.random`` call per center, `_reference_kernel` and the subword
    update applied row by row.  Training must reproduce its vectors bit
    for bit."""
    vocab = build_vocab(sequences, cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    n_tokens = len(vocab)
    dim = cfg.dim

    input_vectors = (rng.random((n_tokens, dim)) - 0.5) / dim
    output_vectors = np.zeros((n_tokens, dim))

    ngram_to_index = {}
    token_rows = None
    if cfg.subword is not None:
        minn, maxn = cfg.subword
        per_token_grams = [token_ngrams(tok, minn, maxn) for tok in vocab.tokens]
        for grams in per_token_grams:
            for gram in grams:
                if gram not in ngram_to_index:
                    ngram_to_index[gram] = len(ngram_to_index)
        ngram_vectors = (rng.random((len(ngram_to_index), dim)) - 0.5) / dim
        token_rows = [
            np.array(
                [i] + [n_tokens + ngram_to_index[gram] for gram in per_token_grams[i]],
                dtype=np.int64,
            )
            for i in range(n_tokens)
        ]
        input_vectors = np.vstack([input_vectors, ngram_vectors])

    indexed = []
    for seq in sequences:
        idx = [vocab.token_to_index[t] for t in seq if t in vocab.token_to_index]
        if len(idx) >= 2:
            indexed.append(np.array(idx, dtype=np.int64))

    window = cfg.window
    pairs_per_epoch = 0
    for seq in indexed:
        n = len(seq)
        for i in range(n):
            pairs_per_epoch += min(i, window) + min(n - 1 - i, window)
    total_pairs = pairs_per_epoch * cfg.epochs

    cdf = emoprop.embed._noise_cdf(vocab.counts, cfg.noise_exponent)
    lr0 = cfg.learning_rate
    k = cfg.negatives
    seen = 0
    history = []

    for _epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for seq in indexed:
            n = len(seq)
            for i in range(n):
                ctx = np.concatenate((seq[max(0, i - window) : i], seq[i + 1 : i + 1 + window]))
                n_ctx = len(ctx)
                if n_ctx == 0:
                    continue
                lr = lr0 * (1.0 - seen / total_pairs)
                center_idx = seq[i]
                if token_rows is not None:
                    in_rows = token_rows[center_idx]
                    v = input_vectors[in_rows].mean(axis=0)
                else:
                    in_rows = None
                    v = input_vectors[center_idx]

                neg = np.searchsorted(cdf, rng.random(n_ctx * k))
                idx = np.concatenate((ctx, neg))
                loss, d_center, d_rows = _reference_kernel(v, output_vectors[idx], n_ctx)
                epoch_loss += loss
                np.add.at(output_vectors, idx, -lr * d_rows)
                if in_rows is not None:
                    # one update per listed row: an n-gram listed twice
                    # counts twice in the mean and takes both shares
                    for row in in_rows:
                        input_vectors[row] -= (lr / len(in_rows)) * d_center
                else:
                    input_vectors[center_idx] -= lr * d_center
                seen += n_ctx
        history.append(epoch_loss / pairs_per_epoch / (1 + k))

    ngram_vectors = None
    if cfg.subword is not None:
        ngram_vectors = input_vectors[n_tokens:]
        input_vectors = input_vectors[:n_tokens]
    return input_vectors, output_vectors, ngram_vectors, history


def _graph_walks():
    g = generate(SynthConfig(communities=2, synsets_per_community=4, lus_per_synset=2, languages=("pl", "en"), seed=8))
    # walks of 3 to 11 tokens, some shorter than the window; rare tokens
    # fall below min_count, one walk shrinks to a single known token
    seqs = generate_corpus(g, CorpusConfig(num_walks=120, length=6, seed=4)).sequences
    return seqs + [["rare1", seqs[0][0], "rare2"], [seqs[1][0], "rare3", seqs[2][0]]]


def _every_length_walks():
    """Four walks of each length from 2 to 7 known tokens (2*window+3 at
    window 2), so each per-length plan is built once and reused, within an
    epoch and across epochs; every other walk also holds a token seen once,
    which min_count=2 drops, and one walk shrinks to a single known token.
    "banana", "ananas" and "nanana" list some n-grams two or three times,
    so with subwords their rows are updated over several rounds."""
    assert token_ngrams("nanana", 2, 4).count("na") == 3
    rng = np.random.default_rng(6)
    words = ["banana", "ananas", "nanana", "kiwi", "mango"]
    seqs = []
    for n in range(2, 8):
        for j in range(4):
            seq = [words[w] for w in rng.integers(0, len(words), size=n)]
            if j % 2:
                seq.insert(int(rng.integers(0, n + 1)), f"rare{n}_{j}")
            seqs.append(seq)
    return seqs + [["rare", words[0]]]


def _tiny_corpus():
    return [["X", "Y"]] * 50 + [["Z", "W"]] * 50


def _several_block_walks():
    """Graph walks filling several blocks of negatives, with one walk of
    90 tokens in their midst whose negatives alone exceed a block."""
    seqs = _graph_walks()
    tokens = sorted({tok for seq in seqs for tok in seq})
    long_walk = [tokens[j] for j in np.random.default_rng(5).integers(0, len(tokens), size=90)]
    return seqs[:60] + [long_walk] + seqs[60:]


def _walk_pairs(n, window):
    return sum(min(i, window) + min(n - 1 - i, window) for i in range(n))


def _negative_blocks(seqs, cfg):
    """Known-token lengths of the walks of each block: consecutive trained
    walks up to `NEGATIVE_BLOCK` negatives, a walk needing more alone."""
    vocab = build_vocab(seqs, cfg.min_count)
    lengths = [n for n in (sum(t in vocab for t in seq) for seq in seqs) if n >= 2]
    blocks = [[]]
    for n in lengths:
        negs = cfg.negatives * sum(_walk_pairs(m, cfg.window) for m in blocks[-1] + [n])
        if blocks[-1] and negs > emoprop.embed.NEGATIVE_BLOCK:
            blocks.append([])
        blocks[-1].append(n)
    return blocks


class TestTraining:
    def test_deterministic(self):
        cfg = EmbedConfig(dim=16, window=2, epochs=3, seed=4)
        a = train_embeddings(_tiny_corpus(), cfg)
        b = train_embeddings(_tiny_corpus(), cfg)
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_vectors, b.output_vectors)
        assert a.loss_history == b.loss_history

    def test_trains_through_the_checked_kernel(self, monkeypatch):
        """Each center with a context is one `sgns_grads` call, covering
        every planned pair, on the dot products of its window; each block
        of walks is one `sgns_loss` call on the dot products of all its
        windows, the ones its `sgns_grads` calls saw."""
        long_walk = ["X", "Y", "Z", "W"] * 80
        seqs = _tiny_corpus() * 3 + [long_walk, ["X", "Y", "Z", "W", "X"], ["W"]]
        cfg = EmbedConfig(dim=8, window=2, epochs=3, seed=5)
        blocks = _negative_blocks(seqs, cfg)
        # several blocks, one of them the long walk alone
        assert len(blocks) >= 3 and [len(long_walk)] in blocks
        plain = train_embeddings(seqs, cfg)
        n_pos_seen = []
        grads_dots = []
        loss_dots = []

        def counted_grads(center, rows, dots, n_pos):
            assert np.array_equal(dots, rows @ center)
            n_pos_seen.append(n_pos)
            grads_dots.append(dots.copy())
            return sgns_grads(center, rows, dots, n_pos)

        def counted_loss(dots, signs):
            loss_dots.append(dots.copy())
            return sgns_loss(dots, signs)

        monkeypatch.setattr(emoprop.embed, "sgns_grads", counted_grads)
        monkeypatch.setattr(emoprop.embed, "sgns_loss", counted_loss)
        wrapped = train_embeddings(seqs, cfg)
        centers = sum(len(seq) for seq in seqs if len(seq) >= 2)
        pairs = sum(_walk_pairs(len(seq), cfg.window) for seq in seqs)
        assert len(n_pos_seen) == centers * cfg.epochs
        assert sum(n_pos_seen) == pairs * cfg.epochs
        assert len(loss_dots) == len(blocks) * cfg.epochs
        assert np.array_equal(np.concatenate(loss_dots), np.concatenate(grads_dots))
        assert np.array_equal(wrapped.input_vectors, plain.input_vectors)
        assert np.array_equal(wrapped.output_vectors, plain.output_vectors)
        assert wrapped.loss_history == plain.loss_history

    @pytest.mark.parametrize(
        "cfg, walks",
        [
            (EmbedConfig(dim=12, window=8, epochs=2, min_count=2, negatives=4, seed=9), _graph_walks),
            (EmbedConfig(dim=10, window=3, epochs=1, subword=(2, 4), seed=2), _graph_walks),
            (EmbedConfig(dim=9, window=2, epochs=3, min_count=2, negatives=3, seed=3), _every_length_walks),
            (EmbedConfig(dim=9, window=2, epochs=3, min_count=2, subword=(2, 4), seed=3), _every_length_walks),
            (EmbedConfig(dim=6, window=3, epochs=2, negatives=4, seed=7), _several_block_walks),
        ],
        ids=["plain", "subword", "every-length", "every-length-subword", "several-blocks"],
    )
    def test_matches_reference_loop(self, cfg, walks):
        seqs = walks()
        if walks is _several_block_walks:
            # several blocks, one of them a walk whose negatives exceed a block
            blocks = _negative_blocks(seqs, cfg)
            assert len(blocks) >= 4
            alone = [b[0] for b in blocks if len(b) == 1]
            largest = max(cfg.negatives * _walk_pairs(n, cfg.window) for n in alone)
            assert largest > emoprop.embed.NEGATIVE_BLOCK
        table = train_embeddings(seqs, cfg)
        inputs, outputs, ngrams, history = _reference_train(seqs, cfg)
        assert np.array_equal(table.input_vectors, inputs)
        assert np.array_equal(table.output_vectors, outputs)
        if cfg.subword is None:
            assert table.ngram_vectors is None and ngrams is None
        else:
            assert np.array_equal(table.ngram_vectors, ngrams)
        assert table.loss_history == pytest.approx(history, rel=1e-12)

    def test_repeated_ngrams_update_once_per_occurrence(self):
        """A token whose n-gram list repeats a row ("banana" lists "ana"
        twice at 3-grams) counts it twice in its mean, so the row takes
        the update twice, as the row-by-row reference applies it."""
        grams = token_ngrams("banana", 3, 3)
        assert grams.count("ana") == 2
        rng = np.random.default_rng(3)
        words = ["banana", "ananas", "papaya", "kiwi", "mango"]
        seqs = [[words[j] for j in rng.integers(0, len(words), size=6)] for _ in range(40)]
        cfg = EmbedConfig(dim=8, window=2, epochs=2, subword=(3, 3), seed=5)
        table = train_embeddings(seqs, cfg)
        inputs, outputs, ngrams, history = _reference_train(seqs, cfg)
        assert np.array_equal(table.input_vectors, inputs)
        assert np.array_equal(table.output_vectors, outputs)
        assert np.array_equal(table.ngram_vectors, ngrams)
        assert table.loss_history == pytest.approx(history, rel=1e-12)

    def test_peak_memory(self):
        """Training holds no array per center: on 3000 walks of 4 tokens
        the traced peak measured 0.51 MB before per-walk negative draws and
        0.53 MB after; keeping one context array per center for an epoch
        measured 2.27 MB."""
        rng = np.random.default_rng(0)
        seqs = [[f"t{j}" for j in rng.integers(0, 200, size=4)] for _ in range(3000)]
        cfg = EmbedConfig(dim=8, window=5, epochs=1, seed=0)
        tracemalloc.start()
        try:
            train_embeddings(seqs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75e6

    def test_cooccurring_tokens_align(self):
        cfg = EmbedConfig(dim=16, window=2, epochs=10, seed=4)
        table = train_embeddings(_tiny_corpus(), cfg)
        near = cosine(table.vector_of("X"), table.vector_of("Y"))
        far = cosine(table.vector_of("X"), table.vector_of("Z"))
        assert near > far

    def test_loss_decreases(self):
        g = generate(SynthConfig(communities=2, synsets_per_community=4, lus_per_synset=2, languages=("pl",), seed=3))
        corpus = generate_corpus(g, CorpusConfig(num_walks=200, length=8, seed=5))
        cfg = EmbedConfig(dim=12, window=3, epochs=6, seed=6)
        table = train_embeddings(corpus.sequences, cfg)
        assert len(table.loss_history) == 6
        assert table.loss_history[-1] < table.loss_history[0]
        assert all(np.isfinite(v) for v in table.loss_history)

    def test_min_count_drops_rare_token(self):
        seqs = [["A", "B"]] * 4 + [["A", "C"]]
        cfg = EmbedConfig(dim=8, window=2, epochs=1, min_count=2, seed=0)
        table = train_embeddings(seqs, cfg)
        assert "A" in table and "B" in table
        assert "C" not in table
        with pytest.raises(EmbeddingError, match="unknown token"):
            table.vector_of("C")

    def test_default_dim(self):
        table = train_embeddings([["A", "B"]] * 3, EmbedConfig(epochs=1, seed=0))
        assert table.dim == 300
        assert table.vector_of("A").shape == (300,)

    def test_no_pairs_raises(self):
        with pytest.raises(EmbeddingError, match="no context pairs"):
            train_embeddings([["A"], ["A"]], EmbedConfig(dim=4, epochs=1, seed=0))


class TestSubword:
    def test_oov_composition(self):
        cfg = EmbedConfig(dim=10, window=2, epochs=2, subword=(2, 3), seed=1)
        table = train_embeddings([["walked", "walking"]] * 20, cfg)
        vec = table.vector_of("walker")
        assert vec.shape == (10,)
        assert np.all(np.isfinite(vec))
        assert "walker" in table

    def test_fully_unknown_token(self):
        cfg = EmbedConfig(dim=10, window=2, epochs=2, subword=(2, 3), seed=1)
        table = train_embeddings([["aa", "bb"]] * 20, cfg)
        with pytest.raises(EmbeddingError, match="unknown token"):
            table.vector_of("zzzz")
        assert "zzzz" not in table

    def test_known_token_blends_ngrams(self):
        cfg = EmbedConfig(dim=10, window=2, epochs=2, subword=(2, 3), seed=1)
        table = train_embeddings([["ab", "cd"]] * 20, cfg)
        idx = table.vocab.token_to_index["ab"]
        rows = [table.input_vectors[idx]]
        for gram in token_ngrams("ab", 2, 3):
            g_idx = table.ngram_to_index.get(gram)
            if g_idx is not None:
                rows.append(table.ngram_vectors[g_idx])
        expected = np.mean(rows, axis=0)
        np.testing.assert_allclose(table.vector_of("ab"), expected, rtol=1e-12)

    def test_without_subword_unknown_raises(self):
        table = train_embeddings([["ab", "cd"]] * 5, EmbedConfig(dim=6, epochs=1, seed=0))
        with pytest.raises(EmbeddingError, match="unknown token"):
            table.vector_of("ef")

    def test_without_subword_exact_row(self):
        table = train_embeddings([["ab", "cd"]] * 5, EmbedConfig(dim=6, epochs=1, seed=0))
        idx = table.vocab.token_to_index["ab"]
        assert np.array_equal(table.vector_of("ab"), table.input_vectors[idx])


class TestCosine:
    def test_parallel(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, 2 * v) == pytest.approx(1.0)

    def test_antiparallel(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_zero_norm(self):
        with pytest.raises(ValueError, match="zero"):
            cosine(np.zeros(3), np.ones(3))


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        cfg = EmbedConfig(dim=9, window=2, epochs=2, seed=3)
        table = train_embeddings(_tiny_corpus(), cfg)
        path = tmp_path / "emb.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.vocab.tokens == table.vocab.tokens
        for tok in table.vocab.tokens:
            np.testing.assert_allclose(
                loaded.vector_of(tok), table.vector_of(tok), atol=5e-7
            )

    def test_header_and_order(self, tmp_path):
        cfg = EmbedConfig(dim=4, window=2, epochs=1, seed=3)
        table = train_embeddings(_tiny_corpus(), cfg)
        path = tmp_path / "emb.txt"
        save_embeddings(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"{len(table.vocab)} 4"
        assert [ln.split(" ", 1)[0] for ln in lines[1:]] == list(table.vocab.tokens)
        assert len(lines[1].split()) == 5

    def test_rows_match_per_value_format(self, tmp_path):
        """One "%.6f" format per row writes the bytes of f"{x:.6f}" per
        value, signed zero and values that round to zero included."""
        values = [-0.0, 5e-7, -5e-7, 1e6, 2.5e-6, -1.0000005, 0.1234565]
        rng = np.random.default_rng(0)
        rows = {"a": values, "b": rng.normal(size=len(values)).tolist()}
        source = tmp_path / "source.txt"
        source.write_text(
            f"2 {len(values)}\n" + "".join(f"{t} {' '.join(map(repr, v))}\n" for t, v in rows.items())
        )
        path = tmp_path / "emb.txt"
        save_embeddings(load_embeddings(source), path)
        expected = [f"2 {len(values)}"] + [
            t + " " + " ".join(f"{x:.6f}" for x in v) for t, v in rows.items()
        ]
        assert path.read_text(encoding="utf-8").splitlines() == expected
        assert expected[1].split()[1:4] == ["-0.000000", "0.000000", "-0.000000"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\na 0.1 0.2\nb 0.3 0.4\nc 0.5 0.6\n", "line 4 .* past the header's 2 rows"),
            ("2 2\na 0.1 0.2\na 0.3 0.4\n", "duplicate token 'a' on embedding line 3"),
            ("2 2\na 0.1 0.2\nb 0.3 nan\n", "non-finite value on embedding line 3"),
            ("2 2\na inf 0.2\nb 0.3 0.4\n", "non-finite value on embedding line 2"),
            ("2 2\na 0.1 x\nb 0.3 0.4\n", "non-number on embedding line 2 in .*emb.txt: .*'x'"),
            ("2 two\na 0.1 0.2\n", "header on line 1 in .*emb.txt: expected '<rows> <dim>', got '2 two'"),
        ],
    )
    def test_malformed_rows(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingError, match=message):
            load_embeddings(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="header"):
            load_embeddings(path)
