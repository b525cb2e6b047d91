"""Skip-gram negative-sampling embeddings trained on walk corpora.

Trained from scratch: no pre-trained vectors are involved.  For a center
token at position i, every in-vocabulary token within the window on either
side is a positive context; each positive draws k negatives from the
unigram distribution raised to a configurable exponent.  The objective per
pair is

    log sigmoid(u_ctx . v_c) + sum_j log sigmoid(-u_neg_j . v_c)

maximized by SGD whose learning rate decays linearly to zero over the total
planned number of pairs.  The loss and its gradients are written once,
as `sgns_loss` and `sgns_grads`, the two kernels the gradient checks test.
Training is sequential and deterministic per seed.  It goes through the
walks in blocks of consecutive walks of up to `NEGATIVE_BLOCK` negatives
(a walk that needs more is a block of its own).  A block draws the
negatives of all its centers in one call on the seeded stream, which
yields the same values, in the same order, as one call per center, and
maps them to tokens through a guide table of the noise CDF (`_invert_cdf`),
which returns exactly what `np.searchsorted` does.  Each training step
runs `sgns_grads` on one center and its whole window, after writing the
window's dot products into a buffer that holds the block's; `sgns_loss`
then reads that buffer once per block, so the recorded per-epoch loss is
summed block by block.  The sigmoid clips its argument below at -60 only
(see `sgns_grads` for why a clip above would be dead).  Which walk and
negative positions each center reads depends only on the walk length,
the window and k, so a plan of them is built once per length before
training; it lists every context, so it also gives each walk's pair count
and with it the learning-rate schedule and the blocks.  A walk gathers the
output-row indices of all its centers, and their flat scatter indices, in
one step, and each center takes its slice.  An optional character-n-gram
subword table composes vectors for tokens outside the vocabulary.  A
subword center updates its rows in rounds of distinct rows, one round per
listing, so a row listed twice ("banana": "ana") takes the update twice,
with the same bytes as one subtraction per listing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# consecutive walks share one draw, inversion and loss call of up to this
# many negatives; a walk that needs more is a block of its own
NEGATIVE_BLOCK = 1 << 11
# buckets of the noise distribution's guide table at most: 512 KiB of indices
GUIDE_SIZE = 1 << 16


class EmbeddingError(ValueError):
    """Invalid embedding configuration, vocabulary or lookup."""


@dataclass
class EmbedConfig:
    dim: int = 300
    window: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    negatives: int = 5
    noise_exponent: float = 0.75
    min_count: int = 1
    subword: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise EmbeddingError("dim must be >= 1")
        if self.window < 1:
            raise EmbeddingError("window must be >= 1")
        if self.epochs < 1:
            raise EmbeddingError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise EmbeddingError("learning_rate must be a positive finite number")
        if self.negatives < 1:
            raise EmbeddingError("negatives must be >= 1")
        if not 0.0 <= self.noise_exponent <= 1.0:
            raise EmbeddingError("noise_exponent must be in [0, 1]")
        if self.min_count < 1:
            raise EmbeddingError("min_count must be >= 1")
        if self.subword is not None:
            minn, maxn = self.subword
            if minn < 1 or maxn < minn:
                raise EmbeddingError("subword range must satisfy 1 <= minn <= maxn")
        if self.seed < 0:
            raise EmbeddingError("seed must be non-negative")


@dataclass
class Vocabulary:
    """Token <-> index mapping, indices by descending count then token."""

    token_to_index: dict[str, int]
    tokens: list[str]
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index


def build_vocab(sequences: list[list[str]], min_count: int = 1) -> Vocabulary:
    counts: dict[str, int] = {}
    for seq in sequences:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    if not kept:
        raise EmbeddingError(f"no token reaches min_count={min_count}")
    tokens = [tok for tok, _ in kept]
    return Vocabulary(
        token_to_index={tok: i for i, tok in enumerate(tokens)},
        tokens=tokens,
        counts=np.array([c for _, c in kept], dtype=np.int64),
    )


def token_ngrams(token: str, minn: int, maxn: int) -> list[str]:
    """Character n-grams of "<token>", full bracketed form excluded."""
    wrapped = f"<{token}>"
    grams = []
    for n in range(minn, maxn + 1):
        if n >= len(wrapped):
            continue
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


@dataclass
class EmbeddingTable:
    """Input (published) and context vectors for every vocabulary token.

    With subword enabled, the published vector of a token is the mean of
    its own input row and its n-gram rows, which also serves out-of-
    vocabulary tokens (minus the token row).
    """

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    subword: tuple[int, int] | None = None
    ngram_to_index: dict[str, int] = field(default_factory=dict)
    ngram_vectors: np.ndarray | None = None
    loss_history: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def _compose_rows(self, token: str) -> np.ndarray | None:
        rows = []
        idx = self.vocab.token_to_index.get(token)
        if idx is not None:
            rows.append(self.input_vectors[idx])
        if self.subword is not None:
            minn, maxn = self.subword
            for gram in token_ngrams(token, minn, maxn):
                gi = self.ngram_to_index.get(gram)
                if gi is not None:
                    rows.append(self.ngram_vectors[gi])
        if not rows:
            return None
        return np.mean(rows, axis=0)

    def vector_of(self, token: str) -> np.ndarray:
        """Published vector; out-of-vocabulary tokens are composed from
        known n-grams when subword is on, otherwise an error."""
        if self.subword is None:
            idx = self.vocab.token_to_index.get(token)
            if idx is None:
                raise EmbeddingError(f"unknown token {token!r}")
            return self.input_vectors[idx].copy()
        vec = self._compose_rows(token)
        if vec is None:
            raise EmbeddingError(f"unknown token {token!r} and no known n-grams")
        return vec

    def __contains__(self, token: str) -> bool:
        if token in self.vocab:
            return True
        return self.subword is not None and self._compose_rows(token) is not None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise EmbeddingError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def sgns_loss(dots: np.ndarray, signs: np.ndarray) -> float:
    """Negative-sampling loss of the pairs whose dot products are ``dots``.

    ``signs`` is -1 where a dot product is a context's and +1 where it is
    a negative's, so the loss -sum_p log s(u_p.v) - sum_j log s(-u_j.v)
    is sum log(1 + exp(signs * dots)).  Training calls it once per block
    of walks, on the dot products of every center's window at once.
    """
    # -log s(x) = logaddexp(0, -x): one sign flip, one sum for all
    z = np.multiply(dots, signs)
    return float(np.logaddexp(0.0, z, out=z).sum())


def sgns_grads(
    center: np.ndarray, rows: np.ndarray, dots: np.ndarray, n_pos: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d_center, d_rows) of `sgns_loss` for one center and its window.

    ``rows`` holds the context vectors of the window first (``n_pos`` of
    them), then their negatives, and ``dots`` is ``rows @ center``.  The
    sigmoid s(x) = 1 / (1 + exp(-x)) clips x below at -60 only.  A clip
    above at 60 would change no bit: for x >= 60, exp(-x) <= exp(-60)
    ~ 8.8e-27 < 2**-53, so 1 + exp(-x) already rounds to 1.0, and a NaN
    passes through either way.
    """
    coef = np.maximum(dots, -60.0)
    np.negative(coef, out=coef)
    np.exp(coef, out=coef)
    coef += 1.0
    np.divide(1.0, coef, out=coef)
    coef[:n_pos] -= 1.0
    return coef @ rows, coef[:, None] * center


def _noise_cdf(counts: np.ndarray, exponent: float) -> np.ndarray:
    weights = counts.astype(np.float64) ** exponent
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0  # guard searchsorted against cumsum round-off
    return cdf


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table (Chen & Asau, 1974) of ``cdf`` over G buckets of [0, 1):
    entry j is ``np.searchsorted(cdf, j / G)``.  G is a power of two, so
    ``u * G`` is exact and its floor is u's bucket; it is 4 buckets per CDF
    entry, rounded up, and at most `GUIDE_SIZE`."""
    size = min(GUIDE_SIZE, 1 << (4 * len(cdf) - 1).bit_length())
    edges = np.arange(size, dtype=np.float64)
    edges /= size
    return np.searchsorted(cdf, edges)


def _invert_cdf(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` for keys u in [0, 1), through `_guide_table`.

    The entry of u's bucket is the first index whose CDF value reaches the
    bucket's lower edge, which is at most u.  So it is u's answer unless
    its value is below u, which only happens in a bucket that a CDF value
    splits; those keys are searched.
    """
    idx = guide[(u * len(guide)).astype(np.intp)]
    missed = cdf[idx] < u
    if missed.any():
        idx[missed] = np.searchsorted(cdf, u[missed])
    return idx


def _walk_plan(
    n: int, window: int, k: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """Where each center of an ``n``-token walk finds its output rows.

    Returns positions into ``concatenate((walk, negatives))`` that list, for
    center after center, its contexts (left, then right) and then its
    ``n_ctx * k`` negatives; the `sgns_loss` signs of those positions; and
    per center ``(n_ctx, start, end)``: its slice of both.
    """
    pos: list[int] = []
    signs: list[int] = []
    spans = []
    neg = n
    for i in range(n):
        start = len(pos)
        pos.extend(range(max(0, i - window), i))
        pos.extend(range(i + 1, min(n, i + 1 + window)))
        n_ctx = len(pos) - start
        pos.extend(range(neg, neg + n_ctx * k))
        neg += n_ctx * k
        signs += [-1] * n_ctx + [1] * (n_ctx * k)
        spans.append((n_ctx, start, len(pos)))
    # +-1 is exact in int8, and a plan per walk length stays small
    return np.array(pos, dtype=np.int64), np.array(signs, dtype=np.int8), spans


def _distinct_rounds(rows: list[int]) -> list[np.ndarray]:
    """Split a row listing into rounds of distinct rows: the j-th listing
    of a row goes to round j, so subtracting one update per round gives
    every row one update per listing."""
    rounds: list[list[int]] = []
    listed: dict[int, int] = {}
    for row in rows:
        j = listed.get(row, 0)
        listed[row] = j + 1
        if j == len(rounds):
            rounds.append([])
        rounds[j].append(row)
    return [np.array(r, dtype=np.int64) for r in rounds]


def train_embeddings(sequences: list[list[str]], cfg: EmbedConfig) -> EmbeddingTable:
    """Train token vectors over the corpus; pure function of (corpus, cfg).

    Out-of-vocabulary tokens are removed before windowing, so context
    distance is measured over the surviving tokens of each sequence.
    """
    vocab = build_vocab(sequences, cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    n_tokens = len(vocab)
    dim = cfg.dim

    ngram_to_index: dict[str, int] = {}
    token_rows: list[tuple[np.ndarray, list[np.ndarray]]] | None = None
    if cfg.subword is not None:
        minn, maxn = cfg.subword
        token_rows = []
        for i, tok in enumerate(vocab.tokens):
            grams = token_ngrams(tok, minn, maxn)
            rows = [i] + [
                n_tokens + ngram_to_index.setdefault(gram, len(ngram_to_index)) for gram in grams
            ]
            token_rows.append((np.array(rows, dtype=np.int64), _distinct_rounds(rows)))

    # single input matrix: token rows first, n-gram rows after, in one draw
    # (the same doubles as a draw per block) scaled in place
    input_vectors = rng.random((n_tokens + len(ngram_to_index), dim))
    input_vectors -= 0.5
    input_vectors /= dim
    output_vectors = np.zeros((n_tokens, dim))

    indexed = []
    for seq in sequences:
        idx = [vocab.token_to_index[t] for t in seq if t in vocab.token_to_index]
        if len(idx) >= 2:
            indexed.append(np.array(idx, dtype=np.int64))

    window = cfg.window
    k = cfg.negatives
    plans = {n: _walk_plan(n, window, k) for n in {len(seq) for seq in indexed}}
    # a plan lists each context once and k negatives for it
    walk_pairs = [len(plans[len(seq)][0]) // (1 + k) for seq in indexed]
    pairs_per_epoch = sum(walk_pairs)
    total_pairs = pairs_per_epoch * cfg.epochs
    if total_pairs == 0:
        raise EmbeddingError("corpus has no context pairs to train on")
    # (first walk, walk after the last, pairs) of each block of consecutive walks
    blocks = []
    lo = block_pairs = 0
    for hi, n_pairs in enumerate(walk_pairs):
        if block_pairs and (block_pairs + n_pairs) * k > NEGATIVE_BLOCK:
            blocks.append((lo, hi, block_pairs))
            lo, block_pairs = hi, 0
        block_pairs += n_pairs
    blocks.append((lo, len(walk_pairs), block_pairs))
    # every center's dot products of one block, for the block's loss
    block_dots = np.empty((1 + k) * max(pairs for _, _, pairs in blocks))

    cdf = _noise_cdf(vocab.counts, cfg.noise_exponent)
    guide = _guide_table(cdf)
    lr0 = cfg.learning_rate
    seen = 0
    history = []
    # np.add.at takes its fast indexed loop only on a 1-D target; each
    # element still receives its window's additions in window order
    out_flat = output_vectors.reshape(-1)
    cols = np.arange(dim)

    for _epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for lo, hi, n_block_pairs in blocks:
            walks = indexed[lo:hi]
            # one draw per block: the same doubles, in the same stream
            # order, as one draw per center
            negs = _invert_cdf(cdf, guide, rng.random(n_block_pairs * k))
            neg_at = dot_at = 0
            for seq, n_pairs in zip(walks, walk_pairs[lo:hi]):
                pos, _, spans = plans[len(seq)]
                walk_idx = np.concatenate((seq, negs[neg_at : neg_at + n_pairs * k]))[pos]
                neg_at += n_pairs * k
                walk_flat = (walk_idx[:, None] * dim + cols).ravel()
                dots = block_dots[dot_at : dot_at + len(pos)]
                dot_at += len(pos)
                for center_idx, (n_ctx, start, end) in zip(seq.tolist(), spans):
                    lr = lr0 * (1.0 - seen / total_pairs)
                    if token_rows is not None:
                        in_rows, rounds = token_rows[center_idx]
                        # np.mean's arithmetic (sum, then divide) without its overhead
                        v = np.add.reduce(input_vectors.take(in_rows, axis=0), axis=0)
                        v /= len(in_rows)
                    else:
                        v = input_vectors[center_idx]

                    rows = output_vectors.take(walk_idx[start:end], axis=0)
                    d_center, d_rows = sgns_grads(
                        v, rows, np.matmul(rows, v, out=dots[start:end]), n_ctx
                    )
                    d_rows *= -lr
                    np.add.at(out_flat, walk_flat[start * dim : end * dim], d_rows.ravel())
                    if token_rows is None:
                        d_center *= lr
                        input_vectors[center_idx] -= d_center
                    else:
                        # a token listing an n-gram twice ("banana": "ana") counts
                        # that row twice in its mean and updates it once per
                        # listing, one round of distinct rows per listing
                        d_center *= lr / len(in_rows)
                        for distinct in rounds:
                            input_vectors[distinct] -= d_center
                    seen += n_ctx
            signs = np.concatenate([plans[len(seq)][1] for seq in walks])
            epoch_loss += sgns_loss(block_dots[:dot_at], signs)
        mean_loss = epoch_loss / pairs_per_epoch / (1 + k)
        if not np.isfinite(mean_loss):
            raise EmbeddingError(f"non-finite training loss at epoch {_epoch + 1}: {mean_loss}")
        history.append(mean_loss)

    return EmbeddingTable(
        vocab=vocab,
        input_vectors=input_vectors[:n_tokens],
        output_vectors=output_vectors,
        subword=cfg.subword,
        ngram_to_index=ngram_to_index,
        ngram_vectors=input_vectors[n_tokens:] if cfg.subword is not None else None,
        loss_history=history,
    )


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Text format: "<vocab_size> <dim>" header, then one token per line
    followed by its published vector at 6 decimal places."""
    row = " ".join(["%.6f"] * table.dim) + "\n"  # "%.6f" writes what f"{x:.6f}" does
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.vocab)} {table.dim}\n")
        for token in table.vocab.tokens:
            fh.write(token + " " + row % tuple(table.vector_of(token).tolist()))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load the text format; the result has no subword table and its
    context vectors are zero (lookup-only use)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(count.isdecimal() for count in header):
            raise EmbeddingError(
                f"bad embedding file header on line 1 in {path}: "
                f"expected '<rows> <dim>', got {' '.join(header)!r}"
            )
        size, dim = int(header[0]), int(header[1])
        token_to_index: dict[str, int] = {}
        vectors = np.empty((size, dim))
        for row in range(size):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise EmbeddingError(f"bad embedding line {row + 2} in {path}")
            if parts[0] in token_to_index:
                raise EmbeddingError(
                    f"duplicate token {parts[0]!r} on embedding line {row + 2} in {path}"
                )
            token_to_index[parts[0]] = row
            try:
                vectors[row] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise EmbeddingError(f"non-number on embedding line {row + 2} in {path}: {exc}") from exc
        if fh.readline():
            raise EmbeddingError(
                f"embedding line {size + 2} in {path} is past the header's {size} rows"
            )
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        raise EmbeddingError(
            f"non-finite value on embedding line {int(np.argmax(bad)) + 2} in {path}"
        )
    vocab = Vocabulary(
        token_to_index=token_to_index,
        tokens=list(token_to_index),
        counts=np.ones(size, dtype=np.int64),
    )
    return EmbeddingTable(vocab=vocab, input_vectors=vectors, output_vectors=np.zeros_like(vectors))
