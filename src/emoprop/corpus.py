"""Self-avoiding random walks over the lexical graph, emitted as token text.

A walk visits up to a fixed number of nodes, never revisiting one within a
sequence, and records alternating node and relation tokens, in the formats
of `node_token` and `edge_token` (see the graph module).  Walks run on the
graph's adjacency, its index view `WordNetGraph.walk_view`.

Each walk draws from its own counter-split RNG stream, the PCG64 stream
of ``np.random.default_rng(np.random.SeedSequence(entropy=seed,
spawn_key=(i,)))`` for walk i, so generation is a pure function of (graph,
parameters, seed) and parallel scheduling could never change the output.
Those streams are seeded in bulk: `_seed_words` runs numpy's SeedSequence
hash on arrays of walk indices, a chunk of `SEED_CHUNK` walks at a time,
`_stream_states` turns each walk's words into PCG64's state, and each
walk loads its state into one reused generator, which then draws exactly
what a fresh generator would.  numpy keeps that seeding fixed across
versions, and the tests compare the states with numpy's own.  Sequences
share their token strings: a walk takes them from the view, and a corpus
read back from its file keeps one string per distinct token.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the token formats live next to the walk view that caches them; callers
# import them from here as the corpus's vocabulary
from .graph import GraphError, NodeId, WordNetGraph, edge_token, node_token


@dataclass
class CorpusConfig:
    """Walk parameters, as the pipeline's "corpus" config section."""

    num_walks: int = 1000
    length: int = 20
    cross_lingual: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class WalkCorpus:
    sequences: list[list[str]]


# walks whose seed words are hashed at once.  Each walk's state, a Python
# int, is built as the walk starts: holding 1024 states at once raised the
# walk stage's peak RSS by 0.6 MB.  256 divides 2**32, so no chunk straddles
# the index where a spawn key grows to two 32-bit words.
SEED_CHUNK = 256

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (pool of four 32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_words(seed: int, start: int, stop: int) -> list[np.ndarray]:
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for i from ``start`` to ``stop - 1``, as four uint64 arrays over i.

    SeedSequence pads the seed's 32-bit words to its pool of four and
    appends the spawn key's, hashes them into the pool, and hashes the pool
    into eight 32-bit words, paired little-endian.  All of it is 32-bit
    integer arithmetic, so here it runs on arrays over the walk indices,
    which all have as many words when the range does not straddle a power
    of 2**32.
    """
    keys = np.arange(start, stop, dtype=np.uint64)
    run = _uint32_words(seed)
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in run + [0] * (4 - len(run))]
    entropy += [
        ((keys >> np.uint64(32 * j)) & np.uint64(_MASK32)).astype(np.uint32)
        for j in range(len(_uint32_words(start)))
    ]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> np.uint32(16)
        return result

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        out.append(value.astype(np.uint64))
    return [out[2 * k] | out[2 * k + 1] << np.uint64(32) for k in range(4)]


def _stream_states(seed: int, count: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of walks 0 to ``count - 1``, each that of
    ``PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))``, which its
    ``state`` property reports; `_seed_words` runs `SEED_CHUNK` walks at
    a time."""
    for start in range(0, count, SEED_CHUNK):
        words = _seed_words(seed, start, min(start + SEED_CHUNK, count))
        for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
            # PCG64's seeding: the increment is twice the last two words
            # plus one; the state starts at it, adds the first two words
            # and takes one LCG step
            inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
            yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def random_walk(
    g: WordNetGraph,
    start: NodeId,
    length: int,
    rng: np.random.Generator,
    cross_lingual: bool = True,
) -> list[str]:
    """One self-avoiding walk of up to ``length`` node visits from ``start``.

    Each step picks uniformly among incident edges whose far endpoint is
    unvisited (restricted to same-language edges when cross_lingual is
    off); the walk stops early when no admissible edge remains.
    """
    if start not in g.nodes:
        raise GraphError(f"unknown node {start}")
    if length < 1:
        raise ValueError("walk length must be >= 1")
    view = g.walk_view
    current = view.index[start]
    tokens = [view.tokens[current]]
    visited = {current}
    for _ in range(length - 1):
        lang = view.langs[current]
        admissible = [
            (e, m)
            for e, m in view.adjacent[current]
            if m not in visited and (cross_lingual or view.langs[m] == lang)
        ]
        if not admissible:
            break
        e, current = admissible[rng.integers(len(admissible))]
        tokens.append(view.relation_tokens[e.rel])
        tokens.append(view.tokens[current])
        visited.add(current)
    return tokens


def generate_corpus(g: WordNetGraph, cfg: CorpusConfig) -> WalkCorpus:
    """Run ``cfg.num_walks`` seeded walks, each from a start node drawn
    uniformly from every node of the graph."""
    if not g.nodes:
        raise GraphError("cannot generate walks on an empty graph")
    candidates = g.walk_view.nodes

    # one generator, loaded with each walk's fresh stream before the walk
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    sequences = []
    for state, inc in _stream_states(cfg.seed, cfg.num_walks):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        start = candidates[rng.integers(len(candidates))]
        sequences.append(random_walk(g, start, cfg.length, rng, cross_lingual=cfg.cross_lingual))
    return WalkCorpus(sequences)


def save_corpus(corpus: WalkCorpus, path: str | Path) -> None:
    """One sequence per line, tokens space-separated, UTF-8, "\\n" endings."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for seq in corpus.sequences:
            fh.write(" ".join(seq) + "\n")


def load_corpus_sequences(path: str | Path) -> list[list[str]]:
    """The file's non-blank lines as token lists, one `str` object per
    distinct token: T tokens over V distinct ones hold V strings."""
    shared: dict[str, str] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        lines = (line.split() for line in fh)
        return [[shared.setdefault(tok, tok) for tok in toks] for toks in lines if toks]
