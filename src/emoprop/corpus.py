"""Self-avoiding random walks over the lexical graph, emitted as token text.

A walk visits up to a fixed number of nodes, never revisiting one within a
sequence, and records alternating node and relation tokens, in the formats
of `node_token` and `edge_token` (see the graph module).  Walks run on the
graph's adjacency, its index view `WordNetGraph.walk_view`.

Each walk draws from its own counter-split RNG stream, so generation is a
pure function of (graph, parameters, seed) and parallel scheduling could
never change the output.  Sequences share their token strings: a walk
takes them from the view, and a corpus read back from its file keeps one
string per distinct token.
"""

from __future__ import annotations

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


def _walk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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

    sequences = []
    for i in range(cfg.num_walks):
        rng = _walk_rng(cfg.seed, i)
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
