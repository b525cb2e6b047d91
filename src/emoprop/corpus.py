"""Self-avoiding random walks over the lexical graph, emitted as token text.

A walk visits up to a fixed number of nodes, never revisiting one within a
sequence, and records alternating node and relation tokens.  Node tokens
are "S#<lang>#<id>" / "L#<lang>#<id>"; relation tokens are "r" + optional
"i" (inter-lingual) + endpoint category + "#" + relation name, e.g.
"rSS#hyponymy" or "riSS#synonymy-il".  Relation tokens identify the
relation type only, not the individual edge, and are direction-independent.

Each walk draws from its own counter-split RNG stream, so generation is a
pure function of (graph, parameters, seed) and parallel scheduling could
never change the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Edge, GraphError, NodeId, WordNetGraph, _KIND_LETTER

def node_token(node: NodeId) -> str:
    return f"{_KIND_LETTER[node.kind]}#{node.lang}#{node.id}"


def edge_token(edge: Edge) -> str:
    inter = "i" if edge.rel.interlingual else ""
    return f"r{inter}{edge.rel.category}#{edge.rel.name}"


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
    adjacency = g.adjacency
    tokens = [node_token(start)]
    visited = {start}
    current = start
    for _ in range(length - 1):
        admissible = [
            (e, m)
            for e, m in adjacency[current]
            if m not in visited and (cross_lingual or m.lang == current.lang)
        ]
        if not admissible:
            break
        edge, nxt = admissible[rng.integers(len(admissible))]
        tokens.append(edge_token(edge))
        tokens.append(node_token(nxt))
        visited.add(nxt)
        current = nxt
    return tokens


def generate_corpus(g: WordNetGraph, cfg: CorpusConfig) -> WalkCorpus:
    """Run ``cfg.num_walks`` seeded walks, each from a start node drawn
    uniformly from every node of the graph."""
    if not g.nodes:
        raise GraphError("cannot generate walks on an empty graph")
    candidates = sorted(g.nodes)

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
    with Path(path).open("r", encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]
