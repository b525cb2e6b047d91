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

START_KINDS = ("all", "synset", "lu")


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
    start_kind: str = "all"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.start_kind not in START_KINDS:
            raise ValueError(f"start_kind must be one of {START_KINDS}")


@dataclass
class WalkCorpus:
    sequences: list[list[str]]
    num_walks: int
    length: int
    seed: int
    cross_lingual: bool = True
    start_kind: str = "all"


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
        if cross_lingual:
            admissible = [(e, m) for e, m in adjacency[current] if m not in visited]
        else:
            admissible = [
                (e, m)
                for e, m in adjacency[current]
                if m not in visited and m.lang == current.lang
            ]
        if not admissible:
            break
        edge, nxt = admissible[rng.integers(len(admissible))]
        tokens.append(edge_token(edge))
        tokens.append(node_token(nxt))
        visited.add(nxt)
        current = nxt
    return tokens


def generate_corpus(
    g: WordNetGraph,
    num_walks: int,
    length: int,
    seed: int,
    cross_lingual: bool = True,
    start_kind: str = "all",
) -> WalkCorpus:
    """Run ``num_walks`` seeded walks, start nodes drawn uniformly.

    start_kind restricts the start-node pool ("all", "synset" or "lu");
    traversal itself is unrestricted by kind either way.
    """
    CorpusConfig(num_walks, length, cross_lingual, start_kind, seed)  # range checks
    if not g.nodes:
        raise GraphError("cannot generate walks on an empty graph")
    if start_kind == "all":
        candidates = sorted(g.nodes)
    else:
        candidates = sorted(n for n in g.nodes if n.kind == start_kind)
    if not candidates:
        raise GraphError(f"graph has no {start_kind} nodes to start from")

    sequences = []
    for i in range(num_walks):
        rng = _walk_rng(seed, i)
        start = candidates[rng.integers(len(candidates))]
        sequences.append(random_walk(g, start, length, rng, cross_lingual=cross_lingual))
    return WalkCorpus(
        sequences=sequences,
        num_walks=num_walks,
        length=length,
        seed=seed,
        cross_lingual=cross_lingual,
        start_kind=start_kind,
    )


def save_corpus(corpus: WalkCorpus, path: str | Path) -> None:
    """One sequence per line, tokens space-separated, UTF-8, "\\n" endings."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for seq in corpus.sequences:
            fh.write(" ".join(seq) + "\n")


def load_corpus_sequences(path: str | Path) -> list[list[str]]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]
