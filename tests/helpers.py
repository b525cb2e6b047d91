"""Shared builders for the test suite: tiny graphs, annotation vectors,
a lookup-only embedding stand-in, the SGNS loss of one window and a
per-pair reference of the synthetic graph generator."""

import numpy as np

from emoprop.embed import sgns_loss
from emoprop.graph import (
    LEXICAL_UNIT,
    NUM_DIMENSIONS,
    SYNSET,
    Edge,
    NodeId,
    RelationType,
    WordNetGraph,
)
from emoprop.synth import (
    CROSS_RELATION_NAME,
    INTER_RELATION,
    INTRA_RELATION,
    MEMBERSHIP_RELATION,
    community_prototype,
)

MEMBER = RelationType("membership", "SL", False)
HYPO = RelationType("hyponymy", "SS", False)
ANTONYMY_LL = RelationType("antonymy", "LL", False)


def synset(i, lang="pl"):
    return NodeId(SYNSET, i, lang)


def lu(i, lang="pl"):
    return NodeId(LEXICAL_UNIT, i, lang)


def ann(*indices, value=1.0):
    """26-vector with the given dimension indices set to ``value``."""
    v = np.zeros(NUM_DIMENSIONS)
    for i in indices:
        v[i] = value
    return v


def window_loss(center, rows, n_pos):
    """`sgns_loss` of one center's window: ``rows`` lists its ``n_pos``
    contexts first, then the negatives."""
    signs = np.repeat([-1.0, 1.0], [n_pos, len(rows) - n_pos])
    return sgns_loss(rows @ center, signs)


def reference_adjacency(g):
    """Each node's incident (edge, neighbor) pairs, both directions, built
    afresh from ``g.edges`` and sorted by neighbor, then relation name:
    the order the graph's index view promises, derived without it."""
    adj = {n: [] for n in g.nodes}
    for e in g.edges:
        adj[e.src].append((e, e.dst))
        adj[e.dst].append((e, e.src))
    for entries in adj.values():
        entries.sort(key=lambda pair: (pair[1], pair[0].rel.name))
    return adj


def reference_synth(cfg):
    """`emoprop.synth.generate` as a plain loop: one ``rng.random()`` call
    per synset pair, in the order the generator's block draws promise."""
    rng = np.random.default_rng(cfg.seed)
    g = WordNetGraph()
    n_comm, n_syn = cfg.communities, cfg.synsets_per_community
    members = {
        (lang, c): [synset(c * n_syn + j, lang) for j in range(n_syn)]
        for lang in cfg.languages
        for c in range(n_comm)
    }
    for group in members.values():
        for node in group:
            g.add_node(node)
    for lang in cfg.languages:
        for c in range(n_comm):
            for syn in members[(lang, c)]:
                for m in range(cfg.lus_per_synset):
                    node = lu(syn.id * cfg.lus_per_synset + m, lang)
                    g.add_node(node)
                    g.add_edge(Edge(syn, node, MEMBERSHIP_RELATION))
                    values = community_prototype(c)
                    if cfg.label_noise > 0.0:
                        flips = rng.random(NUM_DIMENSIONS) < cfg.label_noise
                        values = np.abs(values - flips.astype(np.float64))
                    g.set_annotation(node, values)
    for lang in cfg.languages:
        for c in range(n_comm):
            group = members[(lang, c)]
            for a in range(n_syn):
                for b in range(a + 1, n_syn):
                    if rng.random() < cfg.intra_probability:
                        g.add_edge(Edge(group[a], group[b], INTRA_RELATION))
        for c1 in range(n_comm):
            for c2 in range(c1 + 1, n_comm):
                for a in members[(lang, c1)]:
                    for b in members[(lang, c2)]:
                        if rng.random() < cfg.inter_probability:
                            g.add_edge(Edge(a, b, INTER_RELATION))
    n_links = int(round(cfg.interlingual_fraction * n_syn))
    rel = RelationType(CROSS_RELATION_NAME, "SS", True)
    for lang_a, lang_b in zip(cfg.languages, cfg.languages[1:]):
        for c in range(n_comm):
            if n_links:
                for j in sorted(rng.choice(n_syn, size=n_links, replace=False).tolist()):
                    g.add_edge(Edge(members[(lang_a, c)][j], members[(lang_b, c)][j], rel))
    return g


def chain_graph(n_synsets=3, lus_per=1, lang="pl"):
    """Synset path S0-S1-...-S{n-1} with ``lus_per`` LUs hanging off each.

    LU ids are synset_index * lus_per + k, so lu(0) belongs to synset(0).
    """
    g = WordNetGraph()
    for i in range(n_synsets):
        g.add_node(synset(i, lang))
    for i in range(n_synsets - 1):
        g.add_edge(Edge(synset(i, lang), synset(i + 1, lang), HYPO))
    for i in range(n_synsets):
        for k in range(lus_per):
            node = lu(i * lus_per + k, lang)
            g.add_node(node)
            g.add_edge(Edge(synset(i, lang), node, MEMBER))
    return g


class ConstantTable:
    """Embedding lookup over a fixed token -> vector dict.

    Duck-types the parts of the trained table that propagation and
    evaluation use, so those tests need no actual embedding training.
    """

    def __init__(self, vectors, dim):
        self.vectors = {tok: np.asarray(v, dtype=np.float64) for tok, v in vectors.items()}
        self.dim = dim

    def vector_of(self, token):
        return self.vectors[token].copy()

    def __contains__(self, token):
        return token in self.vectors


def random_table(nodes, dim, seed=0):
    """ConstantTable with a seeded gaussian vector per node."""
    from emoprop.corpus import node_token

    rng = np.random.default_rng(seed)
    return ConstantTable({node_token(n): rng.normal(size=dim) for n in nodes}, dim)
