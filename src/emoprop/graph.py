"""In-memory multilingual lexical graph: synsets, lexical units, typed relations.

Nodes are identified by (kind, numeric id, language); edges carry a typed
relation whose category encodes the endpoint kinds (SS, SL, LS, LL) and an
inter-lingual flag, true exactly when the endpoint languages differ.
Lexical units may carry a 26-dimensional annotation vector (6 polarity
grades, 8 basic emotions, 12 valuations) with entries in [0, 1],
interpretable as annotator agreement fractions.  The builder refuses
input that breaks either of these two rules.

The graph is built once (from a JSON-lines file or programmatically) and is
immutable by convention afterwards; its adjacency, the index view that
walks and the propagation BFS read, is finalized lazily and reads are
safe from concurrent workers.  A parsed graph shares its identities: its
edges and annotations hold the graph's own `NodeId` objects and one
`RelationType` object per distinct relation, and the parser keeps no
record dict past the line it came from.  Node tokens are "S#<lang>#<id>" /
"L#<lang>#<id>"; relation tokens are "r" + optional "i" (inter-lingual) +
endpoint category + "#" + relation name, e.g. "rSS#hyponymy" or
"riSS#synonymy-il".  Relation tokens identify the relation type only, not
the individual edge, and are direction-independent.  Language codes and
relation names hold no whitespace, so every token survives the
space-separated corpus file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

SYNSET = "synset"
LEXICAL_UNIT = "lu"
NODE_KINDS = (SYNSET, LEXICAL_UNIT)

EDGE_CATEGORIES = ("SS", "SL", "LS", "LL")

# Annotation dimensions in storage order: sentiment polarity (6 grades),
# basic emotions (8), fundamental valuations (12).
DIMENSIONS = (
    "pol_strong_positive",
    "pol_weak_positive",
    "pol_strong_negative",
    "pol_weak_negative",
    "pol_ambivalent",
    "pol_neutral",
    "emo_joy",
    "emo_fear",
    "emo_surprise",
    "emo_sadness",
    "emo_disgust",
    "emo_anger",
    "emo_trust",
    "emo_anticipation",
    "val_nonusefulness",
    "val_mistake",
    "val_ugliness",
    "val_goodness",
    "val_harm",
    "val_ignorance",
    "val_unhappiness",
    "val_beauty",
    "val_truth",
    "val_happiness",
    "val_usefulness",
    "val_knowledge",
)
NUM_DIMENSIONS = len(DIMENSIONS)
DIMENSION_INDEX = {name: i for i, name in enumerate(DIMENSIONS)}

_KIND_LETTER = {SYNSET: "S", LEXICAL_UNIT: "L"}
_LETTER_KIND = {"S": SYNSET, "L": LEXICAL_UNIT}


class GraphError(ValueError):
    """Malformed graph input or violated graph contract."""


class NodeId(NamedTuple):
    """Graph node identity; unique per graph by (kind, id), scoped by language."""

    kind: str
    id: int
    lang: str


class RelationType(NamedTuple):
    name: str
    category: str
    interlingual: bool


class Edge(NamedTuple):
    src: NodeId
    dst: NodeId
    rel: RelationType


def node_token(node: NodeId) -> str:
    return f"{_KIND_LETTER[node.kind]}#{node.lang}#{node.id}"


def edge_token(edge: Edge) -> str:
    inter = "i" if edge.rel.interlingual else ""
    return f"r{inter}{edge.rel.category}#{edge.rel.name}"


class WalkView(NamedTuple):
    """The graph's adjacency, as index lists.

    Node i is ``nodes[i]`` (in sorted order), with token ``tokens[i]`` and
    language ``langs[i]``; ``adjacent[i]`` lists its incident edges, both
    directions, as (edge, neighbor index) sorted by neighbor, then relation
    name.  ``relation_tokens`` holds one `edge_token` per relation type.
    """

    nodes: list[NodeId]
    index: dict[NodeId, int]
    tokens: list[str]
    langs: list[str]
    adjacent: list[list[tuple[Edge, int]]]
    relation_tokens: dict[RelationType, str]


def _expected_kinds(category: str) -> tuple[str, str]:
    return _LETTER_KIND[category[0]], _LETTER_KIND[category[1]]


def validate_annotation(values: Iterable[float], where: str = "annotation") -> np.ndarray:
    """Coerce to a float vector of exactly NUM_DIMENSIONS numbers in [0, 1];
    strings, booleans and nulls are not numbers."""
    try:
        arr = np.asarray(list(values))
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise GraphError(f"{where}: expected a list of numbers, got {values!r}")
    arr = arr.astype(np.float64)
    if arr.shape != (NUM_DIMENSIONS,):
        raise GraphError(f"{where}: expected {NUM_DIMENSIONS} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GraphError(f"{where}: non-finite annotation value")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise GraphError(f"{where}: annotation value outside [0, 1]")
    return arr


@dataclass
class WordNetGraph:
    """Typed multigraph of synsets and lexical units with annotation store.

    Edges are stored as given (directed) but traversed bidirectionally; an
    edge contributes one adjacency entry to each endpoint, both reusing the
    forward relation.
    """

    nodes: set[NodeId] = field(default_factory=set)
    edges: list[Edge] = field(default_factory=list)
    annotations: dict[NodeId, np.ndarray] = field(default_factory=dict)
    lemmas: dict[NodeId, str] = field(default_factory=dict)
    _walk_view: WalkView | None = field(default=None, repr=False, compare=False)

    def add_node(self, node: NodeId, lemma: str | None = None) -> None:
        if node.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {node.kind!r}")
        if node.id < 0:
            raise GraphError(f"node id must be unsigned, got {node.id}")
        lang = node.lang
        if lang.split() != [lang] or not lang.isascii() or lang != lang.lower():
            raise GraphError(f"bad language code {lang!r}")
        if node in self.nodes:
            raise GraphError(f"duplicate node {node}")
        self.nodes.add(node)
        if lemma is not None:
            self.lemmas[node] = lemma
        self._walk_view = None

    def add_edge(self, edge: Edge) -> None:
        if edge.rel.category not in EDGE_CATEGORIES:
            raise GraphError(f"bad edge category {edge.rel.category!r}")
        if edge.rel.name.split() != [edge.rel.name]:
            raise GraphError(f"relation name must be one word, got {edge.rel.name!r}")
        if edge.src not in self.nodes:
            raise GraphError(f"unknown endpoint {edge.src}")
        if edge.dst not in self.nodes:
            raise GraphError(f"unknown endpoint {edge.dst}")
        want_src, want_dst = _expected_kinds(edge.rel.category)
        if edge.src.kind != want_src or edge.dst.kind != want_dst:
            raise GraphError(
                f"category {edge.rel.category} does not match endpoint kinds "
                f"({edge.src.kind} -> {edge.dst.kind})"
            )
        if edge.rel.interlingual != (edge.src.lang != edge.dst.lang):
            raise GraphError(
                f"interlingual={edge.rel.interlingual} does not match endpoint languages "
                f"({edge.src.lang} -> {edge.dst.lang})"
            )
        self.edges.append(edge)
        self._walk_view = None

    def set_annotation(self, node: NodeId, values: Iterable[float]) -> None:
        self.annotations[node] = self._checked_annotation(node, values)

    def _checked_annotation(self, node: NodeId, values: Iterable[float]) -> np.ndarray:
        """`values` validated as the annotation of `node`, an LU of the graph."""
        if node not in self.nodes:
            raise GraphError(f"unknown endpoint {node}")
        if node.kind != LEXICAL_UNIT:
            raise GraphError(f"annotation target {node} is not a lexical unit")
        return validate_annotation(values, where=f"annotation for {node}")

    @property
    def walk_view(self) -> WalkView:
        if self._walk_view is None:
            nodes = sorted(self.nodes)
            index = {node: i for i, node in enumerate(nodes)}
            adjacent: list[list[tuple[Edge, int]]] = [[] for _ in nodes]
            for e in self.edges:
                src, dst = index[e.src], index[e.dst]
                adjacent[src].append((e, dst))
                adjacent[dst].append((e, src))
            one_edge_per_relation = {e.rel: e for e in self.edges}.values()
            relation_tokens = {e.rel: edge_token(e) for e in one_edge_per_relation}
            for entries in adjacent:
                entries.sort(key=lambda entry: (entry[1], entry[0].rel.name))
            tokens = [node_token(node) for node in nodes]
            langs = [node.lang for node in nodes]
            self._walk_view = WalkView(nodes, index, tokens, langs, adjacent, relation_tokens)
        return self._walk_view

    def synsets(self) -> list[NodeId]:
        return sorted(n for n in self.nodes if n.kind == SYNSET)


# Fields of each record kind in the JSON-lines graph file: (required, optional).
RECORD_FIELDS = {
    SYNSET: (("id", "lang"), ()),
    LEXICAL_UNIT: (("id", "lang"), ("lemma",)),
    "edge": (("src", "dst", "rel", "category", "interlingual"), ()),
    "annotation": (("lu", "values"), ()),
}


def _node_id(kind: object, num: object, lang: object) -> NodeId:
    """A node line's or node reference's identity, with its JSON types checked."""
    if kind not in NODE_KINDS:
        raise GraphError(f"unknown kind {kind!r} in node reference")
    if not isinstance(num, int) or isinstance(num, bool):
        raise GraphError(f"node id must be an integer, got {num!r}")
    if not isinstance(lang, str):
        raise GraphError(f"language must be a string, got {lang!r}")
    return NodeId(kind, num, lang)


def _node_ref(ref: object, kind: str | None = None) -> NodeId:
    """An edge endpoint ``[kind, id, lang]``, or ``[id, lang]`` when ``kind`` is fixed."""
    prefix = [] if kind is None else [kind]
    if not (isinstance(ref, list) and len(prefix) + len(ref) == 3):
        shape = "[kind, id, lang]" if kind is None else "[id, lang]"
        raise GraphError(f"node reference must be {shape}, got {ref!r}")
    return _node_id(*prefix, *ref)


def _read_record(
    g: WordNetGraph,
    obj: dict,
    ids: dict[NodeId, NodeId],
    relations: dict[RelationType, RelationType],
) -> Edge | tuple[NodeId, object] | None:
    """The typed record of one schema-checked line.  A node joins `g` at
    once; an edge or an (LU, values) annotation is returned, with its
    nodes and relation taken from `ids` and `relations`, the parse's one
    object per distinct value."""
    kind = obj["kind"]
    if kind in NODE_KINDS:
        lemma = obj.get("lemma")
        if lemma is not None and not isinstance(lemma, str):
            raise GraphError(f"lemma must be a string, got {lemma!r}")
        node = _node_id(kind, obj["id"], obj["lang"])
        g.add_node(ids.setdefault(node, node), lemma=lemma)
        return None
    if kind == "edge":
        name, inter = obj["rel"], obj["interlingual"]
        if not isinstance(name, str):
            raise GraphError(f"relation name must be a string, got {name!r}")
        if not isinstance(inter, bool):
            raise GraphError("interlingual must be a boolean")
        rel = RelationType(name, obj["category"], inter)
        src, dst = _node_ref(obj["src"]), _node_ref(obj["dst"])
        src, dst = ids.setdefault(src, src), ids.setdefault(dst, dst)
        return Edge(src, dst, relations.setdefault(rel, rel))
    node = _node_ref(obj["lu"], LEXICAL_UNIT)
    # a list of numbers waits for its check as an array; any other value
    # waits as read, so that the check's message quotes it
    values = obj["values"]
    try:
        arr = np.asarray(values) if isinstance(values, list) else None
    except ValueError:  # a ragged list
        arr = None
    if arr is not None and arr.dtype.kind in "iuf":
        values = arr
    return ids.setdefault(node, node), values


def parse_wordnet_file(path: str | Path) -> WordNetGraph:
    """Parse a JSON-lines graph file into a validated WordNetGraph.

    One object per line with a ``kind`` field in ``RECORD_FIELDS``.  Each
    line becomes its typed record as it is read: a node joins the graph at
    once, an edge holds the graph's own `NodeId` objects and one
    `RelationType` per distinct relation, and an annotation is kept as
    (LU, values), a list of numbers as an array.  Edges and annotations
    are added in file order after the last line, so node definitions may
    appear in any order relative to the edges that reference them.
    Duplicate nodes, unknown endpoints, malformed lines and breaches of
    the module's two graph rules are errors reported with their line
    number.
    """
    g = WordNetGraph()
    # one object per distinct node and relation: a node named before its
    # own line is the object that line adds later
    ids: dict[NodeId, NodeId] = {}
    relations: dict[RelationType, RelationType] = {}
    pending: list[Edge | tuple[NodeId, object]] = []
    pending_lines: list[int] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "kind" not in obj:
                raise GraphError(f"line {lineno}: expected an object with a 'kind' field")
            kind = obj["kind"]
            if not isinstance(kind, str) or kind not in RECORD_FIELDS:
                raise GraphError(f"line {lineno}: unknown kind {kind!r}")
            required, optional = RECORD_FIELDS[kind]
            extra = set(obj) - {"kind", *required, *optional}
            if extra:
                raise GraphError(f"line {lineno}: unknown field {sorted(extra)[0]!r}")
            missing = [key for key in required if key not in obj]
            if missing:
                raise GraphError(f"line {lineno}: missing field {missing[0]!r}")
            try:
                record = _read_record(g, obj, ids, relations)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from exc
            if record is not None:
                pending.append(record)
                pending_lines.append(lineno)

    for lineno, record in zip(pending_lines, pending):
        try:
            if isinstance(record, Edge):
                g.add_edge(record)
            elif record[0] in g.annotations:
                raise GraphError(f"duplicate annotation for {record[0]}")
            else:
                g.set_annotation(*record)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    return g


def write_wordnet_file(g: WordNetGraph, path: str | Path) -> None:
    """Serialize a graph to the JSON-lines format read by parse_wordnet_file.

    Output order is deterministic: sorted nodes, then edges in insertion
    order, then sorted annotations.  An annotation the parser would refuse,
    including one keyed by a node that is not an LU of the graph, raises
    GraphError naming its node before the file is opened.
    """
    annotations = {
        node: g._checked_annotation(node, g.annotations[node]) for node in sorted(g.annotations)
    }
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for node in sorted(g.nodes):
            obj: dict = {"kind": node.kind, "id": node.id, "lang": node.lang}
            lemma = g.lemmas.get(node)
            if lemma is not None:
                obj["lemma"] = lemma
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=False) + "\n")
        for e in g.edges:
            obj = {
                "kind": "edge",
                "src": [e.src.kind, e.src.id, e.src.lang],
                "dst": [e.dst.kind, e.dst.id, e.dst.lang],
                "rel": e.rel.name,
                "category": e.rel.category,
                "interlingual": e.rel.interlingual,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        for node, values in annotations.items():
            obj = {"kind": "annotation", "lu": [node.id, node.lang], "values": values.tolist()}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
