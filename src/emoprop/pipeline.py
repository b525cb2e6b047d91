"""Stage orchestration: config parsing, artifact caching, stage running.

A run is driven by a JSON config with one required entropy source (the
global seed) and either an input graph path or a synthetic-graph section.
Every stage derives its own sub-seed from the global seed and the stage
name, so stages can be rerun independently and two runs with the same
config produce byte-identical artifacts.  Completed stages are skipped
when a rerun presents the same stage config and input artifacts, keyed
by content hash rather than timestamps.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import Field, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .corpus import (
    CorpusConfig,
    generate_corpus,
    load_corpus_sequences,
    node_token,
    save_corpus,
)
from .embed import EmbedConfig, load_embeddings, save_embeddings, train_embeddings
from .evaluate import format_metrics_table, run_cv
from .graph import WordNetGraph, parse_wordnet_file, write_wordnet_file
from .mlp import MLPConfig, save_model, train_mlp
from .propagate import propagate, save_propagation
from .synth import SynthConfig, generate

log = logging.getLogger(__name__)

STAGE_ORDER = ("synth", "walk", "embed", "train", "propagate", "evaluate")
STAGES = (*STAGE_ORDER, "all")

# required input / produced output artifact names per stage
STAGE_INPUTS = {
    "synth": (),
    "walk": ("graph",),
    "embed": ("corpus",),
    "train": ("graph", "embeddings"),
    "propagate": ("graph", "embeddings"),
    "evaluate": ("graph", "embeddings"),
}
STAGE_OUTPUTS = {
    "synth": ("graph",),
    "walk": ("corpus",),
    "embed": ("embeddings",),
    "train": ("model",),
    "propagate": ("propagation",),
    "evaluate": ("metrics_json", "metrics_txt"),
}


class ConfigError(ValueError):
    """Malformed or out-of-range pipeline configuration."""


class PipelineError(RuntimeError):
    """Stage-level failure (missing artifacts, inconsistent inputs)."""


def stage_seed(global_seed: int, stage: str) -> int:
    """First 4 bytes, little-endian, of sha256("<seed>:<stage>")."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class PropagateConfig:
    retrain_per_wave: bool = False
    mask_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_fraction < 1.0:
            raise ValueError("mask_fraction must be in (0, 1)")


@dataclass
class EvalConfig:
    folds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 3:
            raise ValueError("folds must be >= 3")


@dataclass
class PipelineConfig:
    """One field per config key; every section's "seed" is already
    resolved (config_from_dict fills an absent one from the global seed)."""

    seed: int
    out_dir: str = "."
    graph: str | None = None
    synth: SynthConfig | None = None
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    mlp: MLPConfig = field(default_factory=MLPConfig)
    propagate: PropagateConfig = field(default_factory=PropagateConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# config section -> (its dataclass, the stage whose stage_seed fills an
# absent "seed"); the order is the parse order
SECTIONS = {
    "synth": (SynthConfig, "synth"),
    "corpus": (CorpusConfig, "walk"),
    "embed": (EmbedConfig, "embed"),
    "mlp": (MLPConfig, "train"),
    "propagate": (PropagateConfig, None),
    "eval": (EvalConfig, "evaluate"),
}
# filled from the embeddings, never from the config
DERIVED_FIELDS = {"input_dim", "output_dim"}

_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def section_fields(cls) -> list[Field]:
    """The config keys of a section, in declaration order."""
    return [f for f in fields(cls) if f.name not in DERIVED_FIELDS]


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        names = ", ".join(f"{where}{k}" for k in unknown)
        raise ConfigError(f"unknown config key(s): {names}")


def _coerce(value, hint, where: str):
    """A JSON value checked against a config field's type hint; lists
    become tuples.  Ints pass as floats unchanged, bools never pass as
    numbers, and NaN or infinity never pass at all."""
    kind, expected = hint, ""
    if type(None) in get_args(hint):
        if value is None:
            return None
        kind = next(a for a in get_args(hint) if a is not type(None))
        expected = "null or "
    args = get_args(kind)
    if get_origin(kind) is tuple:
        fixed = Ellipsis not in args
        if isinstance(value, list) and (not fixed or len(value) == len(args)):
            return tuple(
                _coerce(v, args[i] if fixed else args[0], f"{where}[{i}]")
                for i, v in enumerate(value)
            )
        expected += f"a list of {len(args)}" if fixed else "a list"
    elif isinstance(value, (int, float) if kind is float else kind) and (
        isinstance(value, bool) == (kind is bool)
    ):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return value
    else:
        expected += _NOUNS[kind]
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def parse_config(path) -> PipelineConfig:
    """Strict JSON config: unknown keys, wrongly typed and out-of-range
    values error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(doc)


def _parse_section(doc: dict, name: str, seed: int):
    cls, stage = SECTIONS[name]
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    _check_keys(section, [f.name for f in section_fields(cls)], f"{name}.")
    hints = get_type_hints(cls)
    values = {k: _coerce(v, hints[k], f"{name}.{k}") for k, v in section.items()}
    if values.get("seed", 0) < 0:
        raise ConfigError(f"{name}.seed must be non-negative")
    if stage is not None:
        values.setdefault("seed", stage_seed(seed, stage))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_dict(doc: dict) -> PipelineConfig:
    _check_keys(doc, [f.name for f in fields(PipelineConfig)], "")
    if "seed" not in doc:
        raise ConfigError("config must set an explicit seed")
    hints = get_type_hints(PipelineConfig)
    top = {k: _coerce(v, hints[k], k) for k, v in doc.items() if k not in SECTIONS}
    if top["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    if top.get("graph") is not None and "synth" in doc:
        raise ConfigError("config sets both graph and synth; choose one")
    if top.get("graph") is None and "synth" not in doc:
        raise ConfigError("config needs a graph path or a synth section")

    for name in SECTIONS:
        if name != "synth" or name in doc:
            top[name] = _parse_section(doc, name, top["seed"])
    top["mlp"] = replace(top["mlp"], input_dim=top["embed"].dim)
    return PipelineConfig(**top)


def artifact_paths(cfg: PipelineConfig) -> dict[str, Path]:
    out = Path(cfg.out_dir)
    return {
        "graph": Path(cfg.graph) if cfg.graph is not None else out / "graph.jsonl",
        "corpus": out / "corpus.txt",
        "embeddings": out / "embeddings.txt",
        "model": out / "model.ckpt",
        "propagation": out / "propagation.jsonl",
        "metrics_json": out / "metrics.json",
        "metrics_txt": out / "metrics.txt",
    }


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage_config(stage: str, cfg: PipelineConfig) -> dict:
    """The config subset a stage's output depends on, for cache keying."""
    if stage in ("synth", "walk", "embed"):
        return asdict({"synth": cfg.synth, "walk": cfg.corpus, "embed": cfg.embed}[stage])
    mlp_dict = asdict(cfg.mlp)
    mlp_dict.pop("input_dim")  # derived from the embeddings artifact
    if stage == "train":
        return {"mlp": mlp_dict, "split_seed": stage_seed(cfg.seed, "train-split")}
    if stage == "propagate":
        return {
            "mlp": mlp_dict,
            **asdict(cfg.propagate),
            "mask_seed": stage_seed(cfg.seed, "propagate"),
        }
    if stage == "evaluate":
        return {
            "mlp": mlp_dict,
            "retrain_per_wave": cfg.propagate.retrain_per_wave,
            **asdict(cfg.eval),
        }
    raise PipelineError(f"unknown stage {stage!r}")


def _annotated_split(
    g: WordNetGraph, rng: np.random.Generator, fractions: tuple[float, ...]
) -> list[list]:
    """Shuffle annotated LUs and cut off len(fractions) leading groups
    sized round(f*N) (min 1); the remainder is the final group."""
    lus = sorted(g.annotations)
    order = rng.permutation(len(lus))
    shuffled = [lus[i] for i in order]
    groups = []
    pos = 0
    for f in fractions:
        size = max(1, round(f * len(lus)))
        groups.append(shuffled[pos : pos + size])
        pos += size
    groups.append(shuffled[pos:])
    return groups


def _load_stage_inputs(paths: dict) -> tuple[WordNetGraph, object]:
    """The graph and the embeddings, which must cover every annotated LU."""
    g = parse_wordnet_file(paths["graph"])
    table = load_embeddings(paths["embeddings"])
    missing = [node_token(lu) for lu in sorted(g.annotations) if node_token(lu) not in table]
    if missing:
        shown = ", ".join(missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise PipelineError(f"no embedding for annotated LUs: {shown}{more}")
    return g, table


def _stage_synth(cfg: PipelineConfig, paths: dict) -> str:
    g, _gold = generate(cfg.synth)
    write_wordnet_file(g, paths["graph"])
    return (
        f"synth: {len(g.nodes)} nodes, {len(g.edges)} edges, "
        f"{len(g.annotations)} annotated LUs -> {paths['graph']}"
    )


def _stage_walk(cfg: PipelineConfig, paths: dict) -> str:
    g = parse_wordnet_file(paths["graph"])
    c = cfg.corpus
    corpus = generate_corpus(
        g,
        c.num_walks,
        c.length,
        c.seed,
        cross_lingual=c.cross_lingual,
        start_kind=c.start_kind,
    )
    save_corpus(corpus, paths["corpus"])
    mode = "cross-lingual" if c.cross_lingual else "monolingual"
    return (
        f"walk: {len(corpus.sequences)} {mode} walks of length {c.length} "
        f"-> {paths['corpus']}"
    )


def _stage_embed(cfg: PipelineConfig, paths: dict) -> str:
    sequences = load_corpus_sequences(paths["corpus"])
    table = train_embeddings(sequences, cfg.embed)
    save_embeddings(table, paths["embeddings"])
    final_loss = table.loss_history[-1] if table.loss_history else float("nan")
    return (
        f"embed: {len(table.vocab.tokens)} tokens, dim {table.dim}, "
        f"final loss {final_loss:.4f} -> {paths['embeddings']}"
    )


def _stage_train(cfg: PipelineConfig, paths: dict) -> str:
    g, table = _load_stage_inputs(paths)
    if len(g.annotations) < 2:
        raise PipelineError("train needs at least 2 annotated LUs")
    rng = np.random.default_rng(stage_seed(cfg.seed, "train-split"))
    val_lus, train_lus = _annotated_split(g, rng, (0.1,))
    mcfg = replace(cfg.mlp, input_dim=table.dim)

    def matrix(lus):
        x = np.stack([table.vector_of(node_token(lu)) for lu in lus])
        y = np.stack([g.annotations[lu] for lu in lus])
        return x, y

    model, report = train_mlp(mcfg, matrix(train_lus), matrix(val_lus))
    save_model(model, paths["model"])
    return (
        f"train: {mcfg.variant} ({model.num_parameters()} parameters), "
        f"best val loss {report.best_val_loss:.4f} at epoch {report.best_epoch} "
        f"-> {paths['model']}"
    )


def _stage_propagate(cfg: PipelineConfig, paths: dict) -> str:
    g, table = _load_stage_inputs(paths)
    if len(g.annotations) < 3:
        raise PipelineError("propagate needs at least 3 annotated LUs")
    rng = np.random.default_rng(stage_seed(cfg.seed, "propagate"))
    fractions = (cfg.propagate.mask_fraction, 0.1)
    targets, val_lus, seed_lus = _annotated_split(g, rng, fractions)
    if not seed_lus:
        raise PipelineError("mask_fraction leaves no seed LUs")
    mcfg = replace(cfg.mlp, input_dim=table.dim)
    result = propagate(
        g,
        table,
        mcfg,
        {lu: g.annotations[lu] for lu in seed_lus},
        {lu: g.annotations[lu] for lu in val_lus},
        targets,
        retrain_per_wave=cfg.propagate.retrain_per_wave,
    )
    save_propagation(result, paths["propagation"])
    return (
        f"propagate: {len(result.predictions)} LUs in {len(result.plan.waves)} waves "
        f"({len(result.plan.unreachable)} unreachable) -> {paths['propagation']}"
    )


def _stage_evaluate(cfg: PipelineConfig, paths: dict) -> str:
    g, table = _load_stage_inputs(paths)
    cv = run_cv(
        g,
        table,
        replace(cfg.mlp, input_dim=table.dim),
        cfg.eval.seed,
        retrain_per_wave=cfg.propagate.retrain_per_wave,
        n_folds=cfg.eval.folds,
    )
    paths["metrics_json"].write_text(
        json.dumps(cv.aggregate, indent=2) + "\n", encoding="utf-8"
    )
    paths["metrics_txt"].write_text(
        format_metrics_table(cv.aggregate) + "\n", encoding="utf-8"
    )
    micro = cv.aggregate["micro"]["f1"]
    pooled = cv.aggregate["pooled_r"]
    return (
        f"evaluate: micro F1 {micro['mean']:.3f} ± {micro['sd']:.3f}, "
        f"pooled R {pooled['mean']:.3f} ± {pooled['sd']:.3f} "
        f"over {cfg.eval.folds} folds -> {paths['metrics_json']}"
    )


_STAGE_FN: dict[str, Callable[[PipelineConfig, dict], str]] = {
    "synth": _stage_synth,
    "walk": _stage_walk,
    "embed": _stage_embed,
    "train": _stage_train,
    "propagate": _stage_propagate,
    "evaluate": _stage_evaluate,
}


def _cache_stamp_path(cfg: PipelineConfig, stage: str) -> Path:
    return Path(cfg.out_dir) / ".cache" / f"{stage}.json"


def run_stage(stage: str, cfg: PipelineConfig) -> tuple[str, bool]:
    """Run one stage, or skip it when the cache stamp still matches.

    Returns (one-line summary, cached flag).
    """
    if stage == "synth" and cfg.synth is None:
        raise PipelineError("synth stage requires a synth section in the config")
    paths = artifact_paths(cfg)
    for name in STAGE_INPUTS[stage]:
        if not paths[name].exists():
            producer = next(s for s, outs in STAGE_OUTPUTS.items() if name in outs)
            raise PipelineError(
                f"missing input artifact {paths[name]} (produced by the "
                f"{producer!r} stage)"
            )

    key_src = hashlib.sha256()
    key_src.update(stage.encode())
    key_src.update(
        json.dumps(_stage_config(stage, cfg), sort_keys=True, default=list).encode()
    )
    for name in STAGE_INPUTS[stage]:
        key_src.update(name.encode())
        key_src.update(_hash_file(paths[name]).encode())
    key = key_src.hexdigest()

    stamp_path = _cache_stamp_path(cfg, stage)
    outputs = {str(paths[name]): None for name in STAGE_OUTPUTS[stage]}
    if stamp_path.exists():
        try:
            stamp = json.loads(stamp_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            stamp = {}
        if stamp.get("key") == key and all(
            Path(p).exists() and _hash_file(Path(p)) == digest
            for p, digest in stamp.get("outputs", {}).items()
        ) and set(stamp.get("outputs", {})) == set(outputs):
            return f"{stage}: cached ({', '.join(sorted(outputs))})", True

    log.debug("running stage %s (key %s)", stage, key[:12])
    summary = _STAGE_FN[stage](cfg, paths)
    stamp_path.parent.mkdir(parents=True, exist_ok=True)
    stamp = {
        "key": key,
        "outputs": {str(paths[n]): _hash_file(paths[n]) for n in STAGE_OUTPUTS[stage]},
    }
    stamp_path.write_text(json.dumps(stamp, indent=2) + "\n", encoding="utf-8")
    return summary, False


def run(stage: str, cfg: PipelineConfig, echo: Callable[[str], None] = print) -> int:
    """Run one stage or, for "all", every applicable stage in dependency
    order.  Prints one summary line per stage; returns a process exit
    status (errors are raised, the CLI maps them to nonzero)."""
    if stage not in STAGES:
        raise PipelineError(f"unknown stage {stage!r}; choose from {STAGES}")
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    if stage == "all":
        stages = [s for s in STAGE_ORDER if s != "synth" or cfg.synth is not None]
    else:
        stages = [stage]
    for s in stages:
        summary, _cached = run_stage(s, cfg)
        echo(summary)
    return 0
