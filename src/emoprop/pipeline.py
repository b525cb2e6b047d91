"""Stage orchestration: config parsing, artifact caching, stage running.

A run is driven by a JSON config with one required entropy source (the
global seed) and either an input graph path or a synthetic-graph section.
Every stage derives its own sub-seed from the global seed and the stage
name, so stages can be rerun independently and two runs with the same
config produce byte-identical artifacts.  Completed stages are skipped
when a rerun presents the same stage config and input artifacts, keyed
by content hash rather than timestamps.  Stage bodies never read a file:
`run_stage` reads each input a stage declares and passes it in, and one
run reads each input file once per content hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import Field, asdict, dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .corpus import CorpusConfig, generate_corpus, load_corpus_sequences, save_corpus
from .embed import EmbedConfig, load_embeddings, save_embeddings, train_embeddings
from .evaluate import MIN_FOLDS, NUM_FOLDS, format_metrics_table, run_cv
from .graph import WordNetGraph, parse_wordnet_file, write_wordnet_file
from .mlp import MLPConfig, save_model, train_mlp
from .propagate import propagate, save_propagation, training_set
from .synth import SynthConfig, generate

# artifact name -> its file in out_dir (a config "graph" path replaces the graph's)
ARTIFACTS = {
    "graph": "graph.jsonl",
    "corpus": "corpus.txt",
    "embeddings": "embeddings.txt",
    "model": "model.ckpt",
    "propagation": "propagation.jsonl",
    "metrics_json": "metrics.json",
    "metrics_txt": "metrics.txt",
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
    folds: int = NUM_FOLDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < MIN_FOLDS:
            raise ValueError(f"folds must be >= {MIN_FOLDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
# filled from embed.dim by config_from_dict, never a config key
DERIVED_FIELDS = {"input_dim"}

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
    paths = {name: Path(cfg.out_dir) / file for name, file in ARTIFACTS.items()}
    if cfg.graph is not None:
        paths["graph"] = Path(cfg.graph)
    return paths


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _annotated_split(
    g: WordNetGraph, stage: str, seed: int, fractions: tuple[float, ...]
) -> list[list]:
    """Shuffle annotated LUs and cut off len(fractions) leading groups
    sized round(f*N) (min 1); the remainder is the final group.  The last
    two groups validate and train a regressor, so each needs 2 LUs."""
    lus = sorted(g.annotations)
    order = np.random.default_rng(seed).permutation(len(lus))
    shuffled = [lus[i] for i in order]
    bounds = [0, *accumulate(max(1, round(f * len(lus))) for f in fractions), None]
    groups = [shuffled[a:b] for a, b in zip(bounds, bounds[1:])]
    if len(groups[-2]) < 2 or len(groups[-1]) < 2:
        raise PipelineError(
            f"{stage} needs at least 2 validation and 2 training LUs; its split of "
            f"{len(lus)} annotated LUs gives {len(groups[-2])} and {len(groups[-1])}"
        )
    return groups


def _stage_synth(cfg: PipelineConfig, paths: dict, key: dict) -> str:
    g = generate(cfg.synth)
    write_wordnet_file(g, paths["graph"])
    return f"{len(g.nodes)} nodes, {len(g.edges)} edges, {len(g.annotations)} annotated LUs"


def _stage_walk(cfg: PipelineConfig, paths: dict, key: dict, g: WordNetGraph) -> str:
    c = cfg.corpus
    corpus = generate_corpus(g, c)
    save_corpus(corpus, paths["corpus"])
    mode = "cross-lingual" if c.cross_lingual else "monolingual"
    return f"{len(corpus.sequences)} {mode} walks of length {c.length}"


def _stage_embed(cfg: PipelineConfig, paths: dict, key: dict, sequences: list) -> str:
    table = train_embeddings(sequences, cfg.embed)
    save_embeddings(table, paths["embeddings"])
    final_loss = table.loss_history[-1] if table.loss_history else float("nan")
    return f"{len(table.vocab.tokens)} tokens, dim {table.dim}, final loss {final_loss:.4f}"


def _stage_train(cfg: PipelineConfig, paths: dict, key: dict, g: WordNetGraph, table) -> str:
    val_lus, train_lus = _annotated_split(g, "train", key["split_seed"], (0.1,))
    train, val = (training_set(g, table, lus) for lus in (train_lus, val_lus))
    model, report = train_mlp(cfg.mlp, train, val)
    save_model(model, paths["model"])
    return (
        f"{cfg.mlp.variant} ({cfg.mlp.num_parameters()} parameters), "
        f"best val loss {report.best_val_loss:.4f} at epoch {report.best_epoch}"
    )


def _stage_propagate(cfg: PipelineConfig, paths: dict, key: dict, g: WordNetGraph, table) -> str:
    fractions = (cfg.propagate.mask_fraction, 0.1)
    targets, val_lus, seed_lus = _annotated_split(g, "propagate", key["mask_seed"], fractions)
    retrain = cfg.propagate.retrain_per_wave
    result = propagate(g, table, cfg.mlp, seed_lus, val_lus, targets, retrain_per_wave=retrain)
    save_propagation(result, paths["propagation"])
    return (
        f"{len(result.predictions)} LUs in {len(result.plan.waves)} waves "
        f"({len(result.plan.unreachable)} unreachable)"
    )


def _stage_evaluate(cfg: PipelineConfig, paths: dict, key: dict, g: WordNetGraph, table) -> str:
    retrain = cfg.propagate.retrain_per_wave
    cv = run_cv(g, table, cfg.mlp, cfg.eval.seed, retrain_per_wave=retrain, n_folds=cfg.eval.folds)
    paths["metrics_json"].write_text(json.dumps(cv.aggregate, indent=2) + "\n", encoding="utf-8")
    paths["metrics_txt"].write_text(format_metrics_table(cv.aggregate) + "\n", encoding="utf-8")
    micro = cv.aggregate["micro"]["f1"]
    pooled = cv.aggregate["pooled_r"]
    return (
        f"micro F1 {micro['mean']:.3f} ± {micro['sd']:.3f}, "
        f"pooled R {pooled['mean']:.3f} ± {pooled['sd']:.3f} over {cfg.eval.folds} folds"
    )


def _mlp_key(cfg: PipelineConfig) -> dict:
    """The regressor config without input_dim, which the embeddings' hash covers."""
    return {k: v for k, v in asdict(cfg.mlp).items() if k != "input_dim"}


class Stage(NamedTuple):
    """``key`` picks the config the outputs depend on; ``body`` gets it with
    the config, the artifact paths and then each of ``inputs`` already
    loaded, in order; it writes the outputs and returns the summary that
    run_stage frames with the stage name and first output."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    body: Callable[..., str]
    key: Callable[[PipelineConfig], dict]
    help: str


# every stage, in dependency order
STAGE_TABLE = {
    "synth": Stage(
        (), ("graph",), _stage_synth, lambda cfg: asdict(cfg.synth),
        "synthetic bilingual graph",
    ),
    "walk": Stage(
        ("graph",), ("corpus",), _stage_walk, lambda cfg: asdict(cfg.corpus),
        "self-avoiding random-walk corpus",
    ),
    "embed": Stage(
        ("corpus",), ("embeddings",), _stage_embed, lambda cfg: asdict(cfg.embed),
        "skip-gram embeddings of the corpus",
    ),
    "train": Stage(
        ("graph", "embeddings"), ("model",), _stage_train,
        lambda cfg: {"mlp": _mlp_key(cfg), "split_seed": stage_seed(cfg.seed, "train-split")},
        "regressor on 90% of annotated LUs",
    ),
    "propagate": Stage(
        ("graph", "embeddings"), ("propagation",), _stage_propagate,
        lambda cfg: {
            "mlp": _mlp_key(cfg),
            **asdict(cfg.propagate),
            "mask_seed": stage_seed(cfg.seed, "propagate"),
        },
        "predict a masked fraction of LUs",
    ),
    "evaluate": Stage(
        ("graph", "embeddings"), ("metrics_json", "metrics_txt"), _stage_evaluate,
        lambda cfg: {
            "mlp": _mlp_key(cfg),
            "retrain_per_wave": cfg.propagate.retrain_per_wave,
            **asdict(cfg.eval),
        },
        "k-fold CV metrics (eval.folds)",
    ),
}
STAGES = (*STAGE_TABLE, "all")
ALL_HELP = (
    "every applicable stage in dependency order, skipping stages whose "
    "config and inputs are unchanged (content hash)"
)


def _read_input(name: str, path: Path):
    """Input artifact `name` as a stage body takes it.  The readers are
    looked up in this module at call time, so a wrapper set on the module
    attribute sees every read."""
    if name == "graph":
        return parse_wordnet_file(path)
    return load_corpus_sequences(path) if name == "corpus" else load_embeddings(path)


def run_stage(stage: str, cfg: PipelineConfig, loaded: dict) -> tuple[str, bool]:
    """Run one stage, or skip it when the cache stamp still matches.  A
    stage that runs takes its inputs from `loaded`, keyed by (artifact,
    content sha256), after reading into it those missing there.

    Returns (one-line summary, cached flag).
    """
    if stage == "synth" and cfg.synth is None:
        raise PipelineError("synth stage requires a synth section in the config")
    spec = STAGE_TABLE[stage]
    paths = artifact_paths(cfg)
    for name in spec.inputs:
        if not paths[name].exists():
            if name == "graph" and cfg.graph is not None:
                origin = 'the config\'s "graph" path'
            else:
                producer = next(s for s, other in STAGE_TABLE.items() if name in other.outputs)
                origin = f"produced by the {producer!r} stage"
            raise PipelineError(f"missing input artifact {paths[name]} ({origin})")

    key_config = spec.key(cfg)
    inputs = [(name, _hash_file(paths[name])) for name in spec.inputs]
    parts = [stage, json.dumps(key_config, sort_keys=True, default=list)]
    parts += [part for entry in inputs for part in entry]
    key = hashlib.sha256("".join(parts).encode()).hexdigest()

    outputs = [paths[name] for name in spec.outputs]

    def stamp() -> dict:
        return {"key": key, "outputs": {str(p): _hash_file(p) for p in outputs}}

    stamp_path = Path(cfg.out_dir) / ".cache" / f"{stage}.json"
    try:
        cached = json.loads(stamp_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        cached = {}
    key_matches = isinstance(cached, dict) and cached.get("key") == key
    if key_matches and all(p.exists() for p in outputs) and cached == stamp():
        return f"{stage}: cached ({', '.join(sorted(map(str, outputs)))})", True

    for entry in inputs:
        if entry not in loaded:
            loaded[entry] = _read_input(entry[0], paths[entry[0]])
    summary = spec.body(cfg, paths, key_config, *(loaded[entry] for entry in inputs))
    stamp_path.parent.mkdir(parents=True, exist_ok=True)
    stamp_path.write_text(json.dumps(stamp(), indent=2) + "\n", encoding="utf-8")
    return f"{stage}: {summary} -> {outputs[0]}", False


def run(stage: str, cfg: PipelineConfig, echo: Callable[[str], None] = print) -> int:
    """Run one stage or, for "all", every applicable stage in dependency
    order.  Prints one summary line per stage; returns a process exit
    status (errors are raised, the CLI maps them to nonzero).  Each input
    is read at most once per content hash, and dropped after the last
    stage of the run that lists it."""
    if stage not in STAGES:
        raise PipelineError(f"unknown stage {stage!r}; choose from {STAGES}")
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    stages = [s for s in STAGE_TABLE if s != "synth" or cfg.synth is not None]
    stages = stages if stage == "all" else [stage]
    loaded: dict[tuple[str, str], object] = {}
    for i, s in enumerate(stages):
        summary, _cached = run_stage(s, cfg, loaded)
        echo(summary)
        later = {name for t in stages[i + 1 :] for name in STAGE_TABLE[t].inputs}
        loaded = {entry: value for entry, value in loaded.items() if entry[0] in later}
    return 0
