"""The three benchmark workloads: inputs made from the seed, one timed
operation each, and the checks on what the program wrote.

Each workload puts a different layer on the hot path (see README.md):

- all_base: ``emoprop all`` in-process through ``emoprop.cli.main``, then
  the same command again with every stage cached.  SGNS dominates.
- cv_deep: ``emoprop.evaluate.run_cv`` with the deep regressor on
  cross-lingual embeddings the set-up builds through the CLI.  The deep
  regressor's forward, backward and Adam steps dominate.
- sparse_seed_subword: the walk, embed, propagate and evaluate stages on a
  three-language graph file with one LU per synset, subword SGNS and
  per-wave retraining from a small annotated seed.

The program only ever sees the config and graph files written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import emoprop.cli
import emoprop.embed
import emoprop.evaluate
import emoprop.graph
from emoprop.corpus import node_token
from emoprop.embed import cosine, token_ngrams
from emoprop.graph import NUM_DIMENSIONS
from emoprop.mlp import MLPConfig, binarize

BILINGUAL_GRAPH = {
    "communities": 4,
    "synsets_per_community": 10,
    "lus_per_synset": 4,
    "languages": ["pl", "en"],
    "interlingual_fraction": 0.5,
    "label_noise": 0.1,
}
# one SGNS epoch at four times the default rate reaches a cross-lingual
# gap of ~0.47 on the 6000-walk corpus, more than eight default epochs
PLAIN_EMBED = {"dim": 50, "epochs": 1, "learning_rate": 0.1}
# The embeddings file keeps no subword table, so an annotated LU that no
# walk visits fails the train, propagate and evaluate stages.  Walk counts
# are set so every LU is visited for every seed (at least 5 visits over
# seeds 1-200; 2000 bilingual or 1000 sparse walks miss one LU for 1.5%
# and 8% of seeds).
BILINGUAL_CORPUS = {"num_walks": 6000, "length": 20, "cross_lingual": True}
ALIGNMENT_SAMPLES = 500


@dataclass
class Outcome:
    """What one operation did: operations attempted and failed (a stage
    or a fold each) and the files whose bytes must repeat exactly."""

    ops: int
    failed: int
    files: dict[str, Path]
    lines: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def digest(files: dict[str, Path]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name].read_bytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """``emoprop <argv>`` in-process; returns the exit status and the stage
    summary lines it printed.  ``main`` is looked up at call time so a
    tracer's wrapper is used when installed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = emoprop.cli.main(argv)
    return rc, buf.getvalue().splitlines()


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def corpus_counts(path: Path, num_walks: int, length: int, embed: dict) -> dict:
    """Exact counts from a corpus file and the embed config: tokens, SGNS
    centers and (center, context) pairs over all epochs, and the input rows
    each center reads (its own plus its n-grams with subwords on).  Also
    checks the corpus shape: one line per walk, odd token count up to
    2*length-1 (node, relation, node, ...)."""
    window = embed.get("window", 5)
    subword = embed.get("subword")
    sequences = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    shape_ok = len(sequences) == num_walks and all(
        len(seq) % 2 == 1 and len(seq) <= 2 * length - 1 for seq in sequences
    )
    tokens = sum(len(seq) for seq in sequences)
    trained = [seq for seq in sequences if len(seq) >= 2]
    centers = sum(len(seq) for seq in trained)
    pairs = sum(
        min(i, window) + min(len(seq) - 1 - i, window)
        for seq in trained
        for i in range(len(seq))
    )
    rows = centers
    if subword is not None:
        ngrams = {}
        for seq in trained:
            for tok in seq:
                if tok not in ngrams:
                    ngrams[tok] = len(token_ngrams(tok, *subword))
                rows += ngrams[tok]
    return {
        "shape_ok": shape_ok,
        "tokens": tokens,
        "centers": centers * embed["epochs"],
        "pairs": pairs * embed["epochs"],
        "rows_per_center": rows / centers,
    }


def alignment_gap(g, table, seed: int) -> float:
    """Criterion-05 gap: mean cosine of inter-lingual synonym synset pairs
    minus that of random synset pairs in different languages."""
    pairs = [(e.src, e.dst) for e in g.edges if e.rel.interlingual]
    def vec(node):
        return table.vector_of(node_token(node))

    syn = [cosine(vec(a), vec(b)) for a, b in pairs]
    synsets = g.synsets()
    rng = np.random.default_rng(seed)
    rand = []
    while len(rand) < ALIGNMENT_SAMPLES:
        a = synsets[rng.integers(len(synsets))]
        b = synsets[rng.integers(len(synsets))]
        if a.lang != b.lang:
            rand.append(cosine(vec(a), vec(b)))
    return float(np.mean(syn) - np.mean(rand))


def majority_baseline(g, folds) -> float:
    """Criterion-06 baseline: mean over folds of the macro F1 of predicting
    the training block's majority labels for every test LU."""
    scores = []
    for fold in folds:
        train_gold = binarize(np.stack([g.annotations[lu] for lu in fold.train]))
        test_gold = binarize(np.stack([g.annotations[lu] for lu in fold.test]))
        pred = np.tile(train_gold.mean(axis=0) >= 0.5, (len(fold.test), 1))
        scores.append(emoprop.evaluate.prf_scores(pred, test_gold).macro.f1)
    return float(np.mean(scores))


def cv_quality(aggregate: dict) -> dict:
    return {
        "macro_f1": aggregate["macro"]["f1"]["mean"],
        "micro_f1": aggregate["micro"]["f1"]["mean"],
        "pooled_r": aggregate["pooled_r"]["mean"],
    }


def aggregate_ok(aggregate: dict) -> bool:
    values = [
        aggregate[scheme]["f1"]["mean"] for scheme in ("micro", "macro", "weighted")
    ]
    r = aggregate["pooled_r"]["mean"]
    return all(0.0 <= v <= 1.0 for v in values) and math.isfinite(r) and -1.0 <= r <= 1.0


def propagation_ok(path: Path, g, expected: int) -> tuple[bool, str]:
    """Every masked target LU got exactly one finite prediction."""
    lus = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        raw = record["raw"]
        if len(raw) != NUM_DIMENSIONS or len(record["labels"]) != NUM_DIMENSIONS:
            return False, f"wrong vector length for {record['lu']}"
        if not all(math.isfinite(v) for v in raw):
            return False, f"non-finite prediction for {record['lu']}"
        lus.append(tuple(record["lu"]))
    annotated = {(lu.id, lu.lang) for lu in g.annotations}
    ok = len(lus) == expected and len(set(lus)) == expected and set(lus) <= annotated
    return ok, f"{len(set(lus))} distinct predicted LUs, {expected} targets"


def stage_checks(outcome: Outcome, stages: tuple[str, ...], cached: bool) -> tuple[bool, str]:
    """Each stage printed one summary line, cached or fresh as expected."""
    marks = [line.split(":", 1) for line in outcome.lines]
    ran = tuple(stage for stage, _ in marks)
    hits = sum(rest.startswith(" cached") for _, rest in marks)
    want = len(stages) if cached else 0
    return ran == stages and hits == want, f"{hits}/{len(ran)} stages cached"


def graph_file(state: dict, outcome: Outcome) -> Path:
    """The graph the operation read: written by set-up or by its synth stage."""
    return {**state["files"], **outcome.files}["graph.jsonl"]


def flops_per_step(mlp: MLPConfig) -> int:
    """Forward 2*B*in*out plus backward 4*B*in*out per layer, full batch."""
    return 6 * mlp.batch_size * sum(i * o for i, o in mlp.layer_dims())


class Workload:
    """A workload's seed-derived inputs (``prepare`` writes them under a
    directory and returns the state the operation needs), its timed
    ``operate``, the exact ``counts`` it must repeat, its ``output_checks``,
    its ``quality`` figures and the ``design_checks`` a traced run confirms
    (the hot path the workload exists for)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def design_checks(self, m: dict, shares: dict) -> list[tuple[str, bool, str]]:
        return []


class PipelineWorkload(Workload):
    """A workload driven through ``emoprop <stage> --config``."""

    config: dict
    out_files = ("corpus.txt", "embeddings.txt", "propagation.jsonl", "metrics.json", "metrics.txt")

    def pipeline_config(self, graph: Path | None) -> dict:
        doc = {"seed": self.seed, **json.loads(json.dumps(self.config))}
        doc["eval"]["seed"] = self.seed
        if graph is not None:
            doc["graph"] = str(graph)
        return doc

    def run_stages(self, stages, config: Path, dest: Path) -> Outcome:
        files = {}
        lines: list[str] = []
        failed = 0
        for stage in stages:
            rc, out = run_cli([stage, "--config", str(config), "--out-dir", str(dest)])
            lines += out
            if rc != 0:
                failed = 1
                break
        fresh_eval = any(line.startswith("evaluate:") and "cached" not in line for line in lines)
        folds = self.config["eval"]["folds"] if fresh_eval else 0
        for name in self.out_files:
            if (dest / name).exists():
                files[name] = dest / name
        return Outcome(ops=len(lines) + failed + folds, failed=failed, files=files, lines=lines)

    def counts(self, state: dict, outcome: Outcome) -> dict:
        c = self.config["corpus"]
        return corpus_counts(outcome.files["corpus.txt"], c["num_walks"], c["length"], self.config["embed"])

    def output_checks(self, state: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
        g = emoprop.graph.parse_wordnet_file(graph_file(state, outcome))
        expected = max(1, round(self.config["propagate"]["mask_fraction"] * len(g.annotations)))
        prop_ok, prop_detail = propagation_ok(outcome.files["propagation.jsonl"], g, expected)
        metrics = json.loads(outcome.files["metrics.json"].read_text(encoding="utf-8"))
        counts = self.counts(state, outcome)
        return [
            ("every stage ran fresh", *stage_checks(outcome, self.stages, cached=False)),
            ("every target LU gets a prediction", prop_ok, prop_detail),
            ("CV metrics in range", aggregate_ok(metrics), "F1 in [0, 1], pooled R in [-1, 1]"),
            ("corpus has one odd-length walk per line", counts["shape_ok"], f"{counts['tokens']} tokens"),
        ]

    def quality(self, state: dict, outcome: Outcome) -> dict:
        g = emoprop.graph.parse_wordnet_file(graph_file(state, outcome))
        table = emoprop.embed.load_embeddings(outcome.files["embeddings.txt"])
        metrics = json.loads(outcome.files["metrics.json"].read_text(encoding="utf-8"))
        folds = emoprop.evaluate.make_folds(
            sorted(g.annotations), self.seed, self.config["eval"]["folds"]
        )
        return {
            **cv_quality(metrics),
            "majority_macro_f1": majority_baseline(g, folds),
            "alignment_gap": alignment_gap(g, table, self.seed),
        }

    def mlp_config(self) -> MLPConfig:
        mlp = dict(self.config["mlp"])
        return MLPConfig(input_dim=self.config["embed"]["dim"], **mlp)


class AllBase(PipelineWorkload):
    """``emoprop all`` on a synthetic bilingual graph, then a cached rerun."""

    stages = ("synth", "walk", "embed", "train", "propagate", "evaluate")
    out_files = ("graph.jsonl", "model.ckpt", *PipelineWorkload.out_files)
    config = {
        "synth": BILINGUAL_GRAPH,
        "corpus": BILINGUAL_CORPUS,
        "embed": PLAIN_EMBED,
        "mlp": {"variant": "base", "learning_rate": 0.01, "max_epochs": 100, "patience": 100},
        "eval": {"folds": 10},
        "propagate": {"mask_fraction": 0.1},
    }

    def prepare(self, dest: Path) -> dict:
        config = write_json(dest / "config.json", self.pipeline_config(None))
        return {"config": config, "ops": 0, "failed": 0, "files": {}}

    def operate(self, state: dict, dest: Path) -> Outcome:
        fresh = self.run_stages(("all",), state["config"], dest)
        stamps = {name: path.stat().st_mtime_ns for name, path in fresh.files.items()}
        rerun = self.run_stages(("all",), state["config"], dest)
        fresh.extra["rerun"] = rerun
        fresh.extra["rewritten"] = sorted(
            name for name, path in fresh.files.items() if path.stat().st_mtime_ns != stamps[name]
        )
        fresh.ops += rerun.ops
        fresh.failed += rerun.failed
        return fresh

    def output_checks(self, state: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
        rerun = outcome.extra["rerun"]
        return [
            *super().output_checks(state, outcome),
            ("cached rerun hits every stage", *stage_checks(rerun, self.stages, cached=True)),
            ("cached rerun rewrites no artifact", not outcome.extra["rewritten"], ", ".join(outcome.extra["rewritten"])),
        ]

    def design_checks(self, m: dict, shares: dict) -> list[tuple[str, bool, str]]:
        share = shares["embed.train_s"]
        return [("design: embed.train_s is most of wall_s", share > 0.5, f"{share:.1%}")]


class SparseSeedSubword(PipelineWorkload):
    """Walk, embed, propagate and evaluate on a three-language graph file
    with one LU per synset; subword SGNS; per-wave retraining from a small
    seed."""

    stages = ("walk", "embed", "propagate", "evaluate")
    config = {
        "corpus": {"num_walks": 3000, "length": 40, "cross_lingual": True},
        "embed": {**PLAIN_EMBED, "subword": [3, 5]},
        "mlp": {
            "variant": "base",
            "learning_rate": 0.03,
            "batch_size": 16,
            "max_epochs": 60,
            "patience": 60,
        },
        "propagate": {"retrain_per_wave": True, "mask_fraction": 0.8},
        "eval": {"folds": 5},
    }
    graph = {
        "communities": 4,
        "synsets_per_community": 16,
        "lus_per_synset": 1,
        "languages": ["pl", "en", "de"],
        "intra_probability": 0.15,
        "interlingual_fraction": 0.5,
        "label_noise": 0.1,
    }

    def prepare(self, dest: Path) -> dict:
        synth = write_json(dest / "synth.json", {"seed": self.seed, "synth": self.graph})
        rc, lines = run_cli(["synth", "--config", str(synth), "--out-dir", str(dest)])
        graph = dest / "graph.jsonl"
        config = write_json(dest / "config.json", self.pipeline_config(graph))
        return {
            "config": config,
            "ops": len(lines) + (rc != 0),
            "failed": int(rc != 0),
            "files": {"graph.jsonl": graph},
        }

    def operate(self, state: dict, dest: Path) -> Outcome:
        return self.run_stages(self.stages, state["config"], dest)

    def design_checks(self, m: dict, shares: dict) -> list[tuple[str, bool, str]]:
        rows, retrains = m["embed.rows_per_center"], m["propagate.retrains"]
        return [
            ("design: embed.rows_per_center > 1", rows > 1, f"{rows:.2f}"),
            ("design: propagate.retrains >= 1", retrains >= 1, f"{retrains}"),
        ]


class CvDeep(Workload):
    """Cross-validation of the deep regressor at the md_cv shape (input 50,
    batch 128): 4 folds of 2 epochs each, patience equal to the epoch cap so
    that every fold runs the same number of steps."""

    folds = 4
    epochs = 2
    setup_stages = ("synth", "walk", "embed")
    config = {
        "synth": BILINGUAL_GRAPH,
        "corpus": BILINGUAL_CORPUS,
        "embed": PLAIN_EMBED,
    }

    def mlp_config(self) -> MLPConfig:
        return MLPConfig(
            variant="deep",
            input_dim=PLAIN_EMBED["dim"],
            batch_size=128,
            max_epochs=self.epochs,
            patience=self.epochs,
            seed=self.seed,
        )

    def prepare(self, dest: Path) -> dict:
        config = write_json(dest / "config.json", {"seed": self.seed, **self.config})
        ops = failed = 0
        for stage in self.setup_stages:
            rc, lines = run_cli([stage, "--config", str(config), "--out-dir", str(dest)])
            ops += len(lines) + (rc != 0)
            if rc != 0:
                failed = 1
                break
        files = {name: dest / name for name in ("graph.jsonl", "corpus.txt", "embeddings.txt")}
        state = {"ops": ops, "failed": failed, "files": files}
        if not failed:
            state["g"] = emoprop.graph.parse_wordnet_file(files["graph.jsonl"])
            state["table"] = emoprop.embed.load_embeddings(files["embeddings.txt"])
        return state

    def operate(self, state: dict, dest: Path) -> Outcome:
        cv = emoprop.evaluate.run_cv(
            state["g"], state["table"], self.mlp_config(), self.seed, n_folds=self.folds
        )
        result = write_json(dest / "cv.json", cv.aggregate)
        return Outcome(ops=len(cv.reports), failed=0, files={"cv.json": result}, extra={"cv": cv})

    def counts(self, state: dict, outcome: Outcome) -> dict:
        c = self.config["corpus"]
        return corpus_counts(state["files"]["corpus.txt"], c["num_walks"], c["length"], PLAIN_EMBED)

    def output_checks(self, state: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
        cv = outcome.extra["cv"]
        tested = [lu for fold in cv.folds for lu in fold.test]
        n = len(state["g"].annotations)
        return [
            ("one report per fold", len(cv.reports) == self.folds, f"{len(cv.reports)} reports"),
            ("every LU tested exactly once", len(tested) == n == len(set(tested)), f"{len(tested)} of {n}"),
            ("CV metrics in range", aggregate_ok(cv.aggregate), "F1 in [0, 1], pooled R in [-1, 1]"),
        ]

    def quality(self, state: dict, outcome: Outcome) -> dict:
        cv = outcome.extra["cv"]
        return {
            **cv_quality(cv.aggregate),
            "majority_macro_f1": majority_baseline(state["g"], cv.folds),
            "alignment_gap": alignment_gap(state["g"], state["table"], self.seed),
        }

    def design_checks(self, m: dict, shares: dict) -> list[tuple[str, bool, str]]:
        share = shares["mlp.fwd_bwd_s+mlp.train_self_s"]
        return [("design: mlp.fwd_bwd_s + mlp.train_self_s is most of wall_s", share > 0.5, f"{share:.1%}")]


WORKLOADS = {"all_base": AllBase, "cv_deep": CvDeep, "sparse_seed_subword": SparseSeedSubword}


def facts(workload: Workload, state: dict, outcome: Outcome) -> dict:
    """Sizes and exact counts the per-layer metrics divide by or report."""
    files = {**state["files"], **outcome.files}

    def size(name: str) -> int:
        return files[name].stat().st_size if name in files else 0

    corpus = workload.config["corpus"]
    return {
        **workload.counts(state, outcome),
        "num_walks": corpus["num_walks"],
        "length": corpus["length"],
        "rerun_stages": len(outcome.extra["rerun"].lines) if "rerun" in outcome.extra else 0,
        "artifact_bytes": sum(p.stat().st_size for p in files.values()),
        "graph_bytes": size("graph.jsonl"),
        "embedding_bytes": size("embeddings.txt"),
        "checkpoint_bytes": size("model.ckpt"),
        "flops_per_step": flops_per_step(workload.mlp_config()),
        "flops_per_sample": flops_per_step(workload.mlp_config()) // workload.mlp_config().batch_size,
    }
