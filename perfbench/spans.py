"""Span recording around emoprop's public functions, from outside the package.

A span is (name, start, end, parent, tags).  Spans stay in memory until
the run ends.  ``Tracer.installed()`` replaces each traced function at the
module attribute its caller looks up (``emoprop.mlp.loss_and_grads`` is
looked up by ``train_mlp``, ``emoprop.propagate.train_mlp`` by
``propagate``) and restores the originals on exit, so the package itself
is never edited.  Span names are ``<module>.<function>`` of the wrapped
function; the module is the layer.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

# (module whose attribute is replaced, attribute name); one entry per call site
TARGETS = (
    ("emoprop.cli", "main"),
    ("emoprop.cli", "run"),
    ("emoprop.pipeline", "run_stage"),
    ("emoprop.pipeline", "generate"),
    ("emoprop.pipeline", "write_wordnet_file"),
    ("emoprop.pipeline", "parse_wordnet_file"),
    ("emoprop.pipeline", "generate_corpus"),
    ("emoprop.pipeline", "save_corpus"),
    ("emoprop.pipeline", "load_corpus_sequences"),
    ("emoprop.pipeline", "train_embeddings"),
    ("emoprop.pipeline", "save_embeddings"),
    ("emoprop.pipeline", "load_embeddings"),
    ("emoprop.pipeline", "train_mlp"),
    ("emoprop.pipeline", "save_model"),
    ("emoprop.pipeline", "propagate"),
    ("emoprop.pipeline", "save_propagation"),
    ("emoprop.pipeline", "run_cv"),
    ("emoprop.graph", "parse_wordnet_file"),
    ("emoprop.embed", "load_embeddings"),
    ("emoprop.evaluate", "run_cv"),
    ("emoprop.evaluate", "make_folds"),
    ("emoprop.evaluate", "propagate"),
    ("emoprop.evaluate", "prf_scores"),
    ("emoprop.evaluate", "pooled_r_r2"),
    ("emoprop.evaluate", "aggregate_reports"),
    ("emoprop.propagate", "build_plan"),
    ("emoprop.propagate", "train_mlp"),
    ("emoprop.propagate", "predict"),
    ("emoprop.mlp", "loss_and_grads"),
    ("emoprop.mlp", "make_dropout_masks"),
)


def _tags_run_stage(args, kwargs, result):
    return {"stage": args[0], "cached": bool(result[1])}


def _tags_generate_corpus(args, kwargs, result):
    return {"tokens": sum(len(seq) for seq in result.sequences)}


def _window_pairs(n: int, window: int) -> int:
    """(center, context) pairs in one sequence of ``n`` tokens: twice the
    sum over positions i of min(i, window)."""
    if n - 1 <= window:
        return n * (n - 1)
    return window * (window + 1) + 2 * (n - 1 - window) * window


def _tags_train_embeddings(args, kwargs, result):
    sequences, cfg = args[0], args[1]
    pairs = sum(_window_pairs(len(seq), cfg.window) for seq in sequences)
    return {
        "final_loss": result.loss_history[-1],
        "tokens": sum(len(seq) for seq in sequences),
        "pairs": pairs * cfg.epochs,
    }


def _tags_train_mlp(args, kwargs, result):
    cfg, train = args[0], args[1]
    report = result[1]
    return {
        "n_train": len(train[0]),
        "batch_size": cfg.batch_size,
        "epochs_run": report.epochs_run,
        "best_epoch": report.best_epoch,
    }


def _tags_loss_and_grads(args, kwargs, result):
    model, x = args[0], args[1]
    return {"batch": len(x), "flops": 6 * len(x) * sum(w.size for w in model.weights)}


def _tags_propagate(args, kwargs, result):
    return {
        "waves": len(result.plan.waves),
        "unreachable": len(result.plan.unreachable),
        "retrains": len(result.wave_reports),
    }


# tags read from a traced call's arguments and result, keyed by span name
TAGGERS = {
    "pipeline.run_stage": _tags_run_stage,
    "corpus.generate_corpus": _tags_generate_corpus,
    "embed.train_embeddings": _tags_train_embeddings,
    "mlp.train_mlp": _tags_train_mlp,
    "mlp.loss_and_grads": _tags_loss_and_grads,
    "propagate.propagate": _tags_propagate,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "tags": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tagger = TAGGERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if tagger is not None:
                    record["tags"].update(tagger(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: the program is single-threaded)."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def subtree(spans: list[dict], root: int) -> list[int]:
    """Indices of the spans below ``root`` (children are recorded after
    their parent)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
    return sorted(inside - {root})


def layer_table(spans: list[dict], root: int) -> tuple[float, dict[str, float]]:
    """Self time per layer inside span ``root``; the root's own self time
    is the part of it no layer span covers."""
    selfs = self_times(spans)
    table: dict[str, float] = {}
    for i in subtree(spans, root):
        layer = spans[i]["name"].split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + selfs[i]
    return selfs[root], table


def design_shares(spans: list[dict], root: int) -> dict[str, float]:
    """Shares of span ``root`` spent in SGNS training and in MLP steps plus
    the rest of ``train_mlp`` (Adam, validation, best-weight copies)."""
    selfs = self_times(spans)
    wall = spans[root]["end"] - spans[root]["start"]
    share = {"embed.train_s": 0.0, "mlp.fwd_bwd_s+mlp.train_self_s": 0.0}
    for i in subtree(spans, root):
        name = spans[i]["name"]
        if name == "embed.train_embeddings":
            share["embed.train_s"] += (spans[i]["end"] - spans[i]["start"]) / wall
        elif name == "mlp.loss_and_grads":
            share["mlp.fwd_bwd_s+mlp.train_self_s"] += (spans[i]["end"] - spans[i]["start"]) / wall
        elif name == "mlp.train_mlp":
            share["mlp.fwd_bwd_s+mlp.train_self_s"] += selfs[i] / wall
    return share


def _fold_durations(spans: list[dict]) -> list[float]:
    """A fold runs from its ``propagate`` call to the next fold's, the last
    one to ``aggregate_reports`` (or the end of ``run_cv``)."""
    folds = []
    for ci, cv in enumerate(spans):
        if cv["name"] != "evaluate.run_cv":
            continue
        children = [s for s in spans if s["parent"] == ci]
        starts = [s["start"] for s in children if s["name"] == "propagate.propagate"]
        agg = [s["start"] for s in children if s["name"] == "evaluate.aggregate_reports"]
        bounds = starts + [agg[0] if agg else cv["end"]]
        folds += [b - a for a, b in zip(bounds[:-1], bounds[1:])]
    return folds


def _per(a: float, b: float) -> float:
    """a / b, or 0 when no call made b zero."""
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], facts: dict) -> dict[str, float]:
    """Every per-layer metric, from the spans of one traced run plus the
    exact counts and sizes the benchmark computed from its inputs.  A
    metric whose call site was never reached reads 0."""
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(durations(spans, name))

    def self_of(name: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s["name"] == name)

    def tags(name: str, key: str) -> list:
        return [s["tags"][key] for s in spans if s["name"] == name]

    stages = [s for s in spans if s["name"] == "pipeline.run_stage"]
    m: dict[str, float] = {}
    for stage in ("synth", "walk", "embed", "train", "propagate", "evaluate"):
        m[f"pipeline.stage_s.{stage}"] = sum(
            s["end"] - s["start"]
            for s in stages
            if s["tags"]["stage"] == stage and not s["tags"]["cached"]
        )
    cached = [s for s in stages if s["tags"]["cached"]]
    m["pipeline.cached_rerun_s"] = sum(s["end"] - s["start"] for s in cached)
    reruns = facts["rerun_stages"]
    m["pipeline.cache_hit_ratio"] = _per(len(cached), reruns)
    m["pipeline.artifact_bytes"] = facts["artifact_bytes"]

    m["graph.parse_s"] = total("graph.parse_wordnet_file")
    m["graph.write_s"] = total("graph.write_wordnet_file")
    m["graph.bytes"] = facts["graph_bytes"]

    m["synth.generate_s"] = total("synth.generate")

    walks = facts["num_walks"] * len(durations(spans, "corpus.generate_corpus"))
    m["corpus.generate_s"] = total("corpus.generate_corpus")
    m["corpus.walks_per_s"] = _per(walks, m["corpus.generate_s"])
    m["corpus.tokens"] = facts["tokens"]
    m["corpus.fill_ratio"] = facts["tokens"] / (facts["num_walks"] * (2 * facts["length"] - 1))
    m["corpus.save_s"] = total("corpus.save_corpus")
    m["corpus.load_s"] = total("corpus.load_corpus_sequences")

    trainings = len(durations(spans, "embed.train_embeddings"))
    m["embed.train_s"] = total("embed.train_embeddings")
    m["embed.pairs"] = facts["pairs"]
    m["embed.pairs_per_s"] = _per(trainings * facts["pairs"], m["embed.train_s"])
    m["embed.us_per_center"] = _per(1e6 * m["embed.train_s"], trainings * facts["centers"])
    m["embed.rows_per_center"] = facts["rows_per_center"]
    m["embed.final_loss"] = (tags("embed.train_embeddings", "final_loss") or [0.0])[-1]
    m["embed.save_s"] = total("embed.save_embeddings")
    m["embed.load_s"] = total("embed.load_embeddings")
    m["embed.bytes"] = facts["embedding_bytes"]

    steps = len(durations(spans, "mlp.loss_and_grads"))
    epochs_run = sum(tags("mlp.train_mlp", "epochs_run"))
    m["mlp.train_calls"] = len(durations(spans, "mlp.train_mlp"))
    m["mlp.train_s"] = total("mlp.train_mlp")
    m["mlp.steps"] = steps
    m["mlp.epochs_run"] = epochs_run
    m["mlp.useful_epoch_ratio"] = _per(sum(tags("mlp.train_mlp", "best_epoch")), epochs_run)
    m["mlp.step_ms"] = _per(1e3 * m["mlp.train_s"], steps)
    m["mlp.fwd_bwd_s"] = total("mlp.loss_and_grads")
    m["mlp.dropout_s"] = total("mlp.make_dropout_masks")
    m["mlp.train_self_s"] = self_of("mlp.train_mlp")
    m["mlp.flops_per_step"] = facts["flops_per_step"]
    m["mlp.gflops_per_s"] = _per(sum(tags("mlp.loss_and_grads", "flops")) / 1e9, m["mlp.fwd_bwd_s"])
    m["mlp.predict_s"] = total("mlp.predict")
    m["mlp.ckpt_save_s"] = total("mlp.save_model")
    m["mlp.ckpt_bytes"] = facts["checkpoint_bytes"]

    m["propagate.self_s"] = self_of("propagate.propagate")
    m["propagate.plan_s"] = total("propagate.build_plan")
    m["propagate.waves"] = sum(tags("propagate.propagate", "waves"))
    m["propagate.unreachable"] = sum(tags("propagate.propagate", "unreachable"))
    m["propagate.retrains"] = sum(tags("propagate.propagate", "retrains"))
    m["propagate.save_s"] = total("propagate.save_propagation")

    folds = _fold_durations(spans)
    m["evaluate.cv_s"] = total("evaluate.run_cv")
    m["evaluate.fold_s.p50"] = statistics.median(folds) if folds else 0.0
    m["evaluate.fold_s.max"] = max(folds, default=0.0)
    m["evaluate.score_s"] = total("evaluate.prf_scores") + total("evaluate.pooled_r_r2")
    m["evaluate.self_s"] = self_of("evaluate.run_cv")

    # pipeline.run is only reached through cli.main
    m["cli.overhead_s"] = total("cli.main") - total("pipeline.run")
    return m


def expected_steps(spans: list[dict]) -> int:
    """Optimizer steps implied by each ``train_mlp`` call's training-set size,
    batch size and epochs run, with a trailing 1-sample batch folded into
    the previous one as the regressor does."""
    steps = 0
    for s in spans:
        if s["name"] != "mlp.train_mlp":
            continue
        n, bs = s["tags"]["n_train"], s["tags"]["batch_size"]
        batches = -(-n // bs)
        if batches > 1 and n % bs == 1:
            batches -= 1
        steps += batches * s["tags"]["epochs_run"]
    return steps


def count_mismatches(spans: list[dict], facts: dict) -> list[str]:
    """Exact counts the benchmark computed from the files it read that
    differ from what the traced calls saw: tokens generated and trained
    on, SGNS pairs, FLOPs per sample of each regressor step and the
    number of steps.  A call site never reached is a mismatch too."""
    seen = {
        "corpus.tokens": {s["tags"]["tokens"] for s in spans if s["name"] == "corpus.generate_corpus"},
        "embed.tokens": {s["tags"]["tokens"] for s in spans if s["name"] == "embed.train_embeddings"},
        "embed.pairs": {s["tags"]["pairs"] for s in spans if s["name"] == "embed.train_embeddings"},
        "mlp.flops_per_sample": {
            s["tags"]["flops"] // s["tags"]["batch"] for s in spans if s["name"] == "mlp.loss_and_grads"
        },
    }
    want = {
        "corpus.tokens": facts["tokens"],
        "embed.tokens": facts["tokens"],
        "embed.pairs": facts["pairs"],
        "mlp.flops_per_sample": facts["flops_per_sample"],
    }
    out = [f"{k} {sorted(seen[k])} != {want[k]}" for k in seen if seen[k] != {want[k]}]
    steps = sum(s["name"] == "mlp.loss_and_grads" for s in spans)
    if not steps or steps != expected_steps(spans):
        out.append(f"mlp.steps {steps} != {expected_steps(spans)}")
    return out
