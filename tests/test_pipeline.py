"""End-to-end pipeline: config parsing, staging, caching, CLI."""

import hashlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import emoprop
import emoprop.mlp
from emoprop import pipeline
from emoprop.cli import main
from emoprop.corpus import CorpusConfig, node_token
from emoprop.embed import EmbedConfig, EmbeddingError
from emoprop.graph import LEXICAL_UNIT, NUM_DIMENSIONS, write_wordnet_file
from emoprop.mlp import MLPConfig, MLPError
from emoprop.propagate import PropagationError
from emoprop.pipeline import (
    ConfigError,
    EvalConfig,
    PipelineError,
    PropagateConfig,
    artifact_paths,
    config_from_dict,
    parse_config,
    run,
    run_stage,
    stage_seed,
)
from emoprop.synth import SynthConfig

from helpers import chain_graph

ARTIFACTS = (
    "graph.jsonl",
    "corpus.txt",
    "embeddings.txt",
    "model.ckpt",
    "propagation.jsonl",
    "metrics.json",
    "metrics.txt",
)


# config section -> the stage whose stage_seed its "seed" defaults to
SEEDED_SECTIONS = {
    "synth": "synth",
    "corpus": "walk",
    "embed": "embed",
    "mlp": "train",
    "eval": "evaluate",
}


def micro_config(out_dir):
    """Small synthetic end-to-end configuration (24 LUs, dim-8 vectors)."""
    return {
        "seed": 7,
        "out_dir": str(out_dir),
        "synth": {
            "communities": 2,
            "synsets_per_community": 3,
            "lus_per_synset": 2,
            "languages": ["pl", "en"],
            "interlingual_fraction": 0.5,
        },
        "corpus": {"num_walks": 200, "length": 8},
        "embed": {"dim": 8, "epochs": 2},
        "mlp": {"variant": "base", "max_epochs": 15, "patience": 5, "batch_size": 16},
        "propagate": {"mask_fraction": 0.2},
        "eval": {"folds": 3},
    }


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    doc = micro_config(out)
    lines = []
    code = run("all", config_from_dict(doc), echo=lines.append)
    assert code == 0
    return out, doc, lines


class TestStageSeed:
    def test_formula(self):
        digest = hashlib.sha256(b"11:walk").digest()
        assert stage_seed(11, "walk") == int.from_bytes(digest[:4], "little")

    def test_distinct_across_stages(self):
        stages = ("synth", "walk", "embed", "train", "propagate", "evaluate", "train-split")
        seeds = {stage_seed(0, s) for s in stages}
        assert len(seeds) == len(stages)

    def test_section_seeds_derive_from_global_seed(self):
        cfg = config_from_dict({"seed": 3, "synth": {}})
        for section, stage in SEEDED_SECTIONS.items():
            assert getattr(cfg, section).seed == stage_seed(3, stage), section

    def test_override_only_affects_its_stage(self):
        base = config_from_dict({"seed": 3, "synth": {}})
        for section in SEEDED_SECTIONS:
            pinned = config_from_dict({"seed": 3, "synth": {}, section: {"seed": 7}})
            for name in (*SEEDED_SECTIONS, "propagate"):
                expected = getattr(base, name)
                if name == section:
                    expected = replace(expected, seed=7)
                assert getattr(pinned, name) == expected, (section, name)


class TestParseConfig:
    def test_defaults(self):
        cfg = config_from_dict({"graph": "g.jsonl", "seed": 0})
        assert cfg.corpus.num_walks == 1000
        assert cfg.corpus.length == 20
        assert cfg.corpus.cross_lingual is True
        assert cfg.embed.dim == 300
        assert cfg.mlp.patience == 30
        assert cfg.mlp.input_dim == 300
        assert cfg.propagate.mask_fraction == 0.1
        assert cfg.propagate.retrain_per_wave is False
        assert cfg.eval.folds == 10
        assert cfg.out_dir == "."
        assert cfg.synth is None

    def test_embed_dim_feeds_mlp_input(self):
        cfg = config_from_dict({"graph": "g", "seed": 0, "embed": {"dim": 32}})
        assert cfg.mlp.input_dim == 32

    def test_misspelled_mlp_key(self):
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): mlp\.paitence"):
            config_from_dict({"graph": "g", "seed": 0, "mlp": {"paitence": 3}})

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): sed"):
            config_from_dict({"graph": "g", "seed": 0, "sed": 1})

    def test_section_value_errors_are_prefixed(self):
        with pytest.raises(ConfigError, match="mlp: "):
            config_from_dict({"graph": "g", "seed": 0, "mlp": {"dropout": 1.5}})
        with pytest.raises(ConfigError, match="embed: "):
            config_from_dict({"graph": "g", "seed": 0, "embed": {"dim": 0}})
        with pytest.raises(ConfigError, match="synth: "):
            config_from_dict({"seed": 0, "synth": {"communities": 0}})

    def test_graph_synth_exclusive(self):
        with pytest.raises(ConfigError, match="both graph and synth"):
            config_from_dict({"graph": "g", "synth": {}, "seed": 0})
        with pytest.raises(ConfigError, match="graph path or a synth section"):
            config_from_dict({"seed": 0})

    def test_seed_required_and_validated(self):
        with pytest.raises(ConfigError, match="explicit seed"):
            config_from_dict({"graph": "g"})
        with pytest.raises(ConfigError, match="non-negative"):
            config_from_dict({"graph": "g", "seed": -1})
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict({"graph": "g", "seed": True})
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict({"graph": "g", "seed": 1.5})

    def test_languages_type_checked(self):
        with pytest.raises(ConfigError, match="synth.languages"):
            config_from_dict({"seed": 0, "synth": {"languages": "pl"}})

    def test_subword_shape_checked(self):
        with pytest.raises(ConfigError, match="subword"):
            config_from_dict({"graph": "g", "seed": 0, "embed": {"subword": [3]}})
        cfg = config_from_dict({"graph": "g", "seed": 0, "embed": {"subword": [2, 4]}})
        assert cfg.embed.subword == (2, 4)

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="folds"):
            config_from_dict({"graph": "g", "seed": 0, "eval": {"folds": 2}})
        with pytest.raises(ConfigError, match="mask_fraction"):
            config_from_dict({"graph": "g", "seed": 0, "propagate": {"mask_fraction": 0.0}})
        with pytest.raises(ConfigError, match="mask_fraction"):
            config_from_dict({"graph": "g", "seed": 0, "propagate": {"mask_fraction": 1.0}})
        with pytest.raises(ConfigError, match="num_walks"):
            config_from_dict({"graph": "g", "seed": 0, "corpus": {"num_walks": 0}})
        with pytest.raises(ValueError, match="seed must be non-negative"):
            EvalConfig(seed=-5)

    def test_hidden_dims_list(self):
        cfg = config_from_dict(
            {"graph": "g", "seed": 0, "mlp": {"variant": "deep", "hidden_dims": [16, 8]}}
        )
        assert cfg.mlp.resolved_hidden() == (16, 8)
        with pytest.raises(ConfigError, match="hidden_dims"):
            config_from_dict({"graph": "g", "seed": 0, "mlp": {"hidden_dims": 16}})

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("synth", {"communities": 2.5}, "synth.communities must be an integer, got 2.5"),
            ("corpus", {"num_walks": True}, "corpus.num_walks must be an integer, got True"),
            ("embed", {"dim": 8.5}, "embed.dim must be an integer, got 8.5"),
            ("embed", {"learning_rate": True}, "embed.learning_rate must be a number, got True"),
            ("propagate", {"mask_fraction": "0.2"}, "propagate.mask_fraction must be a number"),
            ("propagate", {"retrain_per_wave": 1}, "propagate.retrain_per_wave must be a boolean"),
            ("mlp", {"variant": ["deep"]}, "mlp.variant must be a string, got ['deep']"),
            ("mlp", {"hidden_dims": [16, True]}, "mlp.hidden_dims[1] must be an integer"),
            ("eval", {"folds": 3.0}, "eval.folds must be an integer, got 3.0"),
            ("corpus", {"seed": -1}, "corpus.seed must be non-negative"),
            ("eval", {"seed": -1}, "eval.seed must be non-negative"),
            ("mlp", {"learning_rate": float("nan")},
             "mlp.learning_rate must be a finite number, got nan"),
            ("embed", {"learning_rate": float("inf")},
             "embed.learning_rate must be a finite number, got inf"),
            ("synth", {"label_noise": float("-inf")},
             "synth.label_noise must be a finite number, got -inf"),
        ],
    )
    def test_values_checked_against_field_types(self, tmp_path, section, values, message):
        # json.dumps writes NaN and infinities as the literals NaN, Infinity, -Infinity
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 0, "synth": {}, section: values}), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)

    @pytest.mark.parametrize(
        "make, error, rate",
        [
            (EmbedConfig, EmbeddingError, float("nan")),
            (EmbedConfig, EmbeddingError, float("inf")),
            (MLPConfig, MLPError, float("nan")),
            (MLPConfig, MLPError, float("inf")),
        ],
        ids=["embed-nan", "embed-inf", "mlp-nan", "mlp-inf"],
    )
    def test_non_finite_learning_rate_refused(self, make, error, rate):
        """The configs themselves refuse what `_coerce` refuses in a file, so
        a library caller gets the named error, not numpy RuntimeWarnings
        from the first training step."""
        with pytest.raises(error, match="learning_rate must be a positive finite number"):
            make(learning_rate=rate)

    def test_synth_seed_override_recorded(self):
        cfg = config_from_dict({"seed": 1, "synth": {"seed": 5}})
        assert cfg.synth.seed == 5

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            parse_config(arr)

    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(micro_config(tmp_path)), encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.seed == 7
        assert cfg.embed.dim == 8
        assert cfg.eval.folds == 3


class TestStagesAndCache:
    def test_all_runs_every_stage(self, micro_run):
        out, _doc, lines = micro_run
        assert len(lines) == 6
        assert [ln.split(":")[0] for ln in lines] == [
            "synth", "walk", "embed", "train", "propagate", "evaluate",
        ]
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        assert (out / ".cache").is_dir()

    def test_summary_mentions_metrics(self, micro_run):
        _out, _doc, lines = micro_run
        assert lines[-1].startswith("evaluate: ")
        assert "F1" in lines[-1]

    def test_metrics_files_parse(self, micro_run):
        out, _doc, _lines = micro_run
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert "micro" in metrics and "pooled_r" in metrics
        table = (out / "metrics.txt").read_text(encoding="utf-8")
        assert "±" in table

    def test_rerun_hits_cache_and_keeps_bytes(self, micro_run):
        out, doc, _lines = micro_run
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        lines = []
        assert run("all", config_from_dict(doc), echo=lines.append) == 0
        assert len(lines) == 6
        assert all("cached" in ln for ln in lines)
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == before[name]

    def test_stamp_that_is_not_an_object_reruns_the_stage(self, micro_run):
        out, doc, _lines = micro_run
        (out / ".cache" / "synth.json").write_text("[]\n", encoding="utf-8")
        lines = []
        assert run("synth", config_from_dict(doc), echo=lines.append) == 0
        assert lines[0].startswith("synth: ") and "cached" not in lines[0]

    def test_changed_walk_seed_invalidates_downstream_only(self, micro_run):
        out, doc, _lines = micro_run
        changed = json.loads(json.dumps(doc))
        changed["corpus"]["seed"] = 99
        lines = []
        assert run("all", config_from_dict(changed), echo=lines.append) == 0
        assert "cached" in lines[0]          # synth untouched
        assert "cached" not in lines[1]      # walk re-ran
        assert "cached" not in lines[2]      # embed depends on the corpus
        # restore the original artifacts for the other tests
        lines = []
        assert run("all", config_from_dict(doc), echo=lines.append) == 0
        assert "cached" not in lines[1]

    def test_single_stage_requires_inputs(self, micro_run, tmp_path):
        _out, doc, _lines = micro_run
        fresh = json.loads(json.dumps(doc))
        fresh["out_dir"] = str(tmp_path)
        with pytest.raises(PipelineError, match="missing input artifact .*graph"):
            run("evaluate", config_from_dict(fresh))

    def test_missing_input_names_producer(self, micro_run, tmp_path):
        out, doc, _lines = micro_run
        fresh = json.loads(json.dumps(doc))
        del fresh["synth"]
        fresh["graph"] = str(out / "graph.jsonl")
        fresh["out_dir"] = str(tmp_path)
        with pytest.raises(PipelineError, match="produced by the 'embed' stage"):
            run("evaluate", config_from_dict(fresh))

    def test_missing_config_graph_names_the_config(self, tmp_path):
        """A config that names its graph cannot get it from synth."""
        cfg = config_from_dict({"seed": 1, "graph": "missing.jsonl", "out_dir": str(tmp_path)})
        with pytest.raises(
            PipelineError,
            match=r'^missing input artifact missing.jsonl \(the config\'s "graph" path\)$',
        ):
            run("walk", cfg)

    def test_synth_stage_needs_synth_section(self, micro_run, tmp_path):
        out, doc, _lines = micro_run
        fresh = json.loads(json.dumps(doc))
        del fresh["synth"]
        fresh["graph"] = str(out / "graph.jsonl")
        fresh["out_dir"] = str(tmp_path)
        with pytest.raises(PipelineError, match="requires a synth section"):
            run("synth", config_from_dict(fresh))

    def test_graph_config_skips_synth(self, micro_run, tmp_path):
        out, doc, _lines = micro_run
        fresh = json.loads(json.dumps(doc))
        del fresh["synth"]
        fresh["graph"] = str(out / "graph.jsonl")
        fresh["out_dir"] = str(tmp_path)
        lines = []
        assert run("all", config_from_dict(fresh), echo=lines.append) == 0
        assert len(lines) == 5
        assert lines[0].startswith("walk: ")

    def test_unknown_stage(self, micro_run):
        _out, doc, _lines = micro_run
        with pytest.raises(PipelineError, match="unknown stage"):
            run("walkies", config_from_dict(doc))

    def test_synth_seed_override_pins_graph(self, tmp_path):
        base = {
            "seed": 1,
            "synth": {
                "communities": 2,
                "synsets_per_community": 3,
                "lus_per_synset": 2,
                "languages": ["pl", "en"],
                "seed": 5,
            },
        }
        dirs = []
        for top_seed in (1, 2):
            doc = json.loads(json.dumps(base))
            doc["seed"] = top_seed
            doc["out_dir"] = str(tmp_path / f"s{top_seed}")
            assert run("synth", config_from_dict(doc), echo=lambda _: None) == 0
            dirs.append(tmp_path / f"s{top_seed}")
        assert (dirs[0] / "graph.jsonl").read_bytes() == (dirs[1] / "graph.jsonl").read_bytes()

    def test_artifact_paths_follow_out_dir(self):
        cfg = config_from_dict({"graph": "custom/graph.jsonl", "seed": 0, "out_dir": "art"})
        paths = artifact_paths(cfg)
        assert str(paths["graph"]) == "custom/graph.jsonl"
        assert str(paths["corpus"]) == "art/corpus.txt"
        assert str(paths["metrics_json"]) == "art/metrics.json"


def annotated_inputs(out, n_annotated, **propagate):
    """A graph file with ``n_annotated`` annotated LUs on a synset chain, a
    dim-4 embedding file covering every node, and a config reading both."""
    g = chain_graph(n_synsets=n_annotated)
    rng = np.random.default_rng(0)
    for node in sorted(n for n in g.nodes if n.kind == LEXICAL_UNIT):
        g.set_annotation(node, rng.random(NUM_DIMENSIONS))
    write_wordnet_file(g, out / "graph.jsonl")
    rows = [" ".join([node_token(n), *map(str, rng.normal(size=4))]) for n in sorted(g.nodes)]
    (out / "embeddings.txt").write_text(f"{len(rows)} 4\n" + "\n".join(rows) + "\n")
    return config_from_dict({
        "seed": 0,
        "graph": str(out / "graph.jsonl"),
        "out_dir": str(out),
        "embed": {"dim": 4},
        "mlp": {"max_epochs": 2},
        "propagate": propagate,
    })


class TestSplitGuards:
    """A regressor needs 2 validation and 2 training LUs (FVU is undefined
    on one sample), so a smaller split stops the stage before training."""

    @pytest.mark.parametrize("stage", ["train", "propagate"])
    @pytest.mark.parametrize("n_annotated", [6, 12])
    def test_too_few_annotated_lus(self, tmp_path, stage, n_annotated):
        cfg = annotated_inputs(tmp_path, n_annotated)
        message = (
            f"^{stage} needs at least 2 validation and 2 training LUs; its split of "
            rf"{n_annotated} annotated LUs gives 1 and \d+$"
        )
        with pytest.raises(PipelineError, match=message):
            run(stage, cfg, echo=lambda _: None)

    def test_mask_fraction_leaving_too_few_training_lus(self, tmp_path):
        cfg = annotated_inputs(tmp_path, 20, mask_fraction=0.85)
        with pytest.raises(PipelineError, match="20 annotated LUs gives 2 and 1$"):
            run("propagate", cfg, echo=lambda _: None)

    def test_annotated_lu_without_embedding_named(self, tmp_path):
        cfg = annotated_inputs(tmp_path, 15)
        path = tmp_path / "embeddings.txt"
        lines = path.read_text().splitlines()
        kept = [line for line in lines[1:] if not line.startswith("L#pl#3 ")]
        path.write_text(f"{len(kept)} 4\n" + "\n".join(kept) + "\n")
        with pytest.raises(PropagationError, match="^missing embeddings for: L#pl#3$"):
            run("train", cfg, echo=lambda _: None)

    @pytest.mark.parametrize("stage", ["train", "propagate"])
    def test_smallest_viable_split_runs(self, tmp_path, stage):
        # 15 is the smallest count whose 10% rounds to 2
        lines = []
        assert run(stage, annotated_inputs(tmp_path, 15), echo=lines.append) == 0
        assert lines[0].startswith(f"{stage}: ")


READERS = ("parse_wordnet_file", "load_corpus_sequences", "load_embeddings")


@pytest.fixture()
def reads(monkeypatch):
    """Calls of each reader through its emoprop.pipeline attribute."""
    counts = dict.fromkeys(READERS, 0)
    for name in READERS:
        def counted(*args, _name=name, _fn=getattr(pipeline, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(pipeline, name, counted)
    return counts


class TestInputsReadOnce:
    """run_stage reads each input a stage declares, once per content hash
    within a run, and the stage bodies take what it read."""

    def test_all_reads_each_input_once(self, tmp_path, reads):
        doc = micro_config(tmp_path)
        assert run("all", config_from_dict(doc), echo=lambda _: None) == 0
        assert reads == dict.fromkeys(READERS, 1)
        assert run("all", config_from_dict(doc), echo=lambda _: None) == 0
        assert reads == dict.fromkeys(READERS, 1)  # every stage cached

    def test_rewritten_input_is_read_again(self, tmp_path, reads):
        cfg = annotated_inputs(tmp_path, 20)
        loaded = {}
        for stage in ("train", "propagate"):
            assert not run_stage(stage, cfg, loaded)[1]
        assert reads["parse_wordnet_file"] == reads["load_embeddings"] == 1
        graph = tmp_path / "graph.jsonl"
        graph.write_text(graph.read_text() + "\n")  # same graph, new content hash
        assert not run_stage("train", cfg, loaded)[1]
        assert reads["parse_wordnet_file"] == 2 and reads["load_embeddings"] == 1

    @pytest.mark.parametrize("stage", ["train", "propagate", "evaluate"])
    def test_embeddings_of_another_width_named(self, micro_run, tmp_path, monkeypatch, stage):
        """input_dim comes from embed.dim, so an embeddings file of another
        width fails before any training step, naming both widths."""
        out, doc, _lines = micro_run
        fresh = json.loads(json.dumps(doc))
        del fresh["synth"]
        fresh.update(graph=str(out / "graph.jsonl"), out_dir=str(tmp_path))
        fresh["embed"]["dim"] = 16
        shutil.copy(out / "embeddings.txt", tmp_path / "embeddings.txt")
        steps = []
        monkeypatch.setattr(emoprop.mlp, "loss_and_grads", lambda *a, **k: steps.append(a))
        message = r"input_dim is 16, features have 8 \(train\) and 8 \(validation\) columns$"
        with pytest.raises(MLPError, match=message):
            run(stage, config_from_dict(fresh), echo=lambda _: None)
        assert steps == []


class TestCli:
    @pytest.fixture()
    def config_file(self, micro_run, tmp_path):
        out, doc, _lines = micro_run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path, out

    def test_cached_run_exits_zero(self, config_file, capsys):
        path, _out = config_file
        assert main(["all", "--config", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("cached") == 6

    def test_out_dir_override_reruns_bytes_identical(self, config_file, tmp_path, capsys):
        path, out = config_file
        other = tmp_path / "other"
        assert main(["all", "--config", str(path), "--out-dir", str(other)]) == 0
        capsys.readouterr()
        for name in ("corpus.txt", "embeddings.txt", "metrics.json"):
            assert (other / name).read_bytes() == (out / name).read_bytes(), name

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"graph": "g", "seed": 0, "mlp": {"paitence": 1}}))
        assert main(["all", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key(s): mlp.paitence")

    def test_wrongly_typed_value_reports_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 0, "synth": {"communities": 2.5}}))
        assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: synth.communities must be an integer, got 2.5\n"

    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        sections = {
            "synth": SynthConfig,
            "corpus": CorpusConfig,
            "embed": EmbedConfig,
            "mlp": MLPConfig,
            "propagate": PropagateConfig,
            "eval": EvalConfig,
        }
        for name, cls in sections.items():
            block = re.search(rf"^  {name} +(.*(?:\n {{14}}\S.*)*)", out, re.M).group(1)
            for f in fields(cls):
                if f.name != "input_dim":
                    assert re.search(rf"\b{f.name}=", block), f"{name}.{f.name}"

    def test_help_lists_every_stage_with_its_files(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        block = capsys.readouterr().out.split("\nstages:\n")[1]
        expected = {
            "synth": "graph.jsonl",
            "walk": "corpus.txt",
            "embed": "embeddings.txt",
            "train": "model.ckpt",
            "propagate": "propagation.jsonl",
            "evaluate": "metrics.json, metrics.txt",
        }
        for stage, files in expected.items():
            assert re.search(rf"^  {stage} +\S.* -> {files}$", block, re.M), stage
        assert re.search(r"^  all +every applicable stage", block, re.M)

    def test_missing_input_reports_error(self, config_file, tmp_path, capsys):
        path, out = config_file
        doc = json.loads(path.read_text())
        del doc["synth"]
        doc["graph"] = str(out / "graph.jsonl")
        doc["out_dir"] = str(tmp_path / "empty")
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--config", str(cfg2)]) == 1
        assert "error: missing input artifact" in capsys.readouterr().err

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["all"])
        assert exc.value.code == 2

    def test_unknown_stage_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        """The declared `emoprop` script, called the way an installed wrapper calls it."""
        tomllib = pytest.importorskip("tomllib")
        with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["emoprop"]
        assert callable(pkgutil.resolve_name(target))
        wrapper = (
            "import pkgutil, sys\n"
            "entry = pkgutil.resolve_name(sys.argv[1])\n"
            "sys.argv[:] = ['emoprop', *sys.argv[2:]]\n"
            "sys.exit(entry())\n"
        )
        path = [str(Path(emoprop.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        result = subprocess.run(
            [sys.executable, "-c", wrapper, target, "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "stages:" in result.stdout

    def test_import_leaves_scipy_unloaded(self):
        """scipy serves only the significance tests, which no stage runs."""
        code = "import sys, emoprop.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        path = [str(Path(emoprop.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_leaves_the_thread_pool_unloaded(self):
        """concurrent.futures, and the logging it loads, serve only the
        deep regressor's Adam worker, opened by the training call that
        needs it."""
        code = "import sys, emoprop.cli; print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
        path = [str(Path(emoprop.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.skipif(
        shutil.which("emoprop") is None, reason="no installed emoprop console script"
    )
    def test_installed_console_script_help(self):
        exe = shutil.which("emoprop")
        result = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "stages:" in result.stdout
