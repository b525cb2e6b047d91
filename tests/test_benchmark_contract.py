"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
module attribute, and its workloads (perfbench/workloads.py) build pipeline
and regressor configs; a rename or a removed config key must fail here, not
only in a benchmark run."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import emoprop.cli
from emoprop.pipeline import config_from_dict
from test_pipeline import micro_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# reached only by the benchmark's own code, never by `emoprop all`
BENCHMARK_ONLY = {
    ("emoprop.graph", "parse_wordnet_file"),
    ("emoprop.embed", "load_embeddings"),
    ("emoprop.evaluate", "run_cv"),
}


def load_perfbench(name: str):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = load_perfbench("spans")
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in spans.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert spans.TARGETS
    assert missing == []


def test_traced_all_calls_every_target_at_its_own_call_site(tmp_path):
    """A traced `emoprop all` reaches each target through the module
    attribute the tracer replaces: a function captured at import (say, in a
    table) would bypass the wrapper, and a span of the same name from
    another call site would hide that."""
    spans = load_perfbench("spans")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(micro_config(tmp_path / "out")), encoding="utf-8")
    calls = Counter()

    def counted(target, fn):
        def wrapper(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)

        return wrapper

    tracer = spans.Tracer()
    stdout = io.StringIO()
    with tracer.installed(), pytest.MonkeyPatch.context() as mp:
        for target in spans.TARGETS:
            module = importlib.import_module(target[0])
            mp.setattr(module, target[1], counted(target, getattr(module, target[1])))
        with contextlib.redirect_stdout(stdout):
            assert emoprop.cli.main(["all", "--config", str(config)]) == 0

    uncalled = [t for t in spans.TARGETS if t not in BENCHMARK_ONLY and not calls[t]]
    assert uncalled == []
    stages = [line.split(":")[0] for line in stdout.getvalue().splitlines()]
    tagged = [s["tags"] for s in tracer.spans if s["name"] == "pipeline.run_stage"]
    assert [(t["stage"], t["cached"]) for t in tagged] == [(s, False) for s in stages]
    assert len(stages) == 6
    steps = sum(s["name"] == "mlp.loss_and_grads" for s in tracer.spans)
    assert steps == spans.expected_steps(tracer.spans) > 0


def test_every_workload_config_parses():
    """The pipeline configs the workloads write parse, and the regressor
    configs they build construct and chain their layers."""
    workloads = load_perfbench("workloads")
    docs = [
        workloads.AllBase(1).pipeline_config(None),
        workloads.SparseSeedSubword(1).pipeline_config(Path("graph.jsonl")),
        {"seed": 1, **workloads.CvDeep.config},
    ]
    for doc in docs:
        config_from_dict(doc)
    for workload in workloads.WORKLOADS.values():
        assert workload(1).mlp_config().layer_dims()
