"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
module attribute; a rename must fail here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in spans.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert spans.TARGETS
    assert missing == []
