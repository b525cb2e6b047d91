"""Command-line entry point: `emoprop <stage> --config cfg.json`."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import textwrap

from .pipeline import SECTIONS, STAGES, PipelineError, parse_config, run, section_fields

_EPILOG = """\
config file (JSON; unknown keys are rejected, values must have their JSON
type: integers as integers, true/false for booleans):
  seed        required; the only entropy source, every stage derives its
              own sub-seed from it unless a section sets "seed" itself
  graph       path to an existing graph file (exclusive with "synth")
  out_dir     artifact directory (default "."; --out-dir overrides)
{sections}

stages:
  synth       generate a synthetic bilingual graph  -> graph.jsonl
  walk        self-avoiding random-walk corpus      -> corpus.txt
  embed       skip-gram embeddings of the corpus    -> embeddings.txt
  train       regressor on all annotated LUs        -> model.ckpt
  propagate   predict a masked fraction of LUs      -> propagation.jsonl
  evaluate    cross-validated metrics (eval.folds)  -> metrics.json/.txt
  all         every applicable stage in dependency order, skipping
              stages whose config and inputs are unchanged (content hash)

environment:
  EMOPROP_LOG sets the log level (DEBUG, INFO, WARNING, ERROR)
"""


def _section_help() -> str:
    """Each config section's keys with their defaults, read from its dataclass."""
    blocks = []
    for name, (cls, _stage) in SECTIONS.items():
        keys = ", ".join(
            f"{f.name}=derived" if f.name == "seed"
            else f"{f.name}={json.dumps(f.default, separators=(',', ':'))}"
            for f in section_fields(cls)
        )
        indent = f"  {name:<12}"
        blocks.append(
            textwrap.fill(keys, 78, initial_indent=indent, subsequent_indent=" " * 14)
        )
    return "\n".join(blocks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoprop",
        description="Lexical-graph emotion propagation pipeline: random-walk "
        "embeddings, multilabel regression, cross-validated evaluation.",
        epilog=_EPILOG.format(sections=_section_help()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out-dir", help="override the config's artifact directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=os.environ.get("EMOPROP_LOG", "WARNING").upper())
    try:
        cfg = parse_config(args.config)
        if args.out_dir is not None:
            cfg.out_dir = args.out_dir
        return run(args.stage, cfg)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
