"""Command-line entry point: `emoprop <stage> --config cfg.json`."""

from __future__ import annotations

import argparse
import json
import sys
import textwrap

from .pipeline import ALL_HELP, ARTIFACTS, SECTIONS, STAGE_TABLE, STAGES, PipelineError
from .pipeline import parse_config, run, section_fields

_EPILOG = """\
config file (JSON; unknown keys are rejected, values must have their JSON
type: integers as integers, true/false for booleans):
  seed        required; the only entropy source, every stage derives its
              own sub-seed from it unless a section sets "seed" itself
  graph       path to an existing graph file (exclusive with "synth")
  out_dir     artifact directory (default "."; --out-dir overrides)
{sections}

stages:
{stages}
"""


def _rows(rows) -> str:
    """(name, text) rows: the text wrapped to 78 columns beside the name."""
    return "\n".join(
        textwrap.fill(text, 78, initial_indent=f"  {name:<12}", subsequent_indent=" " * 14)
        for name, text in rows
    )


def _section_help() -> str:
    """Each config section's keys with their defaults, read from its dataclass."""
    rows = []
    for name, (cls, _stage) in SECTIONS.items():
        keys = (
            f"{f.name}=derived" if f.name == "seed"
            else f"{f.name}={json.dumps(f.default, separators=(',', ':'))}"
            for f in section_fields(cls)
        )
        rows.append((name, ", ".join(keys)))
    return _rows(rows)


def _stage_help() -> str:
    """Each stage's help line and the files it writes, read from the stage table."""
    rows = [
        (name, f"{stage.help:<34} -> {', '.join(ARTIFACTS[a] for a in stage.outputs)}")
        for name, stage in STAGE_TABLE.items()
    ]
    return _rows([*rows, ("all", ALL_HELP)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoprop",
        description="Lexical-graph emotion propagation pipeline: random-walk "
        "embeddings, multilabel regression, cross-validated evaluation.",
        epilog=_EPILOG.format(sections=_section_help(), stages=_stage_help()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out-dir", help="override the config's artifact directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
