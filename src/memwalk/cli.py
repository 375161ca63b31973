"""Command line entry point.

Four subcommands: simulate (one spec), sweep (walk classes x seeds),
equivalence (oracle cross-checks), enumerate (coin-shift census).  Exit
codes: 0 success, 2 validation failure (a run over the size budget among
them), 3 coin-shift constraint violation, 4 numerical check failure or a
MemoryError the budget did not foresee.  All validation happens before any
file is written, and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConstraintViolationError, NumericalCheckError, ValidationError
from .experiments import (
    RANDOM_PARTITION_KINDS,
    WALK_CLASSES,
    ExperimentSpec,
    run_enumerate,
    run_equivalence,
    run_simulate,
    run_sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSTRAINT = 3
EXIT_NUMERICAL = 4


def _load_config(path: str | None) -> dict:
    """The JSON object in ``path``; an empty one when no config is given."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return doc


def _parse_seeds(text: str) -> list[int]:
    """The seeds of a comma-separated list; "" is no seeds.  An empty part,
    as in "1,,2" or ",3,", is malformed."""
    if text == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad seed list {text!r}: {exc}") from exc


def _spec(doc: dict, t_max: int | None) -> ExperimentSpec:
    """The spec ``doc`` states, with ``--t-max`` applied when given."""
    spec = ExperimentSpec.from_json_dict(doc)
    if t_max is not None:
        spec.t_max = t_max
        if spec.graph_family == "line":
            spec.window = None  # refit the line window to the new horizon
    return spec


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec(_load_config(args.config), args.t_max)
    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
        if len(seeds) != 1:
            raise ValidationError("simulate takes exactly one seed")
        # The seed reaches a walk only as a random partition's fallback seed.
        if spec.partition_seed is not None:
            raise ValidationError("--seeds has no effect: the config sets partition.seed")
        if spec.partition_kind not in RANDOM_PARTITION_KINDS:
            raise ValidationError(
                f"--seeds has no effect: partition kind {spec.partition_kind!r} draws no seed"
            )
        spec.seed = seeds[0]
    summary = run_simulate(spec, args.out)
    print(f"simulate: wrote {args.out}/summary.json (t_max={spec.t_max})")
    if "scaling_fit" in summary:
        print(f"simulate: scaling verdict {summary['scaling_fit']['verdict']}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_config(args.config)
    unknown = set(doc) - {"template", "classes", "seeds"}
    if unknown:
        raise ValidationError(f"unknown sweep config fields: {sorted(unknown)}")
    template = _spec(doc.get("template", {}), args.t_max)
    classes = doc.get("classes", list(WALK_CLASSES))
    seeds = doc.get("seeds", list(range(20)))
    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
    report = run_sweep(template, classes, seeds, args.out)
    for walk_class in classes:
        entry = report["classes"][walk_class]
        ratio = entry["variance_ratio"]
        ratio_text = "None" if ratio is None else f"{ratio:.3f}"
        print(
            f"sweep: {walk_class}: ratio={ratio_text}"
            f" ({entry['ratio_verdict']}), fit={entry['fit_verdict']}"
        )
    return EXIT_OK


def _cmd_equivalence(args: argparse.Namespace) -> int:
    report = run_equivalence(args.out, t_max=args.t_max)
    print(
        "equivalence: constraint residual"
        f" {report['constraint_residual_max']:.3e},"
        f" reconstruction diff {report['alpha_reconstruction_diff_max']:.3e}"
    )
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    report = run_enumerate(
        args.out, cycle_size=args.cycle_size, seeds=_parse_seeds(args.seeds), t_max=args.t_max
    )
    counts = report["gc_enumeration"]
    print(
        f"enumerate: {counts['count']} valid coin shifts on"
        f" {counts['host_vertices']} vertices"
        f" (expected {counts['expected_count']})"
    )
    if report["distinct_walks"]["seeds"]:
        print(
            f"enumerate: {report['distinct_walks']['n_classes']} distinct walks"
            f" across {len(report['distinct_walks']['seeds'])} seeds"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads: any other flag is a
    usage error (exit 2), raised before anything is written.

    Every subcommand default is declared here and nowhere else.  A
    subparser's set_defaults overrides a shared flag's default; without
    one, ``--t-max`` reads None, which simulate and sweep take as "keep the
    config's t_max".
    """
    parser = argparse.ArgumentParser(
        prog="memwalk",
        description="Coined quantum walks with memory on line graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": {"help": "JSON config path"},
        "--seeds": {"help": "comma-separated seed list"},
        "--t-max": {"type": int, "help": "number of steps"},
        "--cycle-size": {"type": int, "help": "base cycle size for the enumeration host"},
        "--out": {"default": "out", "help": "output directory"},
    }
    for name, func, help_text, names, defaults in (
        ("simulate", _cmd_simulate, "evolve one walk and write its statistics",
         "--config --seeds --t-max --out", {}),
        ("sweep", _cmd_sweep, "compare walk classes across seeds",
         "--config --seeds --t-max --out", {}),
        ("equivalence", _cmd_equivalence, "run the oracle cross-check pipeline",
         "--t-max --out", {"t_max": 100}),
        # No census seeds by default: "" parses to an empty seed list.
        ("enumerate", _cmd_enumerate, "count valid coin shifts and walk classes",
         "--seeds --t-max --cycle-size --out", {"seeds": "", "t_max": 30, "cycle_size": 3}),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in names.split():
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintViolationError as exc:
        print(f"error: coin-shift constraint violated: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalCheckError as exc:
        print(f"error: numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # an allocation the size budget did not foresee
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
