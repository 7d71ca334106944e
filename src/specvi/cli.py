"""Command-line entry point.

Subcommands: generate, evaluate, compare-rates, check-compression,
prop-suite, gelfand-study. Each takes --config <path> (JSON, see README
for the schema) plus flag overrides --seed and --out; the five run
subcommands also take --alpha, --k and --tol. Exit code 0 on a completed
batch (findings included), 1 on config or IO errors, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, SpecviError
from .harness import ExperimentConfig, run_experiment
from .mdp import write_mdp
from . import harness


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _apply_overrides(data: dict, args) -> dict:
    if args.alpha is not None:
        data["alpha_list"] = [args.alpha]
    if args.k is not None:
        data["K_list"] = [args.k]
    if args.tol is not None:
        data["tol"] = args.tol
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["output_dir"] = args.out
    return data


def _cmd_generate(args) -> int:
    data = _load_config(args.config)
    source = data.get("mdp_source")
    if source is None:
        raise SpecviError("generate needs an 'mdp_source' in the config")
    out = data.get("output_dir") if args.out is None else args.out
    if out is None:
        raise SpecviError("generate needs an output directory (--out or 'output_dir')")
    probe = ExperimentConfig(
        kind="evaluate",
        mdp_source=source,
        output_dir=out,
        seed=data.get("seed", 0) if args.seed is None else args.seed,
    )
    mdp, _ = harness._make_instance(probe, 0)
    write_mdp(mdp, out)
    print(f"wrote MDP (n={mdp.n}, m={mdp.m}) to {out}")
    return 0


def _make_run_command(kind):
    def run(args) -> int:
        data = _apply_overrides(_load_config(args.config), args)
        data["kind"] = kind
        config = ExperimentConfig.from_dict(data)
        report = run_experiment(config)
        print(
            f"{kind}: {len(report.records)} records, "
            f"{len(report.findings)} findings -> "
            f"{config.output_dir}/report.json"
        )
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specvi",
        description="Spectrally-projected value iteration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, help="override: base instance seed")
    shared.add_argument("--out", help="override: output directory")
    generate = sub.add_parser("generate", help="write a generated MDP directory", parents=[shared])
    generate.set_defaults(func=_cmd_generate)
    runs = [
        ("evaluate", "projected evaluation sweep", "evaluate"),
        ("compare-rates", "exact vs projected convergence rates", "compare_rates"),
        ("check-compression", "measure rho(U^T P U) vs rho(P)", "check_compression"),
        ("prop-suite", "run all proposition checks", "proposition_suite"),
        ("gelfand-study", "norm-sequence convergence study", "gelfand_study"),
    ]
    for name, help_text, kind in runs:
        p = sub.add_parser(name, help=help_text, parents=[shared])
        p.add_argument("--alpha", type=float, help="override: single discount factor")
        p.add_argument("--k", type=int, help="override: single subspace dimension")
        p.add_argument("--tol", type=float, help="override: stopping tolerance")
        p.set_defaults(func=_make_run_command(kind))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecviError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
