"""Command-line entry point.

Subcommands: generate, evaluate, compare-rates, check-compression,
prop-suite, gelfand-study. Each takes --config <path> (JSON, see README
for the schema) plus flag overrides --alpha, --k, --tol, --seed, --out.
Exit code 0 on a completed batch (findings included), 1 on config or IO
errors.
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
    data = _apply_overrides(_load_config(args.config), args)
    source = data.get("mdp_source")
    if source is None:
        raise SpecviError("generate needs an 'mdp_source' in the config")
    out = data.get("output_dir")
    if out is None:
        raise SpecviError("generate needs an output directory (--out or 'output_dir')")
    probe = ExperimentConfig(
        kind="evaluate",
        mdp_source=source,
        output_dir=out,
        seed=data.get("seed", 0),
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
    commands = [
        ("generate", "write a generated MDP directory", _cmd_generate),
        ("evaluate", "projected evaluation sweep", _make_run_command("evaluate")),
        ("compare-rates", "exact vs projected convergence rates", _make_run_command("compare_rates")),
        ("check-compression", "measure rho(U^T P U) vs rho(P)", _make_run_command("check_compression")),
        ("prop-suite", "run all proposition checks", _make_run_command("proposition_suite")),
        ("gelfand-study", "norm-sequence convergence study", _make_run_command("gelfand_study")),
    ]
    for name, help_text, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--alpha", type=float, help="override: single discount factor")
        p.add_argument("--k", type=int, help="override: single subspace dimension")
        p.add_argument("--tol", type=float, help="override: stopping tolerance")
        p.add_argument("--seed", type=int, help="override: base instance seed")
        p.add_argument("--out", help="override: output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecviError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
