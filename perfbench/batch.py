"""Run one workload batch in a fresh interpreter and write its timings.

    python3 perfbench/batch.py --workload NAME --seed S --out DIR
        [--trace] [--spawned-at T]

Imports specvi from the checkout's src/, then runs each of the
workload's experiment kinds through the public CLI entry point
(specvi.cli.main), one after the other. DIR receives one output
directory per kind and batch.json with the setup time, per-kind wall
times and exit codes, the machine manifest and, with --trace, the
per-layer totals and every span.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: CLI subcommand of each experiment kind.
CLI_COMMANDS = {
    "evaluate": "evaluate",
    "compare_rates": "compare-rates",
    "check_compression": "check-compression",
    "proposition_suite": "prop-suite",
    "gelfand_study": "gelfand-study",
}


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def kind_config(workload, kind, seed, out_dir):
    """The experiment config one kind of a batch runs with."""
    return dict(workload["config"], seed=seed, output_dir=os.path.join(out_dir, kind))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=_STARTED,
        help="time.monotonic() just before the parent started this process",
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import specvi.cli

    ready = time.monotonic()
    pkg = os.path.dirname(os.path.abspath(specvi.__file__))
    if pkg != os.path.join(ROOT, "src", "specvi"):
        sys.exit(f"specvi was imported from {pkg}, not from this checkout's src/")

    workload = load_workloads()[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    kinds = {}
    batch_start = time.perf_counter()
    for kind in workload["kinds"]:
        config_path = os.path.join(args.out, f"{kind}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(kind_config(workload, kind, args.seed, args.out), fh)
        start = time.perf_counter()
        code = specvi.cli.main([CLI_COMMANDS[kind], "--config", config_path])
        kinds[kind] = {"exit": code, "seconds": time.perf_counter() - start}
    batch_s = time.perf_counter() - batch_start

    import manifest

    result = {
        "setup_s": ready - args.spawned_at,
        "batch_s": batch_s,
        "kinds": kinds,
        "manifest": manifest.collect(ROOT),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(os.path.join(args.out, "batch.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
