"""Capture the correctness gate's reference reports.

    python3 perfbench/capture.py [--workload NAME ...] [--seeds 0-31,101]

Run from the root of a checkout of the commit whose outputs are the
reference (the references in perfbench/references/ were captured at
the commit recorded in each file). For every workload and seed it runs
one batch exactly as run.py does and stores the reduced reports
(gate.reduce_report) in perfbench/references/<workload>.json. Seeds not
captured are still gated by gate.check_structure and by agreement with
the first batch of the run.
"""

import argparse
import json
import os
import shutil

import gate
import manifest
import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    workloads = run.load_workloads()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(workloads))
    parser.add_argument("--seeds", default="0-31,101")
    args = parser.parse_args()

    work_dir = os.path.join(run.OUT_DIR, f"capture-{os.getpid()}")
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    try:
        for name in args.workload or sorted(workloads):
            seeds = {}
            commit = None
            for seed in parse_seeds(args.seeds):
                batch_dir = os.path.relpath(os.path.join(work_dir, f"{name}-{seed}"), run.ROOT)
                batch, _ = run.spawn_batch(name, seed, False, batch_dir, float("inf"))
                bad = [k for k, v in batch["kinds"].items() if v["exit"] != 0]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: {bad} exited non-zero")
                seeds[str(seed)] = {k: gate.reduce_report(os.path.join(run.ROOT, batch_dir, k)) for k in batch["kinds"]}
                commit = batch["manifest"]["git_commit"]
                shutil.rmtree(os.path.join(run.ROOT, batch_dir))
                print(f"{name} seed {seed}: captured", flush=True)
            path = os.path.join(gate.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "commit": commit,
                           "source_sha256": manifest.source_digest(run.ROOT),
                           "seeds": seeds}, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
