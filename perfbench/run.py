"""specvi benchmark: the five experiment kinds end to end, and layer by layer.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout. The load is a closed loop with one
client: each batch (the workload's kinds, run one after the other
through specvi.cli.main) runs to completion in a fresh interpreter
before the next one starts, until T seconds are used up, with at least
MIN_BATCHES batches. BLAS pools are capped at nproc threads. Every
batch's reports go through the correctness gate (gate.py).

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced batches and reports the per-layer
metrics; trace.overhead_s is the traced minus the untraced median
batch_s. A table goes to stdout, the full result (manifest, every
sample, the spans of one traced batch) to
.perfbench-out/result-<workload>-seed<S>-trace<0|1>.json, and the last
stdout line is the JSON summary:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import manifest
from batch import CLI_COMMANDS, kind_config, load_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: Where every batch of a run writes, relative to ROOT. The reports echo
#: this path in their config, so it is the same for every batch and every
#: checkout; otherwise harness.report_write.bytes would depend on both.
BATCH_DIR = os.path.join(".perfbench-out", "batch")

MIN_BATCHES = {False: 3, True: 4}
#: A batch still running this long after the measuring window is killed.
BATCH_GRACE_S = 100.0

#: (name, unit, how a run's batches are summarised). batch_s is the fastest
#: batch: on a shared host a noisy neighbour only ever adds time, and it
#: slows whole stretches of tens of seconds by up to 1.8x, which moves a
#: median across batches by far more than the fastest batch.
END_TO_END = (("setup_s", "s", statistics.median), ("batch_s", "s", min),
              ("peak_rss_mb", "MB", statistics.median))
FIELD_UNITS = {"calls": "count", "steps": "count", "products": "count", "failed": "count",
               "flops": "flop", "bytes": "bytes", "useful_ratio": "ratio", "self_s": "s"}
LAYERS = (
    ("kernels.affine_iteration", ("calls", "steps", "flops", "self_s")),
    ("kernels.power_max_norms", ("calls", "products", "self_s")),
    ("spectral.build_basis", ("calls", "useful_ratio", "self_s")),
    ("spectral.spectral_radius", ("calls", "useful_ratio", "self_s")),
    ("spectral.compress", ("calls", "useful_ratio", "self_s")),
    ("spectral.gelfand_sequence", ("self_s",)),
    ("spectral.two_norm", ("calls", "self_s")),
    ("evaluation.exact_vi", ("calls", "useful_ratio", "self_s")),
    ("evaluation.projected_vi", ("calls", "self_s")),
    ("evaluation.direct_solve", ("calls", "self_s")),
    ("evaluation.rate_estimate", ("calls", "failed")),
    ("mdp.generate", ("self_s",)),
    ("mdp.induce_chain", ("self_s",)),
    ("harness.emit_trace_csv", ("calls", "bytes", "self_s")),
    ("harness.report_write", ("bytes", "self_s")),
    ("harness", ("self_s",)),
)


class BatchFailed(Exception):
    pass


def spawn_batch(workload, seed, traced, batch_dir, deadline):
    """Run batch.py to completion; return (batch.json contents, peak RSS in MB).

    batch_dir is relative to ROOT, the batch's working directory."""
    os.makedirs(os.path.join(ROOT, batch_dir))
    env = dict(os.environ, **manifest.blas_thread_env())
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "batch.py"), "--workload", workload,
           "--seed", str(seed), "--out", batch_dir] + (["--trace"] if traced else [])
    log_path = os.path.join(ROOT, batch_dir, "log.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        # wait4 on this one child gives its own peak RSS
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise BatchFailed("batch timed out and was killed")
                time.sleep(0.005)
        except BaseException:  # timeout or interrupt: leave no child behind
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BatchFailed(f"batch exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(ROOT, batch_dir, "batch.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def check_batch(workload, seed, batch_dir, batch, reference):
    """Gate every kind of one batch; returns (reductions, problems, failed kinds)."""
    reductions, problems, failed = {}, [], set()
    for kind in workload["kinds"]:
        if batch["kinds"][kind]["exit"] != 0:
            problems.append(f"{kind}: CLI exited with {batch['kinds'][kind]['exit']}")
            failed.add(kind)
            continue
        config = kind_config(workload, kind, seed, batch_dir)
        try:
            reduced = gate.reduce_report(os.path.join(ROOT, batch_dir, kind))
        except (OSError, ValueError) as exc:
            problems.append(f"{kind}: unreadable output: {exc}")
            failed.add(kind)
            continue
        reductions[kind] = reduced
        found = gate.check_structure(kind, config, reduced)
        if reference is not None:
            found += gate.compare(reference[kind], reduced, kind)
        if found:
            problems += found
            failed.add(kind)
    return reductions, problems, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_value(layers, name, field):
    row = layers.get(name, {})
    if field == "useful_ratio":
        return row["distinct"] / row["calls"] if row.get("calls") else 0.0
    return row.get(field, 0)


def layer_base(layers, name, field):
    row = layers.get(name, {})
    if field == "useful_ratio":
        return f"{row.get('distinct', 0)} distinct / {row.get('calls', 0)} calls"
    if field == "flops":
        return "computed as 2*K^2*steps"
    return ""


def print_row(name, unit, values, base=""):
    med = statistics.median(values)
    lo, hi = quartiles(values)
    print(f"  {name:36s} {med:14.6g} {unit:6s} q1 {lo:.6g}  q3 {hi:.6g}  "
          f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}  {base}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced_run = bool(args.trace)

    if not os.path.isfile(os.path.join(ROOT, "src", "specvi", "__init__.py")):
        sys.exit(f"error: no specvi sources under {os.path.join(ROOT, 'src')}")
    workloads = load_workloads()
    if args.workload not in workloads:
        sys.exit(f"error: unknown workload {args.workload!r}; choose one of {sorted(workloads)}")
    if args.seed < 0:
        sys.exit("error: --seed must be >= 0")
    workload = workloads[args.workload]
    reference = gate.load_references(args.workload).get(str(args.seed))
    reference_source = "committed (seed commit)" if reference else "first batch of this run"

    batch_path = os.path.join(ROOT, BATCH_DIR)
    shutil.rmtree(batch_path, ignore_errors=True)
    samples, problems = [], []
    attempted = failed = 0
    machine = trace = None
    start = time.monotonic()
    deadline = start + args.seconds + BATCH_GRACE_S
    try:
        while True:
            elapsed = time.monotonic() - start
            walls = [s["wall_s"] for s in samples]
            if len(samples) >= MIN_BATCHES[traced_run] and elapsed + statistics.median(walls) > args.seconds:
                break
            traced = traced_run and len(samples) % 2 == 1
            attempted += len(workload["kinds"])
            began = time.monotonic()
            try:
                batch, rss = spawn_batch(args.workload, args.seed, traced, BATCH_DIR, deadline)
            except BatchFailed as exc:
                problems.append(str(exc))
                failed += len(workload["kinds"])
                break
            reductions, found, bad_kinds = check_batch(workload, args.seed, BATCH_DIR, batch, reference)
            failed += len(bad_kinds)
            problems += found
            if reference is None and not bad_kinds:
                reference = reductions
            errors = [gate.error_count(k, workload["config"], reductions.get(k)) for k in workload["kinds"]]
            samples.append({
                "traced": traced,
                "wall_s": time.monotonic() - began,
                "setup_s": batch["setup_s"],
                "batch_s": batch["batch_s"],
                "peak_rss_mb": rss,
                "kinds": {k: v["seconds"] for k, v in batch["kinds"].items()},
                "errors": [sum(e[0] for e in errors), sum(e[1] for e in errors)],
                "layers": batch.get("layers"),
            })
            machine = machine or batch["manifest"]
            if traced:
                trace = {"trace_id": f"{args.workload}-seed{args.seed}-batch{len(samples) - 1}",
                         "spans": batch["spans"]}
            shutil.rmtree(batch_path)
            if problems:
                break
    finally:
        shutil.rmtree(batch_path, ignore_errors=True)
    if not samples or (traced_run and not any(s["traced"] for s in samples)):
        print("\n".join(problems), file=sys.stderr)
        sys.exit("error: no batch of the needed kind completed")

    untraced = [s for s in samples if not s["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  batches {len(samples)}  "
          f"(closed loop, 1 client, fresh process per batch)")
    print("manifest " + json.dumps(machine, sort_keys=True))
    print(f"reference: {reference_source}; floats within {gate.ABS_TOL:g} + {gate.REL_TOL:g}*|ref|")
    bad, planned = samples[0]["errors"]
    metrics = {}
    if not traced_run:
        print("end-to-end (tracing off)")
        for name, unit, summarise in END_TO_END:
            values = [s[name] for s in untraced]
            print_row(f"{name} ({summarise.__name__})", unit, values)
            metrics[name] = {"value": summarise(values), "unit": unit}
        for kind in workload["kinds"]:
            print_row(f"{kind}_s", "s", [s["kinds"][kind] for s in untraced])
    else:
        traced = [s for s in samples if s["traced"]]
        first = traced[0]["layers"]
        for s in traced[1:]:
            for name, fields in LAYERS:
                for field in fields:
                    if field != "self_s" and layer_value(s["layers"], name, field) != layer_value(first, name, field):
                        problems.append(f"{name}.{field} differs between traced batches")
        print("per layer (traced batches; counts from the first, times are medians)")
        for name, fields in LAYERS:
            for field in fields:
                key = f"{name}.{field}"
                values = [layer_value(s["layers"], name, field) for s in traced]
                value = statistics.median(values) if field == "self_s" else values[0]
                print_row(key, FIELD_UNITS[field], values, layer_base(first, name, field))
                metrics[key] = {"value": value, "unit": FIELD_UNITS[field]}
        for kind in CLI_COMMANDS:
            values = [s["kinds"].get(kind, 0.0) for s in untraced]
            print_row(f"{kind}_s", "s", values, "untraced")
            metrics[f"{kind}_s"] = {"value": statistics.median(values), "unit": "s"}
        metrics["error_share"] = {"value": bad / planned, "unit": "ratio"}
        on = statistics.median(s["batch_s"] for s in traced)
        off = statistics.median(s["batch_s"] for s in untraced)
        metrics["trace.overhead_s"] = {"value": on - off, "unit": "s"}
        print(f"  {'trace.overhead_s':36s} {on - off:14.6g} s      base: traced batch_s {on:.6g} - untraced {off:.6g}")

    print(f"  {'error_share':36s} {bad / planned:14.6g} ratio  base: {bad} error or unwritten / {planned} planned records")
    for problem in problems:
        print(f"MISMATCH {problem}")
    correct = not problems and failed == 0
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "manifest": machine, "reference": reference_source, "correct": correct,
                   "problems": problems, "metrics": metrics, "samples": samples,
                   "trace": trace}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
