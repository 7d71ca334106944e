"""Self-test of the correctness gate: perturbed reports must be caught.

    python3 perfbench/selftest.py

Takes the committed vi-random150 reference for seed 0, applies one
perturbation at a time and checks that gate.compare and
gate.check_structure flag exactly the perturbations that matter. Needs
no specvi run; exits 1 if any check fails.
"""

import copy
import json
import os
import shutil
import sys

import gate
import run


def perturbations(ref):
    """(description, mutate(reduction), must_be_caught)."""

    def record(kind, status):
        return next(r for r in ref[kind]["records"] if r["status"] == status)["id"]

    def edit(kind, rec_id, key, fn):
        def mutate(red):
            rec = next(r for r in red[kind]["records"] if r["id"] == rec_id)
            rec[key] = fn(rec[key])
        return mutate

    converged = record("evaluate", "converged")
    errored = record("compare_rates", "error")

    def drop_record(red):
        red["evaluate"]["records"].pop()

    def finding_kind(red):
        red["evaluate"]["findings"].append({"record": converged, "kind": "diverged", "detail": {}})

    def csv_rows(red):
        name = sorted(red["evaluate"]["csv_rows"])[0]
        red["evaluate"]["csv_rows"][name] += 1

    return [
        ("status changed", edit("evaluate", converged, "status", lambda s: "max_iter"), True),
        ("error type changed", edit("compare_rates", errored, "error_type", lambda s: "ZeroResidualError"), True),
        ("float off by 1e-4 relative", edit("evaluate", converged, "approx_err_inf", lambda x: x * (1 + 1e-4)), True),
        ("k_final off by one", edit("evaluate", converged, "k_final", lambda k: k + 1), True),
        ("record dropped", drop_record, True),
        ("finding added", finding_kind, True),
        ("trace CSV one row longer", csv_rows, True),
        ("float off by 1e-9 relative", edit("evaluate", converged, "approx_err_inf", lambda x: x * (1 + 1e-9)), False),
    ]


def round_trip(ref_kind, work_dir):
    """Write a reduction back out as report.json (with created_at) and reduce it again."""
    os.makedirs(work_dir)
    report = {k: v for k, v in ref_kind.items() if k != "csv_rows"}
    report["created_at"] = "2000-01-01T00:00:00+00:00"
    with open(os.path.join(work_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    for name, rows in ref_kind["csv_rows"].items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            fh.write("k,residual_inf,residual_2\n" + "".join(f"{k + 1},0,0\n" for k in range(rows)))
    return gate.reduce_report(work_dir)


def main():
    workload = run.load_workloads()["vi-random150"]
    ref = gate.load_references("vi-random150").get("0")
    if ref is None:
        sys.exit("error: no committed vi-random150 reference for seed 0")
    failures = []

    def caught(red):
        found = []
        for kind in workload["kinds"]:
            found += gate.compare(ref[kind], red[kind], kind)
            found += gate.check_structure(kind, dict(workload["config"], seed=0), red[kind])
        return found

    if caught(copy.deepcopy(ref)):
        failures.append("an unchanged reference does not pass")
    for name, mutate, must_catch in perturbations(ref):
        red = copy.deepcopy(ref)
        mutate(red)
        found = caught(red)
        ok = bool(found) == must_catch
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {'caught' if found else 'accepted'}"
              + (f" ({found[0]})" if found else ""))
        if not ok:
            failures.append(name)

    work_dir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    try:
        red = {kind: round_trip(ref[kind], os.path.join(work_dir, kind)) for kind in workload["kinds"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ok = not caught(red)
    print(f"{'PASS' if ok else 'FAIL'}  created_at and config are ignored after a round trip")
    if not ok:
        failures.append("round trip")

    if failures:
        sys.exit(f"gate self-test failed: {failures}")
    print("gate self-test passed")


if __name__ == "__main__":
    main()
