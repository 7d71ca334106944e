"""Correctness gate: a batch's reports against references from the seed commit.

A report is reduced to everything but `created_at` and the config echo
(the config is the input, and its output_dir differs per run), plus the
row count of every trace CSV in the output directory. Two reductions
match when their keys, list lengths, strings (record ids, statuses,
error types and messages, finding kinds) and booleans are equal and
every number agrees within |a - b| <= ABS_TOL + REL_TOL * |b|. Small
integers such as k_final therefore have to be equal.

The planned record ids of each kind are derived from the config here,
independently of the harness, so records lost to an aborted batch count
against error_share and fail the gate.
"""

import json
import math
import os

REL_TOL = 1e-6
ABS_TOL = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")


def reduce_report(kind_dir):
    """The comparable part of one kind's output directory."""
    with open(os.path.join(kind_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("created_at", None)
    report.pop("config", None)
    csv_rows = {}
    for name in sorted(os.listdir(kind_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(kind_dir, name), encoding="utf-8") as fh:
                csv_rows[name] = sum(1 for _ in fh) - 1  # minus the header
    report["csv_rows"] = csv_rows
    return report


def compare(expected, actual, path="report"):
    """List of human-readable differences between two reductions."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            missing = sorted(set(expected) - set(actual))
            extra = sorted(set(actual) - set(expected))
            return [f"{path}: keys differ (missing {missing}, extra {extra})"]
        out = []
        for key in sorted(expected):
            out += compare(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)}, expected {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]")
        return out
    if _is_number(expected) and _is_number(actual):
        if _close(float(expected), float(actual)):
            return []
        return [f"{path}: {actual!r}, expected {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r}, expected {expected!r}"]
    return []


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(e, a):
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    if math.isinf(e) or math.isinf(a):
        return e == a
    return abs(a - e) <= ABS_TOL + REL_TOL * abs(e)


def planned_ids(kind, config):
    """Record ids the harness must write for one kind, in order."""
    ids = []
    for trial in range(config["trials"]):
        t = f"t{trial:04d}"
        if kind == "check_compression":
            ids += [f"{t}_K{K}" for K in config["K_list"]]
        elif kind == "gelfand_study":
            ids += [f"{t}_P"] + [f"{t}_A_K{K}" for K in config["K_list"]]
        else:
            if kind == "proposition_suite":
                ids.append(f"{t}_identity")
            ids += [f"{t}_K{K}_a{a:g}" for K in config["K_list"] for a in config["alpha_list"]]
    return ids


def error_count(kind, config, reduced):
    """(records with status "error" or never written, records planned)."""
    planned = planned_ids(kind, config)
    written = {r["id"]: r for r in reduced["records"]} if reduced else {}
    bad = sum(1 for rid in planned if written.get(rid, {"status": "error"})["status"] == "error")
    return bad, len(planned)


def check_structure(kind, config, reduced):
    """Checks that hold for every seed, reference or not."""
    out = []
    ids = [r.get("id") for r in reduced["records"]]
    if ids != planned_ids(kind, config):
        out.append(f"{kind}: record ids {ids} differ from the planned ones")
    for rec in reduced["records"]:
        if rec.get("status") == "error" and not rec.get("error_type"):
            out.append(f"{kind}: error record {rec.get('id')} has no error_type")
        # every transition matrix here is row-stochastic, so rho(P) = 1
        if "rho_P" in rec and abs(rec["rho_P"] - 1.0) > 1e-9:
            out.append(f"{kind}: record {rec['id']} has rho_P = {rec['rho_P']!r}, not 1")
        csv = rec.get("trace_csv")
        if csv and "k_final" in rec and reduced["csv_rows"].get(csv) != rec["k_final"]:
            out.append(f"{kind}: {csv} rows differ from k_final={rec['k_final']}")
    return out


def load_references(workload):
    """{seed (str): {kind: reduction}} captured at the seed commit, or {}."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]
