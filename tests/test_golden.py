"""Golden reports: each experiment kind reproduces its committed output.

Every case runs one small config (n <= 60) and compares the new
report.json with tests/golden/<case>/report.json byte for byte, except
the values of created_at and config.output_dir, which differ between
reruns by design and are stored as "-". Every trace CSV is compared
byte for byte.

After a deliberate change of the report bytes, re-capture the cases it
affects with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

or every case, with no argument. An unknown case name captures nothing
and exits with status 2.
"""

import os
import re
import shutil
import sys
import tempfile

import pytest

from specvi.harness import ExperimentConfig, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RANDOM_3 = {"generator": "random", "n": 3, "m": 1}
RANDOM_40 = {"generator": "random", "n": 40, "m": 3}
WALK_60 = {"generator": "symmetric_walk", "n": 60, "self_loop": 0.2}

#: One config per kind, named after the kind, then the error and finding
#: paths, named <kind>_<path>. The random MDPs have complex eigenvalue
#: pairs; K in the first schur_dominant cases avoids cutting one (seeds 0
#: and 1), and in the *_split cases cuts one on purpose.
CASES = {
    "evaluate": dict(
        kind="evaluate",
        mdp_source=RANDOM_40,
        K_list=[3, 10],
        alpha_list=[0.5, 0.9],
        trials=2,
        basis_strategy="random_orthonormal",
        tol=1e-8,
    ),
    "compare_rates": dict(
        kind="compare_rates",
        mdp_source={"generator": "symmetric_walk", "n": 30, "self_loop": 0.2},
        K_list=[4, 12],
        alpha_list=[0.9],
        basis_strategy="svd_top",
        tol=1e-8,
    ),
    "check_compression": dict(
        kind="check_compression",
        mdp_source=WALK_60,
        K_list=[5, 20],
        trials=2,
        basis_strategy="schur_dominant",
    ),
    "proposition_suite": dict(
        kind="proposition_suite",
        mdp_source={"generator": "random", "n": 40, "m": 2},
        K_list=[3, 5],
        alpha_list=[0.9, 0.99],
        trials=2,
        basis_strategy="schur_dominant",
        tol=1e-8,
        vanish_k_max=3000,
    ),
    "gelfand_study": dict(
        kind="gelfand_study",
        mdp_source={"generator": "random", "n": 30, "m": 2},
        K_list=[2, 6],
        trials=2,
        basis_strategy="random_orthonormal",
        gelfand_k_max=60,
    ),
    # converged, max_iter and diverged records; fixed-point-mismatch and
    # diverged findings
    "evaluate_statuses": dict(
        kind="evaluate",
        mdp_source=RANDOM_3,
        K_list=[1],
        alpha_list=[0.99],
        trials=10,
        basis_strategy="svd_top",
        tol=1e-8,
        max_iter=3000,
        store_traces=False,
    ),
    # every record is an InsufficientTraceError from rate_estimate
    "compare_rates_short_traces": dict(
        kind="compare_rates",
        mdp_source={"generator": "random", "n": 30, "m": 2},
        K_list=[3, 10],
        alpha_list=[0.1, 0.9],
        trials=2,
        basis_strategy="random_orthonormal",
        tol=1e-8,
        store_traces=False,
    ),
    "check_compression_split": dict(
        kind="check_compression",
        mdp_source=RANDOM_40,
        K_list=[3, 4],
        trials=2,
        basis_strategy="schur_dominant",
    ),
    # K=1 compresses to [[0]], so both finals are 0.0; the K>=2
    # compressions (rho 0.08-0.37) have powers far below 1
    "gelfand_study_edges": dict(
        kind="gelfand_study",
        mdp_source={"generator": "symmetric_walk", "n": 20, "self_loop": 0.0},
        K_list=[1, 2, 3, 5],
        trials=2,
        basis_strategy="coordinate",
        gelfand_k_max=400,
    ),
    "gelfand_study_split": dict(
        kind="gelfand_study",
        mdp_source=RANDOM_40,
        K_list=[3, 4],
        trials=2,
        basis_strategy="schur_dominant",
        gelfand_k_max=60,
    ),
    # every finding kind but identity-ratio-not-one
    "proposition_suite_findings": dict(
        kind="proposition_suite",
        mdp_source=RANDOM_3,
        K_list=[1],
        alpha_list=[0.9, 0.99],
        trials=10,
        basis_strategy="svd_top",
        tol=1e-8,
        max_iter=3000,
        vanish_k_max=500,
    ),
}

_VOLATILE = re.compile(rb'^(\s*"(?:created_at|output_dir)": )"[^"\n]*"', re.M)


def _normalised(report: bytes) -> bytes:
    return _VOLATILE.sub(rb'\1"-"', report)


def _run(case, out_dir):
    run_experiment(ExperimentConfig(output_dir=out_dir, **CASES[case]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(tmp_path, case):
    out = tmp_path / case
    _run(case, str(out))
    golden = os.path.join(GOLDEN, case)
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(golden, name), "rb") as fh:
            want = fh.read()
        got = (out / name).read_bytes()
        if name == "report.json":
            want, got = _normalised(want), _normalised(got)
        assert got == want, f"{case}/{name} differs from its golden copy"


def test_capture_takes_case_names(tmp_path, monkeypatch, capsys):
    with open(os.path.join(GOLDEN, "gelfand_study", "report.json"), "rb") as fh:
        want = fh.read()
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", str(tmp_path))
    assert _capture(["gelfand_study", "no_such_case"]) == 2
    assert "no_such_case" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert _capture(["gelfand_study"]) is None
    assert os.listdir(tmp_path) == ["gelfand_study"]
    assert (tmp_path / "gelfand_study" / "report.json").read_bytes() == want


def _capture(cases):
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        known = ", ".join(sorted(CASES))
        print(f"unknown case(s): {', '.join(unknown)}; known: {known}", file=sys.stderr)
        return 2
    for case in sorted(set(cases) or CASES):
        target = os.path.join(GOLDEN, case)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, case)
            _run(case, out)
            report = os.path.join(out, "report.json")
            with open(report, "rb") as fh:
                data = _normalised(fh.read())
            with open(report, "wb") as fh:
                fh.write(data)
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
        print(f"captured {target}")


if __name__ == "__main__":
    sys.exit(_capture(sys.argv[1:]))
