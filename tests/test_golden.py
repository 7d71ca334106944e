"""Golden reports: each experiment kind reproduces its committed output.

Every case runs one small config (n <= 60) and compares the new
report.json with tests/golden/<kind>/report.json byte for byte, except
the values of created_at and config.output_dir, which differ between
reruns by design and are stored as "-". Every trace CSV is compared
byte for byte.

After a deliberate change of the report bytes, re-capture with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import re
import shutil
import sys
import tempfile

import pytest

from specvi.harness import ExperimentConfig, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RANDOM_40 = {"generator": "random", "n": 40, "m": 3}
WALK_60 = {"generator": "symmetric_walk", "n": 60, "self_loop": 0.2}

#: One config per kind. The random MDPs have complex eigenvalue pairs; K
#: in the schur_dominant cases avoids cutting one (seeds 0 and 1).
CASES = {
    "evaluate": dict(
        mdp_source=RANDOM_40,
        K_list=[3, 10],
        alpha_list=[0.5, 0.9],
        trials=2,
        basis_strategy="random_orthonormal",
        tol=1e-8,
    ),
    "compare_rates": dict(
        mdp_source={"generator": "symmetric_walk", "n": 30, "self_loop": 0.2},
        K_list=[4, 12],
        alpha_list=[0.9],
        basis_strategy="svd_top",
        tol=1e-8,
    ),
    "check_compression": dict(
        mdp_source=WALK_60,
        K_list=[5, 20],
        trials=2,
        basis_strategy="schur_dominant",
    ),
    "proposition_suite": dict(
        mdp_source={"generator": "random", "n": 40, "m": 2},
        K_list=[3, 5],
        alpha_list=[0.9, 0.99],
        trials=2,
        basis_strategy="schur_dominant",
        tol=1e-8,
        vanish_k_max=3000,
    ),
    "gelfand_study": dict(
        mdp_source={"generator": "random", "n": 30, "m": 2},
        K_list=[2, 6],
        trials=2,
        basis_strategy="random_orthonormal",
        gelfand_k_max=60,
    ),
}

_VOLATILE = re.compile(rb'^(\s*"(?:created_at|output_dir)": )"[^"\n]*"', re.M)


def _normalised(report: bytes) -> bytes:
    return _VOLATILE.sub(rb'\1"-"', report)


def _run(kind, out_dir):
    run_experiment(ExperimentConfig(kind=kind, output_dir=out_dir, **CASES[kind]))


@pytest.mark.parametrize("kind", sorted(CASES))
def test_output_matches_golden(tmp_path, kind):
    out = tmp_path / kind
    _run(kind, str(out))
    golden = os.path.join(GOLDEN, kind)
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(golden, name), "rb") as fh:
            want = fh.read()
        got = (out / name).read_bytes()
        if name == "report.json":
            want, got = _normalised(want), _normalised(got)
        assert got == want, f"{kind}/{name} differs from its golden copy"


def _capture():
    for kind in sorted(CASES):
        target = os.path.join(GOLDEN, kind)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, kind)
            _run(kind, out)
            report = os.path.join(out, "report.json")
            with open(report, "rb") as fh:
                data = _normalised(fh.read())
            with open(report, "wb") as fh:
                fh.write(data)
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
        print(f"captured {target}")


if __name__ == "__main__":
    sys.exit(_capture())
