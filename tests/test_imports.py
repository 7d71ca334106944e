"""What specvi loads, and when, each checked in a fresh interpreter.

scipy's LAPACK extension is loaded on the first Schur build and nowhere
else, without the scipy.linalg package; numpy's lazily loaded submodules
are imported with specvi, so no batch pays for them.
"""

import json
import os
import subprocess
import sys
import textwrap

import specvi

SRC = os.path.dirname(os.path.dirname(os.path.abspath(specvi.__file__)))


def run_fresh(code):
    """Run code in a new interpreter that imports specvi from this tree; return stdout."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_config(tmp_path, name, **fields):
    path = tmp_path / f"{name}.json"
    fields.setdefault("output_dir", str(tmp_path / name))
    path.write_text(json.dumps(dict(fields, seed=0)))
    return str(path)


def test_import_and_random_basis_evaluate_load_no_scipy(tmp_path):
    cfg = write_config(
        tmp_path,
        "evaluate",
        mdp_source={"generator": "random", "n": 12, "m": 2},
        K_list=[3],
        alpha_list=[0.9],
        basis_strategy="random_orthonormal",
    )
    out = run_fresh(
        f"""
        import sys
        import specvi
        assert not [m for m in sys.modules if m.startswith("scipy")]
        from specvi import cli
        assert cli.main(["evaluate", "--config", {cfg!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert out.splitlines()[-1] == "[]"


def schur_build_then(*lines):
    """Code that builds one schur_dominant basis, then runs lines."""
    return "\n".join(
        [
            "import sys",
            "import numpy as np",
            "from specvi import build_basis, induce_chain, spectral",
            "from specvi.mdp import Policy, make_symmetric_walk",
            "walk = make_symmetric_walk(12, 0.2, seed=1)",
            "P = induce_chain(walk, Policy(np.zeros(12, dtype=np.int64))).P",
            "build_basis(P, 3, 'schur_dominant')",
            *lines,
        ]
    )


def test_schur_basis_loads_only_the_lapack_extension():
    out = run_fresh(schur_build_then("print(sorted(m for m in sys.modules if 'scipy' in m))"))
    assert out.splitlines()[-1] == "['scipy.linalg._flapack']"


def test_later_scipy_linalg_import_reuses_the_loaded_extension():
    run_fresh(
        schur_build_then(
            "loaded = sys.modules['scipy.linalg._flapack']",
            "import scipy.linalg",
            "assert scipy.linalg.lapack._flapack is loaded",
            "assert scipy.linalg.lapack.dtrexc is loaded.dtrexc",
            "assert spectral._flapack() is loaded",
        )
    )


def test_earlier_scipy_linalg_import_is_reused():
    load_first = """
        import importlib.util
        import sys
        import scipy.linalg
        loaded = sys.modules["scipy.linalg._flapack"]
        def no_second_load(spec):
            raise AssertionError(f"{spec.name} was loaded a second time")
        importlib.util.module_from_spec = no_second_load
        """
    run_fresh(
        textwrap.dedent(load_first)
        + schur_build_then(
            "assert spectral._flapack() is loaded",
            "assert sys.modules['scipy.linalg._flapack'] is loaded",
        )
    )


def test_batches_import_no_numpy_module(tmp_path):
    configs = {
        "evaluate": dict(
            mdp_source={"generator": "random", "n": 12, "m": 2},
            K_list=[3],
            alpha_list=[0.9],
            basis_strategy="random_orthonormal",
            store_traces=True,
        ),
        "prop-suite": dict(
            mdp_source={"generator": "symmetric_walk", "n": 12, "self_loop": 0.2},
            K_list=[4],
            alpha_list=[0.9],
            basis_strategy="schur_dominant",
        ),
        "gelfand-study": dict(
            mdp_source={"generator": "random", "n": 12, "m": 2},
            K_list=[4],
            basis_strategy="random_orthonormal",
        ),
    }
    commands = [
        [command, "--config", write_config(tmp_path, command, **fields)]
        for command, fields in configs.items()
    ]
    out = run_fresh(
        f"""
        import sys
        import specvi.cli
        before = set(sys.modules)
        for argv in {commands!r}:
            assert specvi.cli.main(argv) == 0
        print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
        """
    )
    assert out.splitlines()[-1] == "[]"
