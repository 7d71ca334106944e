"""What specvi loads, and when, each checked in a fresh interpreter.

scipy's LAPACK extension is loaded on the first Schur build and nowhere
else, without the scipy.linalg package, and with the shortest idle timeout
for the thread pool of scipy's OpenBLAS; the lazily loaded numpy submodules
that a batch uses are imported with specvi, so no batch pays for them.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import specvi

SRC = os.path.dirname(os.path.dirname(os.path.abspath(specvi.__file__)))


TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def run_fresh(code, **env):
    """Run code in a new interpreter that imports specvi from this tree; return stdout.

    OPENBLAS_THREAD_TIMEOUT is taken out of the environment, and env is
    added to it.
    """
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    base = {k: v for k, v in os.environ.items() if k != TIMEOUT}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(base, PYTHONPATH=path, **env),
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


# Records the OpenBLAS timeout each scipy extension module is created
# (dlopened) under, then builds a schur_dominant basis at n=300, where
# threaded BLAS runs, and measures the CPU time of a 0.3 s sleep after it.
# FALLBACK makes the loader find no spec, so it takes the
# `from scipy.linalg import _flapack` route.
LOAD_AND_IDLE = """
    import importlib.machinery
    import json
    import os
    import resource
    import sys
    import time
    import numpy as np
    from specvi import build_basis, induce_chain, spectral
    from specvi.mdp import Policy, make_symmetric_walk

    seen = []
    loader = importlib.machinery.ExtensionFileLoader
    create = loader.create_module
    def recording_create(self, spec):
        if spec.name.startswith("scipy"):
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return create(self, spec)
    loader.create_module = recording_create
    if FALLBACK:
        finder = importlib.machinery.PathFinder
        find_spec = finder.find_spec
        def no_spec_once(name, path=None, target=None):
            if name != spectral._FLAPACK:
                return find_spec(name, path, target)
            finder.find_spec = find_spec
            return None
        finder.find_spec = no_spec_once

    walk = make_symmetric_walk(300, 0.2, seed=1)
    P = induce_chain(walk, Policy(np.zeros(300, dtype=np.int64))).P
    build_basis(P, 10, "schur_dominant")
    assert ("scipy.linalg" in sys.modules) == FALLBACK
    def cpu_s():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    start = cpu_s()
    time.sleep(0.3)
    idle_cpu_s = cpu_s() - start
    print(json.dumps({
        "seen": sorted(set(seen)),
        "after": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
        "idle_cpu_s": idle_cpu_s,
    }))
"""


def load_and_idle(fallback, **env):
    out = run_fresh(f"FALLBACK = {fallback}\n" + textwrap.dedent(LOAD_AND_IDLE), **env)
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("fallback", [False, True])
def test_scipy_blas_pool_loads_with_the_shortest_timeout_and_sleeps_when_idle(fallback):
    got = load_and_idle(fallback)
    assert got["seen"] == ["4"]
    assert got["after"] is None
    assert got["idle_cpu_s"] < 0.05


def test_a_preset_thread_timeout_is_left_as_it_is():
    got = load_and_idle(False, **{TIMEOUT: "28"})
    assert got["seen"] == ["28"]
    assert got["after"] == "28"


SCHUR_HASHES = """
    import hashlib
    import numpy as np
    from specvi import induce_chain, spectral
    from specvi.mdp import Policy, make_random_mdp, make_symmetric_walk

    for mdp in (make_symmetric_walk(300, 0.2, seed=300), make_random_mdp(300, 2, seed=300)):
        P = induce_chain(mdp, Policy(np.zeros(300, dtype=np.int64))).P
        schur = spectral._SchurSort(spectral.square_matrix(P))
        schur.sort_to(300)
        print(hashlib.sha256(schur.Z.tobytes()).hexdigest())
"""


def test_schur_vectors_do_not_depend_on_how_the_extension_was_loaded():
    through_loader = run_fresh(SCHUR_HASHES)
    through_package = run_fresh("import scipy.linalg\n" + textwrap.dedent(SCHUR_HASHES))
    assert len(through_loader.split()) == 2
    assert through_loader == through_package
