"""What specvi loads, and when, each checked in a fresh interpreter.

scipy's LAPACK extension is loaded on the first Schur build of a
non-symmetric P and nowhere else (a symmetric P's form needs no scipy),
without the scipy.linalg package, and with the shortest idle timeout for
the thread pool of scipy's OpenBLAS; the lazily loaded numpy submodules
that a batch uses are imported with specvi, so no batch pays for them;
perfbench's tracing still finds every name it wraps. The last two tests
read the source instead: every module-level import of a specvi module is
used, or marked as kept with "# noqa: F401", and the package's public
names are pinned, so a change to them shows in the diff.
"""

import ast
import glob
import json
import os
import subprocess
import sys
import textwrap

import pytest

import specvi

SRC = os.path.dirname(os.path.dirname(os.path.abspath(specvi.__file__)))


PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

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


def test_schur_bases_of_a_symmetric_walk_load_no_scipy(tmp_path):
    cfg = write_config(
        tmp_path,
        "check",
        mdp_source={"generator": "symmetric_walk", "n": 30, "self_loop": 0.2},
        K_list=[3, 8],
        alpha_list=[0.9],
        basis_strategy="schur_dominant",
    )
    out = run_fresh(
        f"""
        import sys
        from specvi import cli
        assert cli.main(["check-compression", "--config", {cfg!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert out.splitlines()[-1] == "[]"


def schur_build_then(*lines):
    """Code that builds one schur_dominant basis of a non-symmetric P, then runs lines."""
    return "\n".join(
        [
            "import sys",
            "import numpy as np",
            "from specvi import build_basis, induce_chain, spectral",
            "from specvi.mdp import Policy, make_random_mdp",
            "mdp = make_random_mdp(12, 2, seed=2)",  # K=3 cuts no complex pair
            "P = induce_chain(mdp, Policy(np.zeros(12, dtype=np.int64))).P",
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


KERNEL_LAYERS = ["kernels.affine_iteration", "kernels.power_max_norms"]


def test_perfbench_tracing_installs_and_traced_batches_run(tmp_path):
    configs = {
        "evaluate": dict(
            mdp_source={"generator": "random", "n": 12, "m": 2},
            K_list=[3],
            alpha_list=[0.9],
            basis_strategy="random_orthonormal",
        ),
        "prop-suite": dict(
            mdp_source={"generator": "symmetric_walk", "n": 12, "self_loop": 0.2},
            K_list=[4],
            alpha_list=[0.9],
        ),
    }
    commands = [
        [command, "--config", write_config(tmp_path, command, **fields)]
        for command, fields in configs.items()
    ]
    out = run_fresh(
        f"""
        import sys
        sys.path.insert(0, {PERFBENCH!r})
        import json
        import tracing
        import specvi.cli
        tracer = tracing.Tracer()
        tracing.install(tracer)
        print([specvi.cli.main(argv) for argv in {commands!r}])
        print(tracer.totals["harness"]["calls"])
        print(json.dumps([tracer.totals[name] for name in {KERNEL_LAYERS!r}]))
        """
    )
    lines = out.splitlines()
    assert lines[-3:-1] == ["[0, 0]", "2"]
    # the counters perfbench reads off each kernel's result
    affine, scan = json.loads(lines[-1])
    records = [
        rec
        for command in configs
        for rec in json.loads((tmp_path / command / "report.json").read_text())["records"]
    ]
    # one K and one alpha: no record shares its exact run with another
    steps = sum(rec.get("k_final", 0) + rec.get("exact_k_final", 0) for rec in records)
    assert affine["steps"] == steps
    (vanishing,) = [rec for rec in records if "vanish_first_k" in rec]
    assert vanishing["power_vanishes"]
    assert scan["products"] == vanishing["vanish_first_k"] - 1


# Records the OpenBLAS timeout each scipy extension module is created
# (dlopened) under, then builds a schur_dominant basis of a non-symmetric P
# at n=300, where threaded BLAS runs, and measures the CPU time of a 0.3 s
# sleep after it.
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
    from specvi.mdp import Policy, make_random_mdp

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

    mdp = make_random_mdp(300, 2, seed=1)  # K=10 cuts no complex pair
    P = induce_chain(mdp, Policy(np.zeros(300, dtype=np.int64))).P
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

    def chain(mdp):
        return induce_chain(mdp, Policy(np.zeros(300, dtype=np.int64))).P.entries

    # a walk reweighted into a reversible chain: a real spectrum, but not
    # symmetric, so its form comes from gees and trexc
    d = np.random.default_rng(300).uniform(0.5, 2.0, 300)
    W = d[:, None] * chain(make_symmetric_walk(300, 0.2, seed=300)) * d[None, :]
    for P in (W / W.sum(axis=1, keepdims=True), chain(make_random_mdp(300, 2, seed=300))):
        schur = spectral._SchurSort(P)
        schur.sort_to(300)
        print(hashlib.sha256(schur.Z.tobytes()).hexdigest())
"""


def test_schur_vectors_do_not_depend_on_how_the_extension_was_loaded():
    through_loader = run_fresh(SCHUR_HASHES)
    through_package = run_fresh("import scipy.linalg\n" + textwrap.dedent(SCHUR_HASHES))
    assert len(through_loader.split()) == 2
    assert through_loader == through_package


def unused_imports(path):
    """(line, name) of each module-level import whose bound name the module
    never reads, unless the alias's own line carries "# noqa: F401"."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for alias in stmt.names:
            # "import a.b" binds a; "from m import a as b" binds b
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_every_module_level_import_is_used():
    package = os.path.dirname(os.path.abspath(specvi.__file__))
    modules = sorted(glob.glob(os.path.join(package, "*.py")))
    found = {
        os.path.basename(path): unused_imports(path)
        for path in modules
        if os.path.basename(path) != "__init__.py"
    }
    assert found
    assert {module: names for module, names in found.items() if names} == {}


def test_public_names_are_pinned():
    # sorted, as dir() lists them, with the submodules the imports bind
    assert specvi.__all__ == [
        "ApproximationError",
        "CompressedOperator",
        "ConfigError",
        "DimensionMismatchError",
        "EigenFailureError",
        "EvaluationResult",
        "ExperimentConfig",
        "ExperimentReport",
        "InducedChain",
        "InsufficientTraceError",
        "InvalidActionIndexError",
        "InvalidDimensionError",
        "InvalidKError",
        "InvalidParameterError",
        "MatrixTooLargeError",
        "Mdp",
        "NegativeEntryError",
        "NonSquareError",
        "OrthonormalBasis",
        "ParseError",
        "Policy",
        "PowerOverflowError",
        "RowSumViolationError",
        "RunStatus",
        "SingularSystemError",
        "SpecviError",
        "SplitConjugatePairError",
        "StochasticMatrix",
        "ZeroResidualError",
        "approximation_error",
        "as_discount",
        "build_basis",
        "compress",
        "direct_solve",
        "emit_trace_csv",
        "errors",
        "evaluation",
        "exact_vi",
        "gelfand_finals",
        "gelfand_sequence",
        "harness",
        "induce_chain",
        "inf_norm",
        "kernels",
        "make_random_mdp",
        "make_symmetric_walk",
        "mdp",
        "power_vanishing_check",
        "projected_vi",
        "rate_estimate",
        "read_matrix",
        "read_mdp",
        "read_trace_csv",
        "reconstruct",
        "run_experiment",
        "series_eval",
        "spectral",
        "spectral_radius",
        "two_norm",
        "write_matrix",
        "write_mdp",
    ]
