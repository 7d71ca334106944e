"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Desk scale throughout (n <= 200); every tolerance is pinned here.
"""

import json

import numpy as np
import pytest

from specvi import kernels
from specvi.cli import main as cli_main
from specvi.evaluation import (
    RunStatus,
    direct_solve,
    exact_vi,
    projected_vi,
    rate_estimate,
    series_eval,
)
from specvi.harness import ExperimentConfig, emit_trace_csv, read_trace_csv, run_experiment
from specvi.mdp import (
    Policy,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
    read_mdp,
    read_matrix,
    write_matrix,
    write_mdp,
)
from specvi.spectral import (
    build_basis,
    compress,
    gelfand_sequence,
    power_vanishing_check,
    spectral_radius,
)


def _verdict(number, label, ok):
    print(f"\nACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def _chain_of(mdp):
    return induce_chain(mdp, Policy(np.zeros(mdp.n, dtype=np.int64)))


def _kernel_iterates(run, A, b, alpha, tol, max_iter):
    """The affine kernel's iterates v^(0)..v^(k_final) on the operands
    exact_vi / projected_vi pass it, or None if the public run did not
    return the kernel's v_fixed and k_final bit for bit."""
    v, _, _, k_final, _, iterates = kernels.affine_iteration(
        A, b, alpha, tol, max_iter, kernels.DIVERGENCE_GUARD, max_iter
    )
    if run.v_fixed.tobytes() != v.tobytes() or run.k_final != k_final:
        return None
    return iterates


def test_criterion_1_partial_sum_identity():
    """Projected iterate v~(k+1) equals the Horner partial sum through i=k."""
    rng = np.random.default_rng(101)
    ok = True
    for idx in range(50):
        n = int(rng.integers(5, 101))
        if idx % 2 == 0:
            mdp = make_random_mdp(n, 1, seed=idx)
            strategy = "random_orthonormal"
        else:
            mdp = make_symmetric_walk(max(n, 2), 0.2, seed=idx)
            strategy = "schur_dominant"
        chain = _chain_of(mdp)
        n = chain.n
        for K in sorted({1, max(1, n // 4), n}):
            for alpha in (0.3, 0.9, 0.99):
                U = build_basis(chain.P, K, strategy=strategy, seed=idx)
                op = compress(chain.P, U)
                res = projected_vi(chain, op, alpha, tol=1e-300, max_iter=51)
                b = U.U.T @ chain.c
                iterates = _kernel_iterates(res, op.A, b, alpha, 1e-300, 51)
                if iterates is None:
                    ok = False
                    continue
                k_last = res.k_final
                for k in range(51):
                    s = series_eval(op.A, b, alpha, k)
                    v = (
                        iterates[k + 1]
                        if k + 1 <= k_last
                        else res.v_fixed  # run froze at its exact fixed point
                    )
                    if np.abs(v - s).max() > 1e-12 * (1 + np.abs(v).max()):
                        ok = False
    _verdict(1, "partial-sum identity", ok)


def test_criterion_2_convergence_large_alpha_certified():
    """Certified symmetric-walk instances converge for alpha up to 0.99."""
    rng = np.random.default_rng(202)
    ok = True
    for idx in range(100):
        n = int(rng.integers(10, 61))
        chain = _chain_of(make_symmetric_walk(n, 0.2, seed=1000 + idx))
        K = max(1, n // 5)
        U = build_basis(chain.P, K, strategy="schur_dominant")
        op = compress(chain.P, U)
        b = U.U.T @ chain.c
        for alpha in (0.9, 0.95, 0.99):
            res = projected_vi(chain, op, alpha, tol=1e-10, max_iter=100000)
            if res.status is not RunStatus.CONVERGED:
                ok = False
                continue
            oracle = direct_solve(op.A, b, alpha)
            if np.abs(res.v_fixed - oracle).max() > 1e-8:
                ok = False
    _verdict(2, "convergence for large alpha", ok)


def test_criterion_3_full_dimension_reduction():
    """Coordinate basis at K=n reproduces exact VI step by step."""
    ok = True
    for idx in range(20):
        if idx % 2 == 0:
            mdp = make_random_mdp(5 + 2 * idx, 2, seed=3000 + idx)
        else:
            mdp = make_symmetric_walk(5 + 2 * idx, 0.2, seed=3000 + idx)
        chain = _chain_of(mdp)
        U = build_basis(chain.P, chain.n, strategy="coordinate")
        op = compress(chain.P, U)
        proj = projected_vi(chain, op, 0.9, tol=1e-10)
        exact = exact_vi(chain, 0.9, tol=1e-10)
        if proj.k_final != exact.k_final:
            ok = False
            continue
        proj_iterates = _kernel_iterates(proj, op.A, U.U.T @ chain.c, 0.9, 1e-10, 100000)
        exact_iterates = _kernel_iterates(exact, chain.P.entries, chain.c, 0.9, 1e-10, 100000)
        if proj_iterates is None or exact_iterates is None:
            ok = False
            continue
        if np.abs(proj_iterates - exact_iterates).max() > 1e-13:
            ok = False
    _verdict(3, "K=n reduction", ok)


def test_criterion_4_rate_equivalence():
    """Empirical tail rates match alpha*rho for both iterations (2%)."""
    ok = True
    alpha = 0.95
    for idx in range(10):
        chain = _chain_of(make_symmetric_walk(40, 0.2, seed=4000 + idx))
        rho_P = spectral_radius(chain.P)
        U = build_basis(chain.P, 8, strategy="schur_dominant")
        op = compress(chain.P, U)
        rho_A = spectral_radius(op.A)
        exact = exact_vi(chain, alpha, tol=1e-10)
        proj = projected_vi(chain, op, alpha, tol=1e-10)
        r_e = rate_estimate(exact, 20)
        r_p = rate_estimate(proj, 20)
        for rate, predicted in ((r_e, alpha * rho_P), (r_p, alpha * rho_A)):
            if abs(rate / predicted - 1.0) > 0.02:
                ok = False
    _verdict(4, "rate equivalence", ok)


def test_criterion_5_gelfand_convergence():
    """Both norm sequences reach rho by k=200; symmetric two-norm is exact."""
    rng = np.random.default_rng(500)
    ok = True
    for i in range(10):  # symmetric half
        n = int(rng.integers(10, 51))
        rho_t = 0.1 + 0.9 * i / 9
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = Q @ np.diag(rho_t * np.linspace(-1.0, 1.0, n)) @ Q.T
        M = (M + M.T) / 2
        rho = spectral_radius(M)
        seq2 = gelfand_sequence(M, 200, "two_norm")
        seqi = gelfand_sequence(M, 200, "inf_norm")
        tol = max(1e-6, 0.05 * rho)
        if abs(seq2[-1] - rho) > tol or abs(seqi[-1] - rho) > tol:
            ok = False
        # symmetric: the two-norm sequence equals rho at every k
        if np.abs(seq2 - rho).max() > 1e-10:
            ok = False
    for i in range(10):  # nonsymmetric half
        n = int(rng.integers(10, 31))
        rho_t = 0.15 + 0.85 * i / 9
        G = rng.standard_normal((n, n))
        M = G * (rho_t / spectral_radius(G))
        rho = spectral_radius(M)
        seq2 = gelfand_sequence(M, 200, "two_norm")
        seqi = gelfand_sequence(M, 200, "inf_norm")
        tol = max(1e-6, 0.05 * rho)
        if abs(seq2[-1] - rho) > tol or abs(seqi[-1] - rho) > tol:
            ok = False
    _verdict(5, "Gelfand convergence", ok)


def test_criterion_6_power_vanishing_tracks_rho():
    """A^k -> 0 exactly when rho < 1 (constructed spectra, both sides)."""
    rng = np.random.default_rng(600)
    ok = True
    for i in range(50):
        n = int(rng.integers(8, 25))
        if i % 2 == 0:
            rho_t = 0.2 + 0.75 * (i / 49)  # in [0.2, 0.95]
        else:
            rho_t = 1.05 + 0.95 * (i / 49)  # in [1.05, 2.0]
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.linspace(0.1, 1.0, n) * rho_t
        M = Q @ np.diag(eigs) @ Q.T
        vanishes, _, _ = power_vanishing_check(M, 10000, 1e-12)
        if vanishes != (rho_t < 1.0):
            ok = False
    _verdict(6, "power vanishing iff rho<1", ok)


def test_criterion_7_perron_sanity():
    """spectral_radius = 1 within 1e-10 on 100 random stochastic matrices."""
    rng = np.random.default_rng(700)
    ok = True
    for i in range(100):
        n = int(rng.integers(5, 101))
        M = rng.random((n, n))
        M /= M.sum(axis=1, keepdims=True)
        if abs(spectral_radius(M) - 1.0) > 1e-10:
            ok = False
    _verdict(7, "Perron sanity", ok)


def test_criterion_8_compression_radius_survey(tmp_path):
    """prop-suite over 200 instances, symmetric + nonsymmetric classes."""
    ok = True
    sym_cfg = ExperimentConfig(
        kind="proposition_suite",
        mdp_source={"generator": "symmetric_walk", "n": 30, "self_loop": 0.2},
        output_dir=str(tmp_path / "sym"),
        K_list=[5],
        alpha_list=[0.5, 0.9, 0.99],
        basis_strategy="schur_dominant",
        trials=100,
        seed=8000,
    )
    sym = run_experiment(sym_cfg)
    if sym.summary["diverged"] != 0 or sym.summary["errors"] != 0:
        ok = False
    for rec in sym.records:
        if rec.get("rho_A") is not None and rec["rho_A"] > 1.0 + 1e-10:
            ok = False
        if rec.get("identity_subcase") and rec["ratio"] != 1.0:
            ok = False

    nonsym_cfg = ExperimentConfig(
        kind="proposition_suite",
        mdp_source={"generator": "random", "n": 20, "m": 2},
        output_dir=str(tmp_path / "nonsym"),
        K_list=[5],
        alpha_list=[0.9],
        basis_strategy="random_orthonormal",
        trials=100,
        seed=9000,
    )
    nonsym = run_experiment(nonsym_cfg)
    if nonsym.summary["errors"] != 0:
        ok = False
    # measured distribution must be enumerated (findings-only, no pass/fail
    # on the values themselves)
    dist = nonsym.summary["ratio_distribution"]
    sweep = [r for r in nonsym.records if not r.get("identity_subcase")]
    if dist["count"] != 100 or len(sweep) != 100:
        ok = False
    if not all(r.get("ratio") is not None for r in sweep):
        ok = False
    if dist["quartiles"] is None or dist["min"] is None or dist["max"] is None:
        ok = False
    for rec in nonsym.records:
        if rec.get("identity_subcase") and rec["ratio"] != 1.0:
            ok = False
    _verdict(8, "compression-radius survey", ok)


def test_criterion_9_cli_io_round_trips(tmp_path):
    """Exact file round-trips, byte-identical reruns, CSV parse-back."""
    ok = True

    # matrix round-trip is exact
    rng = np.random.default_rng(900)
    M = rng.standard_normal((25, 25)) * np.exp(rng.uniform(-20, 20, (25, 25)))
    write_matrix(M, tmp_path / "m.mat")
    if np.abs(read_matrix(tmp_path / "m.mat") - M).max() != 0.0:
        ok = False

    # MDP directory round-trip is exact
    mdp = make_random_mdp(12, 3, seed=42)
    write_mdp(mdp, tmp_path / "mdp")
    back = read_mdp(tmp_path / "mdp")
    for Ta, Tb in zip(mdp.transitions, back.transitions):
        if np.abs(Ta.entries - Tb.entries).max() != 0.0:
            ok = False
    if np.abs(mdp.costs - back.costs).max() != 0.0:
        ok = False

    # rerunning a config (via the CLI) reproduces byte-identical records
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "mdp_source": {"path": str(tmp_path / "mdp")},
                "K_list": [3, 12],
                "alpha_list": [0.5, 0.9],
                "basis_strategy": "random_orthonormal",
                "trials": 2,
                "seed": 5,
            }
        )
    )
    code1 = cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
    code2 = cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
    if code1 != 0 or code2 != 0:
        ok = False
    d1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    d2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    if json.dumps(d1["records"], sort_keys=True) != json.dumps(d2["records"], sort_keys=True):
        ok = False
    # whole report body identical modulo the timestamp field
    d1.pop("created_at"), d2.pop("created_at")
    d1["config"].pop("output_dir"), d2["config"].pop("output_dir")
    if json.dumps(d1, sort_keys=True) != json.dumps(d2, sort_keys=True):
        ok = False

    # emitted CSV parses back to the in-memory residuals
    chain = _chain_of(make_symmetric_walk(15, 0.2, seed=7))
    res = exact_vi(chain, 0.9, tol=1e-10)
    emit_trace_csv(res, tmp_path / "trace.csv")
    inf, two = read_trace_csv(tmp_path / "trace.csv")
    if not (
        np.array_equal(inf, res.residuals_inf)
        and np.array_equal(two, res.residuals_2)
    ):
        ok = False
    _verdict(9, "CLI/IO round-trips", ok)
