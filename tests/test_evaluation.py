import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from specvi import spectral
from specvi.errors import (
    DimensionMismatchError,
    InsufficientTraceError,
    InvalidParameterError,
    PowerOverflowError,
    SingularSystemError,
    ZeroResidualError,
)
from specvi.evaluation import (
    EvaluationResult,
    IterationTrace,
    RunStatus,
    approximation_error,
    direct_solve,
    exact_vi,
    projected_vi,
    rate_estimate,
    reconstruct,
    series_eval,
)
from specvi.mdp import (
    InducedChain,
    Policy,
    StochasticMatrix,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
)
from specvi.spectral import (
    CompressedOperator,
    OrthonormalBasis,
    build_basis,
    compress,
    gelfand_sequence,
    spectral_radius,
)


def walk_chain(n, seed, self_loop=0.2):
    mdp = make_symmetric_walk(n, self_loop, seed=seed)
    return induce_chain(mdp, Policy(np.zeros(n, dtype=int)))


def random_chain(n, seed, m=2):
    mdp = make_random_mdp(n, m, seed=seed)
    return induce_chain(mdp, Policy(np.zeros(n, dtype=int)))


def _trace(n, **kw):
    return IterationTrace(np.ones(n), np.ones(n), n, RunStatus.CONVERGED, **kw)


@pytest.mark.parametrize(
    "make, given",
    [
        (lambda a: OrthonormalBasis(a).U, np.eye(4)[:, :2].copy()),
        (lambda a: CompressedOperator(a, OrthonormalBasis(np.eye(3))).A, 0.5 * np.eye(3)),
        (lambda a: gelfand_sequence(a, 3), 0.5 * np.eye(3)),
        (lambda a: IterationTrace(a, np.ones(3), 3, RunStatus.CONVERGED).residuals_inf, np.ones(3)),
        (lambda a: IterationTrace(np.ones(3), a, 3, RunStatus.CONVERGED).residuals_2, np.ones(3)),
        (lambda a: _trace(1, iterates=a).iterates, np.ones((2, 3))),
        (lambda a: EvaluationResult(a, _trace(1)).v_fixed, np.ones(3)),
    ],
    ids=["basis", "compression", "gelfand", "residuals_inf", "residuals_2", "iterates", "v_fixed"],
)
def test_value_types_own_their_arrays(make, given):
    assert given.flags.writeable and given.flags.c_contiguous
    stored = make(given)
    assert given.flags.writeable
    assert not np.shares_memory(stored, given)
    assert not stored.flags.writeable and stored.flags.c_contiguous


class TestExactVi:
    def test_identity_chain(self):
        chain = InducedChain(StochasticMatrix(np.eye(3)), np.ones(3))
        res = exact_vi(chain, 0.9, tol=1e-10)
        assert res.trace.status is RunStatus.CONVERGED
        assert np.abs(res.v_fixed - 10.0).max() <= 10 * 1e-10

    def test_two_state_fixed_point(self):
        # V = c + alpha P V solved by hand: V = (4/3, 2/3)
        chain = InducedChain(
            StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])
        )
        res = exact_vi(chain, 0.5, tol=1e-14)
        assert_allclose(res.v_fixed, [4.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_alpha_zero_collapses(self):
        chain = random_chain(5, 0)
        res = exact_vi(chain, 0.0)
        assert_array_equal(res.v_fixed, chain.c)
        assert res.trace.k_final == 2  # one effective step + stop detection

    def test_max_iter_status(self):
        chain = random_chain(4, 1)
        res = exact_vi(chain, 0.99, tol=1e-300, max_iter=25)
        assert res.trace.status is RunStatus.MAX_ITER
        assert res.trace.k_final == 25

    def test_geometric_residual_decay(self):
        # ||P||_inf = 1 forces residual ratios <= alpha
        chain = random_chain(10, 2)
        res = exact_vi(chain, 0.9, tol=1e-10, max_iter=10000)
        r = res.trace.residuals_inf
        ratios = r[1:20] / r[:19]
        assert np.all(ratios <= 0.9 + 1e-12)

    def test_fortran_order_chain_has_the_bytes_of_c_order(self):
        # the kernel takes chain.P.entries as it is; np.dot rounds a
        # Fortran-order matrix differently, so the chain stores C order
        chain = random_chain(40, 3)
        fortran = InducedChain(StochasticMatrix(np.asfortranarray(chain.P.entries)), chain.c)
        assert fortran.P.entries.flags.c_contiguous
        want, got = exact_vi(chain, 0.99), exact_vi(fortran, 0.99)
        assert got.v_fixed.tobytes() == want.v_fixed.tobytes()
        assert got.trace.residuals_2.tobytes() == want.trace.residuals_2.tobytes()


class TestProjectedVi:
    def test_alpha_zero(self):
        chain = random_chain(6, 3)
        U = build_basis(chain.P, 3, strategy="random_orthonormal", seed=1)
        res = projected_vi(chain, U, 0.0)
        assert_array_equal(res.v_fixed, U.U.T @ chain.c)

    def test_identity_basis_reproduces_exact_vi(self):
        chain = random_chain(8, 4)
        U = build_basis(chain.P, 8, strategy="coordinate")
        proj = projected_vi(chain, U, 0.9, tol=1e-10, store_iterates=True)
        exact = exact_vi(chain, 0.9, tol=1e-10, store_iterates=True)
        assert proj.trace.k_final == exact.trace.k_final
        assert np.abs(proj.trace.iterates - exact.trace.iterates).max() <= 1e-13

    def test_matches_direct_solve_oracle(self):
        chain = walk_chain(40, 7)
        U = build_basis(chain.P, 8, strategy="schur_dominant")
        res = projected_vi(chain, U, 0.95, tol=1e-10)
        A = compress(chain.P, U)
        oracle = direct_solve(A, U.U.T @ chain.c, 0.95)
        assert res.trace.status is RunStatus.CONVERGED
        assert np.abs(res.v_fixed - oracle).max() <= 1e-8

    def test_divergence_is_status_not_error(self):
        # K=1 compression of a non-normal stochastic matrix can exceed rho=1:
        # u = (cos pi/8, sin pi/8) against P = [[1,0],[1,0]] gives
        # u^T P u = cos^2 + sin*cos ~ 1.207, so alpha=0.9 diverges
        P = StochasticMatrix([[1.0, 0.0], [1.0, 0.0]])
        chain = InducedChain(P, np.array([1.0, 1.0]))
        u = np.array([[math.cos(math.pi / 8)], [math.sin(math.pi / 8)]])
        U = OrthonormalBasis(u)
        res = projected_vi(chain, U, 0.9, tol=1e-10)
        assert res.trace.status is RunStatus.DIVERGED

    def test_dimension_mismatch(self):
        chain = random_chain(5, 6)
        U = build_basis(np.eye(4), 2, strategy="coordinate")
        with pytest.raises(DimensionMismatchError):
            projected_vi(chain, U, 0.5)
        with pytest.raises(DimensionMismatchError):
            projected_vi(chain, compress(np.eye(4), U), 0.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    def test_compressed_operator_matches_basis(self, alpha):
        chain = random_chain(30, 2)
        U = build_basis(chain.P, 5, strategy="random_orthonormal", seed=3)
        from_basis = projected_vi(chain, U, alpha, tol=1e-10)
        from_op = projected_vi(chain, compress(chain.P, U), alpha, tol=1e-10)
        assert from_op.v_fixed.tobytes() == from_basis.v_fixed.tobytes()
        for name in ("residuals_inf", "residuals_2"):
            got, want = getattr(from_op.trace, name), getattr(from_basis.trace, name)
            assert got.tobytes() == want.tobytes()
        assert from_op.trace.k_final == from_basis.trace.k_final
        assert from_op.trace.status is from_basis.trace.status

    def test_solves_for_no_rho(self, monkeypatch):
        # the certificate is the harness's: projected_vi only iterates
        calls = []
        monkeypatch.setattr(spectral, "spectral_radius", calls.append)
        chain = random_chain(30, 2)
        op = compress(chain.P, build_basis(chain.P, 5, strategy="random_orthonormal", seed=3))
        projected_vi(chain, op, 0.9)
        projected_vi(chain, op.basis, 0.9)
        assert calls == [] and "rho" not in vars(op)

    def test_fixed_point_property(self):
        chain = walk_chain(30, 9)
        U = build_basis(chain.P, 6, strategy="schur_dominant")
        tol = 1e-10
        res = projected_vi(chain, U, 0.9, tol=tol)
        A = compress(chain.P, U).A
        b = U.U.T @ chain.c
        gap = np.abs(res.v_fixed - (b + 0.9 * (A @ res.v_fixed))).max()
        assert gap <= 10 * tol

    def test_certified_iteration_bound(self):
        # alpha*rho < 1 pins down the worst-case iteration count
        chain = walk_chain(25, 11)
        U = build_basis(chain.P, 5, strategy="schur_dominant")
        tol = 1e-10
        res = projected_vi(chain, U, 0.95, tol=tol)
        ar = 0.95 * compress(chain.P, U).rho
        assert res.trace.status is RunStatus.CONVERGED
        b_norm = np.abs(U.U.T @ chain.c).max()
        bound = math.ceil(math.log(tol * (1 - ar) / b_norm) / math.log(ar)) + 10
        assert res.trace.k_final <= bound

    def test_monotone_tolerance(self):
        chain = walk_chain(20, 13)
        U = build_basis(chain.P, 4, strategy="schur_dominant")
        A = compress(chain.P, U)
        oracle = direct_solve(A, U.U.T @ chain.c, 0.9)
        errs = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7, 1e-10):
            res = projected_vi(chain, U, 0.9, tol=tol)
            errs.append(np.abs(res.v_fixed - oracle).max())
        assert all(errs[i + 1] <= errs[i] + 1e-15 for i in range(len(errs) - 1))


class TestSeriesEval:
    def test_k_zero_returns_b(self):
        b = np.array([1.0, -2.0, 3.0])
        assert_array_equal(series_eval(np.eye(3), b, 0.7, 0), b)

    def test_geometric_identity_matrix(self):
        out = series_eval(np.eye(4), np.ones(4), 0.5, 3)
        assert_allclose(out, 1.875, rtol=0, atol=1e-15)

    def test_matches_projected_iterate(self):
        # rho(A) = 1 here, so the run cannot stop before 26 steps
        chain = walk_chain(12, 8)
        U = build_basis(chain.P, 5, strategy="schur_dominant")
        res = projected_vi(chain, U, 0.9, tol=1e-300, max_iter=26, store_iterates=True)
        A = compress(chain.P, U)
        b = U.U.T @ chain.c
        out = series_eval(A, b, 0.9, 25)
        v26 = res.trace.iterates[26]
        assert np.abs(out - v26).max() <= 1e-12 * (1 + np.abs(v26).max())

    def test_overflow_guard(self):
        with pytest.raises(PowerOverflowError):
            series_eval(3.0 * np.eye(2), np.ones(2), 0.9, 500)

    def test_bad_k(self):
        with pytest.raises(InvalidParameterError):
            series_eval(np.eye(2), np.ones(2), 0.5, -1)

    def test_two_dimensional_b_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            series_eval(np.eye(2), np.ones((2, 1)), 0.5, 3)

    def test_fortran_order_A_has_the_bytes_of_c_order(self):
        A = np.random.default_rng(4).random((40, 40)) / 40
        b = np.ones(40)
        want = series_eval(A, b, 0.9, 50)
        assert series_eval(np.asfortranarray(A), b, 0.9, 50).tobytes() == want.tobytes()


class TestDirectSolve:
    def test_alpha_zero_identity(self):
        b = np.array([3.0, -1.0])
        assert_array_equal(direct_solve(np.eye(2), b, 0.0), b)

    def test_scalar_factor(self):
        b = np.array([1.0, 2.0, -4.0])
        assert_allclose(direct_solve(np.eye(3), b, 0.5), 2.0 * b, rtol=1e-14)

    def test_residual_oracle(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((20, 20)) / 10.0
        b = rng.standard_normal(20)
        x = direct_solve(A, b, 0.9)
        residual = np.abs((np.eye(20) - 0.9 * A) @ x - b).max()
        assert residual <= 1e-10 * (1 + np.abs(b).max())

    def test_singular_system(self):
        with pytest.raises(SingularSystemError):
            direct_solve(2.0 * np.eye(2), np.ones(2), 0.5)

    def test_two_dimensional_b_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            direct_solve(0.5 * np.eye(2), np.ones((2, 1)), 0.9)


class TestReconstruct:
    def test_identity(self):
        U = build_basis(np.eye(4), 4, strategy="coordinate")
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert_array_equal(reconstruct(U, v), v)

    def test_zero_vector(self):
        U = build_basis(np.eye(5), 2, strategy="coordinate")
        assert_array_equal(reconstruct(U, np.zeros(2)), np.zeros(5))

    def test_matches_loop_oracle(self):
        U = build_basis(np.eye(7), 3, strategy="random_orthonormal", seed=4)
        v = np.array([0.5, -1.5, 2.5])
        expected = np.zeros(7)
        for i in range(7):
            for j in range(3):
                expected[i] += U.U[i, j] * v[j]
        assert np.abs(reconstruct(U, v) - expected).max() <= 1e-14

    def test_dimension_mismatch(self):
        U = build_basis(np.eye(4), 2, strategy="coordinate")
        with pytest.raises(DimensionMismatchError):
            reconstruct(U, np.zeros(3))


class TestApproximationError:
    def test_identical(self):
        v = np.arange(4.0)
        err = approximation_error(v, v)
        assert err.err_inf == err.err_2 == err.rel_inf == 0.0

    def test_single_coordinate(self):
        v = np.zeros(5)
        w = v.copy()
        w[0] = 1e-3
        err = approximation_error(v, w)
        assert err.err_inf == pytest.approx(1e-3)
        assert err.rel_inf == pytest.approx(1e-3)  # denominator max(1, 0)

    def test_full_basis_matches_exact(self):
        chain = random_chain(10, 14)
        tol = 1e-10
        exact = exact_vi(chain, 0.9, tol=tol)
        U = build_basis(chain.P, 10, strategy="coordinate")
        proj = projected_vi(chain, U, 0.9, tol=tol)
        err = approximation_error(exact.v_fixed, reconstruct(U, proj.v_fixed))
        assert err.err_inf <= 2 * tol


class TestRateEstimate:
    def test_identity_chain_rate_is_alpha(self):
        # P = I: residuals shrink by exactly alpha; stop high enough above
        # the cancellation floor that the ratio stays clean
        chain = InducedChain(StochasticMatrix(np.eye(3)), np.ones(3))
        res = exact_vi(chain, 0.9, tol=1e-6)
        rate = rate_estimate(res.trace, 20)
        assert type(rate) is float
        assert abs(rate - 0.9) <= 1e-6

    def test_exact_rate_tracks_alpha_rho(self):
        chain = walk_chain(40, 17)
        rho = spectral_radius(chain.P)
        res = exact_vi(chain, 0.95, tol=1e-10)
        rate = rate_estimate(res.trace, 20)
        assert abs(rate / (0.95 * rho) - 1.0) <= 0.02

    def test_projected_rate_tracks_alpha_rho_A(self):
        chain = walk_chain(40, 17)
        U = build_basis(chain.P, 8, strategy="schur_dominant")
        A = compress(chain.P, U)
        rho_A = spectral_radius(A.A)
        res = projected_vi(chain, U, 0.95, tol=1e-10)
        rate = rate_estimate(res.trace, 20)
        assert abs(rate / (0.95 * rho_A) - 1.0) <= 0.02

    def test_insufficient_trace(self):
        chain = random_chain(4, 18)
        res = exact_vi(chain, 0.5, tol=1e-300, max_iter=10)
        with pytest.raises(InsufficientTraceError):
            rate_estimate(res.trace, 20)

    def test_zero_residual(self):
        residuals = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.0])
        trace = IterationTrace(residuals, residuals, 6, RunStatus.CONVERGED)
        with pytest.raises(ZeroResidualError):
            rate_estimate(trace, 5)

    def test_bad_window(self):
        trace = IterationTrace(np.ones(10), np.ones(10), 10, RunStatus.MAX_ITER)
        with pytest.raises(InvalidParameterError):
            rate_estimate(trace, 1)


class TestIterationIdentities:
    def test_partial_sum_identity(self):
        chain = walk_chain(30, 21)
        U = build_basis(chain.P, 7, strategy="schur_dominant")
        res = projected_vi(chain, U, 0.95, tol=1e-300, max_iter=51, store_iterates=True)
        A = compress(chain.P, U)
        b = U.U.T @ chain.c
        for k in range(0, 51, 5):
            s = series_eval(A, b, 0.95, k)
            v = res.trace.iterates[k + 1]
            assert np.abs(v - s).max() <= 1e-12 * (1 + np.abs(v).max())

    def test_square_orthogonal_conjugation(self):
        # K = n: v~(k) = U^T V(k); tolerance accumulates with k, 1e-11
        # is comfortable over 100 steps at this scale
        chain = walk_chain(30, 23)
        U = build_basis(chain.P, 30, strategy="random_orthonormal", seed=6)
        proj = projected_vi(chain, U, 0.9, tol=1e-300, max_iter=100, store_iterates=True)
        exact = exact_vi(chain, 0.9, tol=1e-300, max_iter=100, store_iterates=True)
        for k in range(101):
            dev = np.abs(proj.trace.iterates[k] - U.U.T @ exact.trace.iterates[k]).max()
            assert dev <= 1e-11

    def test_iterates_not_stored_by_default(self):
        chain = random_chain(5, 24)
        res = exact_vi(chain, 0.5)
        assert res.trace.iterates is None
        assert len(res.trace.residuals_inf) == res.trace.k_final
