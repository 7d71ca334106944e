import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from specvi import spectral
from specvi.errors import (
    DimensionMismatchError,
    EigenFailureError,
    InvalidKError,
    InvalidParameterError,
    MatrixTooLargeError,
    NonSquareError,
    PowerOverflowError,
    SplitConjugatePairError,
)
from specvi.mdp import (
    Policy,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
    validate_stochastic,
)
from specvi.spectral import (
    BASIS_STRATEGIES,
    _block_moduli,
    _schur_block_starts,
    _sorted_real_schur,
    OrthonormalBasis,
    bounded_power_constant,
    build_basis,
    check_compression_radius,
    compress,
    gelfand_finals,
    gelfand_sequence,
    inf_norm,
    power_iteration_radius,
    power_vanishing_check,
    spectral_radius,
    two_norm,
)


def random_stochastic(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.random((n, n))
    M /= M.sum(axis=1, keepdims=True)
    return M


def conjugated_spectrum(eigs, seed):
    """Orthogonal conjugation of diag(eigs): known spectrum, dense entries."""
    n = len(eigs)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(eigs) @ Q.T


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)).rho == 1.0

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])).rho == 0.0

    def test_stochastic_perron(self):
        est = spectral_radius(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert abs(est.rho - 1.0) <= 1e-12
        assert est.method == "dense_eig"

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            spectral_radius(np.ones((2, 3)))

    def test_dense_limit(self):
        assert spectral.DENSE_EIG_LIMIT == 2000
        with pytest.raises(MatrixTooLargeError):
            spectral_radius(np.eye(spectral.DENSE_EIG_LIMIT + 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_perron_on_random_stochastic(self, seed):
        est = spectral_radius(random_stochastic(30, seed))
        assert abs(est.rho - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_radius_below_induced_norms(self, seed):
        M = np.random.default_rng(seed).standard_normal((15, 15))
        rho = spectral_radius(M).rho
        assert rho <= inf_norm(M) + 1e-10
        assert rho <= two_norm(M) + 1e-10


class TestPowerIteration:
    def test_dominant_diagonal(self):
        est = power_iteration_radius(np.diag([0.9, 0.5, 0.1]), tol=1e-12, seed=3)
        assert est.converged
        assert abs(est.rho - 0.9) <= 1e-10

    def test_matches_dense_on_symmetric_walk(self):
        P = make_symmetric_walk(25, 0.2, seed=8).transitions[0].entries
        dense = spectral_radius(P).rho
        est = power_iteration_radius(P, tol=1e-12, seed=5)
        assert est.converged
        assert abs(est.rho - dense) <= 1e-8

    def test_tied_moduli_flagged(self):
        # eigenvalues +1/-1: the estimate must not silently claim convergence
        est = power_iteration_radius(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-10, seed=1)
        assert (not est.converged) or abs(est.rho - 1.0) <= 1e-8

    def test_zero_matrix(self):
        est = power_iteration_radius(np.zeros((3, 3)), tol=1e-10, seed=0)
        assert est.rho == 0.0 and est.converged


class TestBuildBasis:
    def test_coordinate_full_is_identity(self):
        P = validate_stochastic(random_stochastic(6, 0))
        U = build_basis(P, 6, strategy="coordinate")
        assert_array_equal(U.U, np.eye(6))

    @pytest.mark.parametrize("strategy", BASIS_STRATEGIES)
    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_orthonormal_all_strategies(self, strategy, K):
        P = make_symmetric_walk(7, 0.2, seed=2).transitions[0]
        U = build_basis(P, K, strategy=strategy, seed=13)
        assert np.abs(U.U.T @ U.U - np.eye(K)).max() <= 1e-12
        assert U.strategy == strategy

    def test_schur_spans_dominant_eigenspace(self):
        # oracle: dense symmetric eigendecomposition + principal angles;
        # seed chosen with a clear modulus gap at the K=3 cut
        P = make_symmetric_walk(20, 0.2, seed=0).transitions[0]
        U = build_basis(P, 3, strategy="schur_dominant")
        w, V = np.linalg.eigh(P.entries)
        dom = V[:, np.argsort(-np.abs(w))[:3]]
        # sine of the largest principal angle (accurate for tiny angles,
        # unlike arccos of a saturated cosine)
        residual = dom - U.U @ (U.U.T @ dom)
        sines = np.linalg.svd(residual, compute_uv=False)
        assert sines.max() < 1e-8

    def test_schur_split_conjugate_pair(self):
        # spectrum 1.0, 0.9*exp(+-i pi/3), 0.3: K=2 cuts the complex pair
        th = np.pi / 3
        block = 0.9 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        M = np.zeros((4, 4))
        M[0, 0] = 1.0
        M[1:3, 1:3] = block
        M[3, 3] = 0.3
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = Q @ M @ Q.T
        with pytest.raises(SplitConjugatePairError):
            build_basis(A, 2, strategy="schur_dominant")
        for K in (1, 3, 4):
            U = build_basis(A, K, strategy="schur_dominant")
            assert U.K == K

    def test_schur_ordering_by_modulus(self):
        # leading K-subspace must reproduce the K largest-|lambda| Ritz values
        M = random_stochastic(12, 7)
        eigs = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
        U = build_basis(M, 1, strategy="schur_dominant")
        A = compress(M, U).A
        assert_allclose(np.abs(A[0, 0]), eigs[0], atol=1e-10)

    def test_invalid_k(self):
        P = validate_stochastic(np.eye(3))
        with pytest.raises(InvalidKError):
            build_basis(P, 0)
        with pytest.raises(InvalidKError):
            build_basis(P, 4)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            build_basis(np.eye(3), 2, strategy="mystery")

    def test_random_basis_deterministic(self):
        P = random_stochastic(8, 1)
        a = build_basis(P, 3, strategy="random_orthonormal", seed=5)
        b = build_basis(P, 3, strategy="random_orthonormal", seed=5)
        assert_array_equal(a.U, b.U)

    def test_direct_construction_checks_orthonormality(self):
        with pytest.raises(InvalidParameterError):
            OrthonormalBasis(np.ones((3, 2)))


class TestCompress:
    def test_identity_basis_exact(self):
        P = random_stochastic(5, 2)
        U = build_basis(P, 5, strategy="coordinate")
        assert_array_equal(compress(P, U).A, P)

    def test_single_coordinate(self):
        P = random_stochastic(4, 3)
        U = build_basis(P, 1, strategy="coordinate")
        assert_allclose(compress(P, U).A, [[P[0, 0]]], rtol=0, atol=0)

    def test_matches_triple_loop_oracle(self):
        P = random_stochastic(6, 9)
        U = build_basis(P, 3, strategy="random_orthonormal", seed=21)
        A = compress(P, U).A
        expected = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                acc = 0.0
                for i in range(6):
                    for j in range(6):
                        acc += U.U[i, a] * P[i, j] * U.U[j, b]
                expected[a, b] = acc
        assert np.abs(A - expected).max() <= 1e-13

    def test_dimension_mismatch(self):
        U = build_basis(np.eye(4), 2, strategy="coordinate")
        with pytest.raises(DimensionMismatchError):
            compress(np.eye(5), U)


class TestGelfand:
    def test_symmetric_equals_rho_every_k(self):
        P = make_symmetric_walk(15, 0.3, seed=6).transitions[0]
        rho = spectral_radius(P).rho
        seq = gelfand_sequence(P, 60, "two_norm")
        assert np.abs(seq.values - rho).max() <= 1e-10

    def test_jordan_block_two_norm(self):
        # oracle: direct powers via binary exponentiation + exact 2-norm
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        seq = gelfand_sequence(J, 200, "two_norm")
        for k in (1, 3, 10, 50):
            direct = np.linalg.norm(np.linalg.matrix_power(J, k), 2) ** (1.0 / k)
            assert_allclose(seq.values[k - 1], direct, rtol=1e-10)
        assert seq.values[0] > 0.5
        assert np.all(np.diff(seq.values) < 0)
        assert seq.values[199] - 0.5 < 0.05

    def test_nilpotent_zero_tail(self):
        seq = gelfand_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]), 10, "two_norm")
        assert seq.values[0] > 0
        assert np.all(seq.values[1:] == 0.0)

    def test_inf_norm_matches_row_sum_oracle(self):
        M = random_stochastic(8, 3) * 0.7
        seq = gelfand_sequence(M, 30, "inf_norm")
        B = M.copy()
        for k in range(1, 31):
            oracle = np.abs(B).sum(axis=1).max() ** (1.0 / k)
            assert_allclose(seq.values[k - 1], oracle, rtol=1e-12)
            B = B @ M

    def test_small_rho_long_powers_no_underflow(self):
        # ||A^200|| ~ 1e-200; the scaled accumulation must stay accurate
        A = conjugated_spectrum(np.linspace(0.02, 0.1, 20), seed=11)
        A = (A + A.T) / 2
        rho = spectral_radius(A).rho
        seq = gelfand_sequence(A, 200, "two_norm")
        assert abs(seq.values[-1] - rho) <= 1e-10

    def test_growing_matrix_values_converge(self):
        # rho = 2: raw powers would overflow near k ~ 1000; values must not
        seq = gelfand_sequence(2.0 * np.eye(3), 1500, "two_norm")
        assert_allclose(seq.values, 2.0, rtol=1e-12)

    def test_nonfinite_input_overflows(self):
        with pytest.raises(PowerOverflowError):
            gelfand_sequence(np.array([[np.inf]]), 5, "two_norm")

    def test_bad_args(self):
        with pytest.raises(InvalidParameterError):
            gelfand_sequence(np.eye(2), 0, "two_norm")
        with pytest.raises(InvalidParameterError):
            gelfand_sequence(np.eye(2), 5, "fro")
        for k_max in (0, -3):
            with pytest.raises(InvalidParameterError, match="k_max must be >= 1"):
                gelfand_finals(np.eye(2), k_max)
        for M in (np.ones((2, 3)), np.ones(4)):
            with pytest.raises(NonSquareError):
                gelfand_sequence(M, 5, "two_norm")
            with pytest.raises(NonSquareError):
                gelfand_finals(M, 5)

    @staticmethod
    def outcome(fn):
        """Bit patterns of fn()'s two finals, or the PowerOverflowError it raises."""
        try:
            return tuple(float(v).hex() for v in fn())
        except PowerOverflowError as exc:
            return ("raises", exc.k, str(exc))

    def assert_finals_match_sequences(self, M, k_max):
        # the two-norm sequence first: where both raise, its error is reported
        want = self.outcome(
            lambda: [gelfand_sequence(M, k_max, kind).values[-1] for kind in ("two_norm", "inf_norm")]
        )
        assert self.outcome(lambda: gelfand_finals(M, k_max)) == want

    @pytest.mark.parametrize(
        "M, k_max",
        [
            (np.array([[1e-170]]), 50),  # Gram underflows: two-norm 0, inf-norm not
            (2.0 * np.eye(3), 1500),  # upward rescale
            (np.array([[0.5, 1.0], [0.0, 0.5]]), 1),
            (np.array([[np.inf]]), 5),
            (np.array([[np.nan]]), 5),
            (np.array([[1e200]]), 5),  # Gram overflows at k = 1
            (np.array([[1e200]]), 1),
            (np.zeros((3, 3)), 4),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), 1),
        ],
        ids=[
            "gram-underflow",
            "2I-k1500",
            "jordan-k1",
            "inf",
            "nan",
            "1e200",
            "1e200-k1",
            "zero",
            "nilpotent-k1",
        ],
    )
    def test_finals_match_sequence_edges(self, M, k_max):
        self.assert_finals_match_sequences(M, k_max)

    @pytest.mark.parametrize("exponent", [-200, -160, -100, -40, 0, 40, 100, 150, 200])
    def test_finals_match_sequence_random(self, exponent):
        rng = np.random.default_rng(1000 + exponent)
        for n in (1, 2, 5, 9):
            M = rng.standard_normal((n, n)) * 10.0**exponent
            for k_max in (1, 2, 7, 120, 401):
                self.assert_finals_match_sequences(M, k_max)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_finals_match_sequence_nilpotent(self, n):
        # strictly upper triangular: A^k is exactly zero from some k <= n on
        rng = np.random.default_rng(n)
        M = np.triu(rng.standard_normal((n, n)), 1)
        for k_max in range(1, n + 3):
            self.assert_finals_match_sequences(M, k_max)

    @pytest.mark.parametrize("seed", range(3))
    def test_converges_to_rho_at_k200(self, seed):
        M = np.random.default_rng(seed).standard_normal((20, 20))
        M *= 0.6 / spectral_radius(M).rho
        rho = spectral_radius(M).rho
        for kind in ("two_norm", "inf_norm"):
            seq = gelfand_sequence(M, 200, kind)
            assert abs(seq.values[-1] - rho) <= max(1e-6, 0.05 * rho)


class TestPowerVanishing:
    def test_half_identity(self):
        out = power_vanishing_check(0.5 * np.eye(3), 100, 1e-12)
        assert out.vanishes and out.first_k == 40

    def test_identity_never(self):
        out = power_vanishing_check(np.eye(3), 100, 1e-12)
        assert not out.vanishes and out.first_k is None and out.final_norm == 1.0

    def test_nilpotent(self):
        out = power_vanishing_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 100, 1e-12)
        assert out.vanishes and out.first_k == 2

    def test_overflow_folds_to_false(self):
        out = power_vanishing_check(10.0 * np.eye(2), 5000, 1e-12)
        assert not out.vanishes and out.final_norm == np.inf

    @pytest.mark.parametrize("rho,expect", [(0.8, True), (0.97, True), (1.05, False), (1.5, False)])
    def test_threshold_tracks_spectral_radius(self, rho, expect):
        eigs = np.linspace(0.1, 1.0, 12) * rho
        M = conjugated_spectrum(eigs, seed=17)
        out = power_vanishing_check(M, 10000, 1e-12)
        assert out.vanishes == expect


class TestBoundedPower:
    def test_identity(self):
        est = bounded_power_constant(np.eye(4), 0.81, 100)
        assert est.M == 1.0

    def test_symmetric_contraction(self):
        P = make_symmetric_walk(10, 0.2, seed=5).transitions[0]
        est = bounded_power_constant(P, 0.9, 200)
        assert est.M <= 1.0 + 1e-12

    def test_nonnormal_transient_growth(self):
        # oracle: direct enumeration with matrix_power + exact 2-norm
        A = np.array([[0.9, 5.0], [0.0, 0.9]])
        est = bounded_power_constant(A, 0.9, 200)
        S = np.sqrt(0.9) * A
        oracle = max(
            np.linalg.norm(np.linalg.matrix_power(S, k), 2) for k in range(0, 201)
        )
        assert est.M > 1.0
        assert_allclose(est.M, oracle, rtol=1e-10)

    def test_overflow_reported(self):
        with pytest.raises(PowerOverflowError) as exc:
            bounded_power_constant(1e200 * np.eye(2), 0.9, 10)
        assert exc.value.k is not None


class TestCompressionRadius:
    def test_identity_ratio_exact(self):
        P = validate_stochastic(random_stochastic(7, 4))
        U = build_basis(P, 7, strategy="coordinate")
        chk = check_compression_radius(P, U)
        assert chk.ratio == 1.0
        assert chk.rho_A == chk.rho_P

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_compression_never_expands(self, seed):
        P = make_symmetric_walk(16, 0.25, seed=seed).transitions[0]
        U = build_basis(P, 5, strategy="random_orthonormal", seed=seed + 100)
        chk = check_compression_radius(P, U)
        assert chk.rho_A <= 1.0 + 1e-10

    def test_nonsymmetric_ratio_is_measured(self):
        P = validate_stochastic(random_stochastic(20, 8))
        U = build_basis(P, 5, strategy="random_orthonormal", seed=9)
        chk = check_compression_radius(P, U)
        assert chk.ratio == pytest.approx(chk.rho_A / chk.rho_P)
        assert np.isfinite(chk.ratio)


def reference_sorted_real_schur(P):
    """The per-block selection loop the vectorised pass must match byte for byte.

    Each pass rebuilds the block list in Python, takes the first block of
    largest modulus with max(key=...), and moves it with a copying trexc.
    """
    T, Z = scipy.linalg.schur(P, output="real")
    n = P.shape[0]
    tol = 100 * np.finfo(np.float64).eps * max(1.0, inf_norm(P))
    T = np.asfortranarray(T)
    Z = np.asfortranarray(Z)

    def modulus(start, size):
        if size == 1:
            return abs(float(T[start, start]))
        block = T[start : start + 2, start : start + 2]
        return float(np.abs(np.linalg.eigvals(block)).max())

    pos = 0
    while pos < n:
        bounds = _schur_block_starts(T, tol) + [n]
        blocks = [
            (bounds[i], bounds[i + 1] - bounds[i])
            for i in range(len(bounds) - 1)
            if bounds[i] >= pos
        ]
        best_start, best_size = max(blocks, key=lambda blk: modulus(*blk))
        if best_start != pos:
            T, Z, info = scipy.linalg.lapack.dtrexc(T, Z, best_start + 1, pos + 1)
            assert info == 0
            T = np.asfortranarray(T)
            Z = np.asfortranarray(Z)
        pos += best_size
    return np.ascontiguousarray(T), np.ascontiguousarray(Z), tol


def chain_matrix(mdp):
    return induce_chain(mdp, Policy(np.zeros(mdp.n, dtype=np.int64))).P.entries


class TestSchurMemo:
    def test_memo_gives_the_same_bases_and_errors(self):
        P = chain_matrix(make_random_mdp(30, 2, seed=3))
        memo = {}
        for K in range(1, 31):
            try:
                want = build_basis(P, K).U.tobytes()
            except SplitConjugatePairError:
                with pytest.raises(SplitConjugatePairError):
                    build_basis(P, K, memo=memo)
                continue
            assert build_basis(P, K, memo=memo).U.tobytes() == want
        assert list(memo) == ["schur"]


class TestSortedSchurReference:
    """Random MDPs have complex pairs; symmetric walks have modulus ties."""

    @pytest.mark.parametrize("n", [20, 150, 300])
    @pytest.mark.parametrize("make", ["random", "walk"])
    def test_matches_reference_bytes(self, n, make):
        if make == "random":
            P = chain_matrix(make_random_mdp(n, 2, seed=n))
        else:
            P = chain_matrix(make_symmetric_walk(n, 0.2, seed=n))
        T, Z, tol = _sorted_real_schur(P)
        T_ref, Z_ref, tol_ref = reference_sorted_real_schur(P)
        assert tol == tol_ref
        assert T.tobytes() == T_ref.tobytes()
        assert Z.tobytes() == Z_ref.tobytes()
        if make == "random":
            assert np.count_nonzero(np.abs(np.diag(T, -1)) > tol) > 0

    def test_adjacent_subdiagonals_pair_greedily(self):
        # quasi-triangular T with two above-tol subdiagonal entries in a
        # row: the greedy partition pairs rows 0-1 and leaves row 2 alone
        T = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        T[1, 0] = 0.5
        T[2, 1] = 0.25
        assert _schur_block_starts(T, 1e-12) == [0, 2, 3]
        starts, sizes, moduli = _block_moduli(T, 1e-12, 0)
        assert starts.tolist() == [0, 2, 3]
        assert sizes.tolist() == [2, 1, 1]
        assert moduli[1:].tolist() == [11.0, 16.0]


class TestRealSchur:
    """_real_schur repeats scipy.linalg.schur(output="real") call for call."""

    CASES = {
        "1x1": lambda: np.array([[0.7]]),
        "rotation": lambda: np.array([[0.6, -0.8], [0.8, 0.6]]),  # one complex pair
        "random150": lambda: random_stochastic(150, 150),
        "walk300": lambda: chain_matrix(make_symmetric_walk(300, 0.2, seed=300)),
        "fortran": lambda: np.asfortranarray(random_stochastic(40, 4)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_scipy_bytes(self, name):
        P = self.CASES[name]()
        T, Z = spectral._real_schur(P)
        T_ref, Z_ref = scipy.linalg.schur(P, output="real")
        for got, want in ((T, T_ref), (Z, Z_ref)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert got.tobytes() == want.tobytes()
        if name == "rotation":
            assert T[1, 0] != 0.0

    def test_nan_raises_the_same_value_error(self):
        P = random_stochastic(6, 1)
        P[2, 3] = np.nan
        with pytest.raises(ValueError) as want:
            scipy.linalg.schur(P, output="real")
        with pytest.raises(ValueError) as got:
            build_basis(P, 2, "schur_dominant")
        assert str(got.value) == str(want.value)

    def test_gees_failure_is_eigen_failure(self, monkeypatch):
        real = spectral._flapack()

        class Failing:
            dtrexc = real.dtrexc

            @staticmethod
            def dgees(*args, **kwargs):
                result = real.dgees(*args, **kwargs)
                return result[:-1] + (3,)

        monkeypatch.setattr(spectral, "_flapack", lambda: Failing)
        with pytest.raises(EigenFailureError, match="info=3"):
            build_basis(random_stochastic(8, 2), 2, "schur_dominant")

    def test_fallback_import_gives_the_same_bases(self, monkeypatch):
        P = chain_matrix(make_random_mdp(40, 2, seed=5))
        want = [build_basis(P, K).U.tobytes() for K in (1, 3, 40)]
        finder = importlib.machinery.PathFinder
        real_find_spec = finder.find_spec
        asked = []

        def find_spec(name, path=None, target=None):
            if name == spectral._FLAPACK:
                asked.append(name)
                return None
            return real_find_spec(name, path, target)

        monkeypatch.setattr(finder, "find_spec", find_spec)
        monkeypatch.delitem(sys.modules, spectral._FLAPACK)
        assert spectral._flapack() is scipy.linalg.lapack._flapack
        assert asked == [spectral._FLAPACK]
        assert [build_basis(P, K).U.tobytes() for K in (1, 3, 40)] == want

    def test_failed_load_restores_the_environment(self, monkeypatch):
        seen = []

        def failing_module_from_spec(spec):
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            raise ImportError("cannot load")

        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        monkeypatch.delitem(sys.modules, spectral._FLAPACK)
        monkeypatch.setattr(importlib.util, "module_from_spec", failing_module_from_spec)
        with pytest.raises(ImportError, match="cannot load"):
            spectral._flapack()
        assert seen == ["4"]
        assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ
