import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from specvi import harness, spectral
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
    StochasticMatrix,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
)
from specvi.spectral import (
    BASIS_STRATEGIES,
    CompressedOperator,
    OrthonormalBasis,
    build_basis,
    compress,
    gelfand_finals,
    gelfand_sequence,
    inf_norm,
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
        assert spectral_radius(np.eye(4)) == 1.0

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_stochastic_perron(self):
        rho = spectral_radius(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert type(rho) is float
        assert abs(rho - 1.0) <= 1e-12

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            spectral_radius(np.ones((2, 3)))

    def test_dense_limit(self):
        assert spectral.DENSE_EIG_LIMIT == 2000
        with pytest.raises(MatrixTooLargeError):
            spectral_radius(np.eye(spectral.DENSE_EIG_LIMIT + 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_perron_on_random_stochastic(self, seed):
        rho = spectral_radius(random_stochastic(30, seed))
        assert abs(rho - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_radius_below_induced_norms(self, seed):
        M = np.random.default_rng(seed).standard_normal((15, 15))
        rho = spectral_radius(M)
        assert rho <= inf_norm(M) + 1e-10
        assert rho <= two_norm(M) + 1e-10


#: A random stochastic P from each source the harness or the tests use,
#: with n from 1 to 80 (the symmetric walk needs n >= 2).
STOCHASTIC = st.one_of(
    st.builds(
        lambda n, seed: make_random_mdp(n, 1, seed).transitions[0].entries,
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(
        lambda n, loop, seed: make_symmetric_walk(n, loop, seed).transitions[0].entries,
        st.integers(2, 80),
        st.floats(0.0, 0.99),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(random_stochastic, st.integers(1, 80), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=200, deadline=None)
@given(STOCHASTIC)
def test_row_sum_radius_cannot_flip_a_radius_finding(P):
    # the harness's rho(P) is ||P||_inf; it is within 1e-12 of the dense
    # radius, far inside both radius-finding thresholds
    assert 1e-12 < harness.RADIUS_EXCESS_TOL / 100 < harness.RADIUS_EQUALITY_TOL
    assert abs(spectral_radius(P) - inf_norm(P)) <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        spectral_radius,
        lambda M: gelfand_finals(M, 3),
        lambda M: gelfand_sequence(M, 3, "two_norm"),
        lambda M: gelfand_sequence(M, 3, "inf_norm"),
        lambda M: power_vanishing_check(M, 3, 1e-12),
    ],
    ids=["spectral_radius", "gelfand_finals", "gelfand_two_norm", "gelfand_inf_norm", "vanishing"],
)
def test_empty_matrix_is_rejected(call):
    with pytest.raises(NonSquareError, match="matrix must be at least 1x1"):
        call(np.zeros((0, 0)))


class TestBuildBasis:
    def test_coordinate_full_is_identity(self):
        P = StochasticMatrix(random_stochastic(6, 0))
        U = build_basis(P, 6, strategy="coordinate")
        assert_array_equal(U.U, np.eye(6))

    @pytest.mark.parametrize("strategy", BASIS_STRATEGIES)
    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_orthonormal_all_strategies(self, strategy, K):
        P = make_symmetric_walk(7, 0.2, seed=2).transitions[0]
        U = build_basis(P, K, strategy=strategy, seed=13)
        assert np.abs(U.U.T @ U.U - np.eye(K)).max() <= 1e-12

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
        P = StochasticMatrix(np.eye(3))
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

    def test_basis_must_match_the_operator_size(self):
        U = build_basis(np.eye(4), 2, strategy="coordinate")
        with pytest.raises(DimensionMismatchError):
            CompressedOperator(np.eye(3), basis=U)
        assert CompressedOperator(np.eye(2), basis=U).basis is U


class TestGelfand:
    def test_symmetric_equals_rho_every_k(self):
        P = make_symmetric_walk(15, 0.3, seed=6).transitions[0]
        rho = spectral_radius(P)
        seq = gelfand_sequence(P, 60, "two_norm")
        assert np.abs(seq - rho).max() <= 1e-10

    def test_jordan_block_two_norm(self):
        # oracle: direct powers via binary exponentiation + exact 2-norm
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        seq = gelfand_sequence(J, 200, "two_norm")
        for k in (1, 3, 10, 50):
            direct = np.linalg.norm(np.linalg.matrix_power(J, k), 2) ** (1.0 / k)
            assert_allclose(seq[k - 1], direct, rtol=1e-10)
        assert seq[0] > 0.5
        assert np.all(np.diff(seq) < 0)
        assert seq[199] - 0.5 < 0.05

    def test_nilpotent_zero_tail(self):
        seq = gelfand_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]), 10, "two_norm")
        assert seq[0] > 0
        assert np.all(seq[1:] == 0.0)

    def test_inf_norm_matches_row_sum_oracle(self):
        M = random_stochastic(8, 3) * 0.7
        seq = gelfand_sequence(M, 30, "inf_norm")
        B = M.copy()
        for k in range(1, 31):
            oracle = np.abs(B).sum(axis=1).max() ** (1.0 / k)
            assert_allclose(seq[k - 1], oracle, rtol=1e-12)
            B = B @ M

    def test_small_rho_long_powers_no_underflow(self):
        # ||A^200|| ~ 1e-200; the scaled accumulation must stay accurate
        A = conjugated_spectrum(np.linspace(0.02, 0.1, 20), seed=11)
        A = (A + A.T) / 2
        rho = spectral_radius(A)
        seq = gelfand_sequence(A, 200, "two_norm")
        assert abs(seq[-1] - rho) <= 1e-10

    def test_growing_matrix_values_converge(self):
        # rho = 2: raw powers would overflow near k ~ 1000; values must not
        seq = gelfand_sequence(2.0 * np.eye(3), 1500, "two_norm")
        assert_allclose(seq, 2.0, rtol=1e-12)

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
            lambda: [gelfand_sequence(M, k_max, kind)[-1] for kind in ("two_norm", "inf_norm")]
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
        M *= 0.6 / spectral_radius(M)
        rho = spectral_radius(M)
        for kind in ("two_norm", "inf_norm"):
            seq = gelfand_sequence(M, 200, kind)
            assert abs(seq[-1] - rho) <= max(1e-6, 0.05 * rho)


def reference_scaled_powers(M, k_max):
    """The scaled power chain step by step: per power one product, one peak
    scan, the overflow test and the rescale; zero powers are yielded too."""
    B = M.copy()
    log_scale = 0.0
    for k in range(1, k_max + 1):
        yield k, B, log_scale
        if k < k_max:
            B = B @ M
            peak = float(np.abs(B).max())
            if not math.isfinite(peak):
                raise PowerOverflowError(f"A^{k + 1} left the representable range", k=k + 1)
            if peak > spectral._RESCALE_HI or 0.0 < peak < spectral._RESCALE_LO:
                B = B / peak
                log_scale += math.log(peak)


def reference_sequence(M, k_max, kind):
    """gelfand_sequence(M, k_max, kind).values from the reference chain."""
    norm = two_norm if kind == "two_norm" else inf_norm
    values = np.zeros(k_max)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, B, log_scale in reference_scaled_powers(M, k_max):
            nrm = norm(B)
            if not math.isfinite(nrm):
                raise PowerOverflowError(f"||A^{k}|| is not finite", k=k)
            if nrm == 0.0:
                break
            values[k - 1] = math.exp((log_scale + math.log(nrm)) / k)
    return values


def chain_steps(chain):
    """(k, bytes of B, log_scale in hex) per power up to the first zero one,
    then the PowerOverflowError's k and message if the chain raises."""
    steps = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k, B, log_scale in chain:
                if not B.any():
                    break
                steps.append((k, B.tobytes(), log_scale.hex()))
    except PowerOverflowError as exc:
        steps.append(("raises", exc.k, str(exc)))
    return steps


def in_window(B):
    return spectral._RESCALE_LO <= np.abs(B).max() <= spectral._RESCALE_HI


def random_chain_matrix(n, seed):
    return induce_chain(make_random_mdp(n, 2, seed=seed), Policy(np.zeros(n, dtype=np.int64))).P.entries


def negative_entry():
    M = random_stochastic(8, 5)
    M[2, 3] = -1e-13
    return M


def zero_row():
    M = random_stochastic(6, 6)
    M[4] = 0.0
    return M


# (operand, k_max, its horizon, whether the power after the horizon leaves
# the rescaling window: where it does, no larger horizon is sound); powers
# past the horizon are scanned
HORIZON_CASES = {
    "half-stochastic": (0.5 * random_stochastic(8, 3), 400, 329, True),
    "triple-stochastic": (3.0 * random_stochastic(8, 4), 300, 209, False),
    # every entry equal: the peak is the row sum / n, the bound's low end
    "half-uniform": (np.full((8, 8), 0.5 / 8), 400, 329, True),
    # the peak is the row sum, the bound's high end
    "twice-identity": (2.0 * np.eye(3), 400, 332, True),
    "negative-entry": (negative_entry(), 60, 0, False),
    "zero-row": (zero_row(), 40, 0, False),
    "nilpotent": (np.array([[0.0, 1.0], [0.0, 0.0]]), 5, 0, False),
}


class TestScanFreeChain:
    """The chain skips the peak scan up to a horizon proven from the row sums;
    every power, value and error must stay those of the step-by-step chain."""

    @pytest.mark.parametrize("name", HORIZON_CASES)
    def test_horizon(self, name):
        M, k_max, horizon, _ = HORIZON_CASES[name]
        assert spectral._scan_free_horizon(M, k_max) == horizon

    @pytest.mark.parametrize("name", HORIZON_CASES)
    def test_every_power_up_to_the_horizon_is_in_the_window(self, name):
        M, k_max, _, leaves = HORIZON_CASES[name]
        horizon = spectral._scan_free_horizon(M, k_max)
        B = M.copy()
        for _ in range(horizon):
            assert in_window(B)
            B = B @ M
        assert in_window(B) != leaves

    @pytest.mark.parametrize("name", HORIZON_CASES)
    def test_chain_matches_reference(self, name):
        M, k_max, _, _ = HORIZON_CASES[name]
        want = chain_steps(reference_scaled_powers(M, k_max))
        assert chain_steps(spectral._scaled_powers(M, k_max)) == want

    @pytest.mark.parametrize("name", HORIZON_CASES)
    def test_sequences_and_finals_match_reference(self, name):
        M, k_max, _, _ = HORIZON_CASES[name]
        for kind in ("two_norm", "inf_norm"):
            got = gelfand_sequence(M, k_max, kind)
            want = reference_sequence(M, k_max, kind)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        TestGelfand().assert_finals_match_sequences(M, k_max)

    def test_overflow_past_the_horizon_matches_reference(self):
        # 1e300 * (J / 2): row sums 1e300, so no power is proven in the window
        M = np.full((2, 2), 0.5e300)
        assert spectral._scan_free_horizon(M, 10) == 0
        want = chain_steps(reference_scaled_powers(M, 10))
        assert want[-1] == ("raises", 2, "A^2 left the representable range")
        assert chain_steps(spectral._scaled_powers(M, 10)) == want
        # the inf-norm sequence reaches that product; it raises, and warns of nothing
        with pytest.raises(PowerOverflowError, match=r"A\^2 left") as exc:
            gelfand_sequence(M, 10, "inf_norm")
        assert exc.value.k == 2

    def test_random_chain_at_n150_is_never_scanned(self):
        P = random_chain_matrix(150, 0)
        assert spectral._scan_free_horizon(P, 200) == 200
        steps = list(reference_scaled_powers(P, 200))
        assert chain_steps(spectral._scaled_powers(P, 200)) == chain_steps(iter(steps))
        _, B, log_scale = steps[-1]
        want = tuple(
            math.exp((log_scale + math.log(norm(B))) / 200).hex() for norm in (two_norm, inf_norm)
        )
        assert tuple(v.hex() for v in gelfand_finals(P, 200)) == want


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


class TestCompressionRadius:
    def test_coordinate_compression_has_the_bytes_of_P(self):
        # why the identity sub-case of proposition_suite takes rho(P) as rho(A)
        cases = [make_random_mdp(n, 2, seed=n) for n in (1, 2, 30, 300)]
        cases += [make_symmetric_walk(n, 0.2, seed=n) for n in (2, 30, 300)]
        for mdp in cases:
            P = chain_matrix(mdp)
            A = compress(P, build_basis(P, mdp.n, strategy="coordinate")).A
            assert A.shape == P.shape and A.tobytes() == P.tobytes()

    @staticmethod
    def radius_record(P, U):
        """The radius fields of a record for P and U, as every kind computes them."""
        rec = {"id": "r"}
        harness._radius_fields([], rec, spectral_radius(P), compress(P, U).rho)
        return rec

    def test_identity_ratio_exact(self):
        P = StochasticMatrix(random_stochastic(7, 4))
        U = build_basis(P, 7, strategy="coordinate")
        rec = self.radius_record(P, U)
        assert rec["ratio"] == 1.0
        assert rec["rho_A"] == rec["rho_P"]

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_compression_never_expands(self, seed):
        P = make_symmetric_walk(16, 0.25, seed=seed).transitions[0]
        U = build_basis(P, 5, strategy="random_orthonormal", seed=seed + 100)
        assert self.radius_record(P, U)["rho_A"] <= 1.0 + 1e-10

    def test_nonsymmetric_ratio_is_measured(self):
        P = StochasticMatrix(random_stochastic(20, 8))
        U = build_basis(P, 5, strategy="random_orthonormal", seed=9)
        rec = self.radius_record(P, U)
        assert rec["ratio"] == pytest.approx(rec["rho_A"] / rec["rho_P"])
        assert np.isfinite(rec["ratio"])


def _schur_block_starts(T, tol):
    """Greedy block partition: an above-tol T[i + 1, i] pairs rows i and i + 1."""
    starts = []
    n = T.shape[0]
    i = 0
    while i < n:
        starts.append(i)
        if i + 1 < n and abs(T[i + 1, i]) > tol:
            i += 2
        else:
            i += 1
    return starts


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


def full_sort_bases(P):
    """{K: basis bytes, or None where K splits a pair}, from the reference sort."""
    T, Z, tol = reference_sorted_real_schur(P)
    n = P.shape[0]
    return {
        K: None if K < n and abs(T[K, K - 1]) > tol else np.ascontiguousarray(Z[:, :K]).tobytes()
        for K in range(1, n + 1)
    }


class TestSchurMemo:
    """The memo's form is sorted only as far as the largest K asked; every
    basis must still have the bytes of a fully sorted form's."""

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("n", [20, 150])
    @pytest.mark.parametrize("make", ["random", "walk"])
    def test_any_K_order_gives_full_sort_bases(self, make, n, order):
        if make == "random":
            P = chain_matrix(make_random_mdp(n, 2, seed=n))
        else:
            P = chain_matrix(make_symmetric_walk(n, 0.2, seed=n))
        want = full_sort_bases(P)
        Ks = list(range(1, n + 1))
        if order == "descending":
            Ks.reverse()
        elif order == "shuffled":
            np.random.default_rng(n).shuffle(Ks)
        memo = {}
        for K in Ks:
            if want[K] is None:
                with pytest.raises(SplitConjugatePairError):
                    build_basis(P, K, memo=memo)
            else:
                assert build_basis(P, K, memo=memo).U.tobytes() == want[K]
        if make == "random":
            assert None in want.values()

    def test_sort_stops_at_K(self):
        P = chain_matrix(make_symmetric_walk(40, 0.2, seed=4))  # 1x1 blocks only
        memo = {}
        build_basis(P, 5, memo=memo)
        assert memo["schur"].pos == 5
        build_basis(P, 3, memo=memo)
        assert memo["schur"].pos == 5
        build_basis(P, 40, memo=memo)
        assert memo["schur"].pos == 40

    def test_a_handed_out_basis_keeps_its_bytes(self):
        P = chain_matrix(make_symmetric_walk(60, 0.2, seed=2))
        memo = {}
        small = [build_basis(P, K, memo=memo) for K in (1, 2, 7)]
        before = [U.U.tobytes() for U in small]
        build_basis(P, 60, memo=memo)
        assert [U.U.tobytes() for U in small] == before
        for U in small:
            assert not np.shares_memory(U.U, memo["schur"].Z)

    def test_a_failed_sort_is_not_kept(self, monkeypatch):
        real = spectral._flapack()

        class Failing:
            dgees = real.dgees

            @staticmethod
            def dtrexc(*args, **kwargs):
                return real.dtrexc(*args, **kwargs)[:-1] + (1,)

        P = chain_matrix(make_random_mdp(20, 2, seed=1))
        memo = {}
        monkeypatch.setattr(spectral, "_flapack", lambda: Failing)
        with pytest.raises(EigenFailureError, match="trexc info=1"):
            build_basis(P, 20, memo=memo)
        assert memo == {}
        with pytest.raises(EigenFailureError, match="trexc info=1"):
            build_basis(P, 20)

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
        schur = spectral._SchurSort(P)
        schur.sort_to(n)
        T_ref, Z_ref, tol_ref = reference_sorted_real_schur(P)
        assert schur.subdiag_tol == tol_ref
        assert schur.T.tobytes() == T_ref.tobytes()
        assert schur.Z.tobytes() == Z_ref.tobytes()
        if make == "random":
            assert np.count_nonzero(np.abs(np.diag(schur.T, -1)) > tol_ref) > 0


class TestStandardizedSchurForm:
    """_block_moduli starts a block at every row not paired with the one
    above; that partition is the greedy one only because gees and trexc
    return LAPACK's standardized form, whose subdiagonal is exactly 0
    between blocks, so no two above-tol entries are adjacent."""

    @staticmethod
    def no_adjacent_pairs(T, tol):
        paired = np.abs(np.diag(T, -1)) > tol
        return not np.any(paired[1:] & paired[:-1])

    @pytest.mark.parametrize("n", [20, 150])
    @pytest.mark.parametrize("make", ["random", "walk", "gaussian"])
    def test_gees_and_trexc_never_pair_adjacent_rows(self, make, n):
        if make == "random":
            P = chain_matrix(make_random_mdp(n, 2, seed=n))
        elif make == "walk":
            P = chain_matrix(make_symmetric_walk(n, 0.2, seed=n))
        else:
            P = np.random.default_rng(n).standard_normal((n, n))
        schur = spectral._SchurSort(P)  # unsorted: schur.T is _real_schur's T
        assert self.no_adjacent_pairs(schur.T, schur.subdiag_tol)
        schur.sort_to(n)
        assert self.no_adjacent_pairs(schur.T, schur.subdiag_tol)
        assert _schur_block_starts(schur.T, schur.subdiag_tol) == (
            spectral._block_moduli(schur.T, schur.subdiag_tol, 0)[0].tolist()
        )
        if make != "walk":
            assert np.count_nonzero(np.abs(np.diag(schur.T, -1)) > schur.subdiag_tol) > 0


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
