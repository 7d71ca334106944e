"""Spectral radius computation, orthonormal bases, operator compression,
and matrix-power diagnostics.

Matrix powers are always formed by repeated multiplication, never through
an eigendecomposition, so transient growth of non-normal matrices shows
up in the measured norms instead of being idealized away.

scipy is used only for the two LAPACK routines of schur_dominant bases,
dgees and dtrexc, and its extension module scipy.linalg._flapack is
loaded on the first Schur build, not at import. The loader finds that
extension by path and runs it alone: `import scipy.linalg` would first run
the package __init__, whose array-API shim also imports numpy.f2py,
numpy.testing and numpy.ma (about 0.33 s, more than a small batch takes).
The module is registered under its own name, so a later
`import scipy.linalg` reuses the same object.

The extension brings scipy's bundled OpenBLAS, a second thread pool beside
numpy's. By default an idle OpenBLAS worker busy-waits for 2**28 cycles
(about 0.1 s) before it sleeps, so after each scipy call its workers would
spin on the cores numpy's BLAS then runs on. OpenBLAS reads
OPENBLAS_THREAD_TIMEOUT once, when the library is dlopened, which happens
in module_from_spec (not exec_module); the loader sets it to 4, the least
value, around that call only, unless the user has set it, and then removes
it again. Thread counts and work splits are unchanged, so every result
keeps its bytes. numpy's pool keeps its default: its power chains make
back-to-back products, each of which would then have to wake a sleeping
worker.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatchError,
    EigenFailureError,
    InvalidKError,
    InvalidParameterError,
    MatrixTooLargeError,
    NonSquareError,
    PowerOverflowError,
    SplitConjugatePairError,
)
from .mdp import DiscountFactor, StochasticMatrix, as_discount

#: Above this size the dense eigensolver refuses; use an explicit estimator.
#: It is the documented scope, n <= 2000, where one dense eigvals takes
#: about 3 s.
DENSE_EIG_LIMIT = 2000

#: Orthonormality tolerance on ||U^T U - I||_max.
ORTHONORMAL_TOL = 1e-12

#: Rescaling window for the scaled power chain of the Gelfand norms.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

BASIS_STRATEGIES = ("schur_dominant", "svd_top", "random_orthonormal", "coordinate")
NORM_KINDS = ("two_norm", "inf_norm")


def square_matrix(M) -> np.ndarray:
    """Coerce StochasticMatrix / CompressedOperator / array to a square float array."""
    if isinstance(M, StochasticMatrix):
        M = M.entries
    elif isinstance(M, CompressedOperator):
        M = M.A
    out = np.ascontiguousarray(M, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {out.shape}")
    return out


def two_norm(M) -> float:
    """Spectral norm as sqrt of the dominant eigenvalue of the Gram matrix M^T M.

    Non-finite input (e.g. an overflowed power) reports as inf so callers
    can surface it as overflow.
    """
    M = np.asarray(M, dtype=np.float64)
    if not np.all(np.isfinite(M)):
        return math.inf
    with np.errstate(over="ignore"):
        gram = M.T @ M
    if not np.all(np.isfinite(gram)):
        return math.inf
    try:
        ev = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError("Gram eigensolve failed") from exc
    top = float(ev[-1])
    return math.sqrt(top) if top > 0.0 else 0.0


def inf_norm(M) -> float:
    """Induced infinity norm: maximum absolute row sum."""
    M = np.asarray(M, dtype=np.float64)
    return float(np.abs(M).sum(axis=1).max())


@dataclass(frozen=True)
class SpectralEstimate:
    """Spectral-radius value plus how it was obtained."""

    rho: float
    method: str
    iterations: int
    residual: float
    converged: bool = True


@dataclass(frozen=True)
class OrthonormalBasis:
    """n x K matrix with orthonormal columns, tagged by construction strategy."""

    U: np.ndarray
    strategy: str = "custom"

    def __post_init__(self):
        U = np.ascontiguousarray(self.U, dtype=np.float64)
        if U.ndim != 2:
            raise DimensionMismatchError("basis must be a 2-D array")
        n, K = U.shape
        if not (1 <= K <= n):
            raise InvalidKError(f"need 1 <= K <= n, got K={K}, n={n}")
        gram_err = np.abs(U.T @ U - np.eye(K)).max()
        if gram_err > ORTHONORMAL_TOL:
            raise InvalidParameterError(
                f"columns are not orthonormal: ||U^T U - I||_max = {gram_err:.3e}"
            )
        U.setflags(write=False)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def K(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class CompressedOperator:
    """K x K compression U^T P U of an n x n operator onto span(U)."""

    A: np.ndarray
    source: np.ndarray | None = None
    basis: OrthonormalBasis | None = None

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSquareError(f"compressed operator must be square, got {A.shape}")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def K(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GelfandSequence:
    """values[k-1] = ||A^k||^(1/k), k = 1..k_max, for one norm kind."""

    norm_kind: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class BoundedPowerEstimate:
    """M = max_k ||(sqrt(alpha) A)^k||_2 over k = 0..k_max."""

    M: float
    k_max: int
    alpha: DiscountFactor


@dataclass(frozen=True)
class VanishingCheck:
    """Outcome of scanning whether A^k falls below a max-norm threshold."""

    vanishes: bool
    first_k: int | None
    final_norm: float


@dataclass(frozen=True)
class SortedSchur:
    """What schur_dominant bases use of a modulus-sorted real Schur form P = Z T Z^T."""

    Z: np.ndarray  # Schur vectors, blocks by decreasing modulus
    subdiag: np.ndarray  # T[i + 1, i]
    subdiag_tol: float  # above it, rows i and i + 1 hold a complex-pair block

    def __post_init__(self):
        self.Z.setflags(write=False)


@dataclass(frozen=True)
class CompressionRadiusCheck:
    """Measured rho(P), rho(U^T P U) and their ratio for one (P, U) pair."""

    rho_P: float
    rho_A: float
    ratio: float

    @classmethod
    def of(cls, rho_P: float, rho_A: float) -> "CompressionRadiusCheck":
        return cls(rho_P=rho_P, rho_A=rho_A, ratio=rho_A / rho_P if rho_P > 0 else math.inf)


def spectral_radius(M) -> SpectralEstimate:
    """Exact spectral radius max_i |lambda_i(M)| via the dense eigensolver.

    Restricted to n <= DENSE_EIG_LIMIT (2000, the documented scope); for
    larger matrices request an estimator explicitly
    (power_iteration_radius or gelfand_sequence).
    """
    A = square_matrix(M)
    n = A.shape[0]
    if n > DENSE_EIG_LIMIT:
        raise MatrixTooLargeError(
            f"n={n} exceeds the dense limit {DENSE_EIG_LIMIT}, the documented "
            "scope; use power_iteration_radius or gelfand_sequence instead"
        )
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError("dense eigensolver did not converge") from exc
    return SpectralEstimate(
        rho=float(np.abs(eigs).max()),
        method="dense_eig",
        iterations=0,
        residual=0.0,
    )


def power_iteration_radius(
    M, tol: float = 1e-10, max_iter: int = 10000, seed: int = 0
) -> SpectralEstimate:
    """Dominant eigenvalue modulus by normalized power iteration.

    Starts from a seeded random unit vector; the returned residual is the
    final Rayleigh-quotient movement. Convergence additionally requires a
    small eigenpair residual ||Mv - nu*v||, so a tie in modulus between
    distinct eigenvalues (e.g. +1/-1, or a complex pair) surfaces as
    converged=False rather than a silently wrong value. Unreliable by
    nature whenever the dominant modulus is attained more than once.
    """
    A = square_matrix(M)
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    nu_prev = np.inf
    nu = 0.0
    movement = np.inf
    for it in range(1, max_iter + 1):
        w = A @ v
        wn = np.linalg.norm(w)
        if wn == 0.0:
            # v landed in the kernel; modulus estimate collapses to 0
            return SpectralEstimate(0.0, "power_iteration", it, 0.0, True)
        nu = float(v @ w)
        movement = abs(nu - nu_prev)
        pair_residual = float(np.linalg.norm(w - nu * v))
        v = w / wn
        if movement <= tol and pair_residual <= tol * max(1.0, abs(nu)):
            return SpectralEstimate(abs(nu), "power_iteration", it, movement, True)
        nu_prev = nu
    return SpectralEstimate(abs(nu), "power_iteration", max_iter, movement, False)


def _schur_block_starts(T: np.ndarray, tol: float) -> list[int]:
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


def _block_moduli(T: np.ndarray, tol: float, pos: int):
    """Starts, sizes and eigenvalue moduli of the diagonal blocks at or after pos.

    The blocks are the greedy partition of _schur_block_starts: an
    above-tol subdiagonal entry T[i+1, i] pairs rows i and i+1.
    """
    n = T.shape[0]
    paired = np.abs(np.diag(T, -1)) > tol
    if np.any(paired[1:] & paired[:-1]):
        # adjacent above-tol entries: only the greedy scan pairs them right
        starts = np.array(_schur_block_starts(T, tol), dtype=np.intp)
    else:
        starts = np.flatnonzero(np.concatenate(([True], ~paired)))
    starts = starts[starts >= pos]
    sizes = np.diff(np.append(starts, n))
    moduli = np.abs(T[starts, starts])
    two = np.flatnonzero(sizes == 2)
    if two.size:
        s = starts[two]
        blocks = np.empty((two.size, 2, 2))
        blocks[:, 0, 0] = T[s, s]
        blocks[:, 0, 1] = T[s, s + 1]
        blocks[:, 1, 0] = T[s + 1, s]
        blocks[:, 1, 1] = T[s + 1, s + 1]
        moduli[two] = np.abs(np.linalg.eigvals(blocks)).max(axis=1)
    return starts, sizes, moduli


_FLAPACK = "scipy.linalg._flapack"

_THREAD_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


@contextmanager
def _short_blas_spin():
    """OPENBLAS_THREAD_TIMEOUT at its least value, 4, inside; a value the user set wins."""
    if _THREAD_TIMEOUT in os.environ:
        yield
        return
    os.environ[_THREAD_TIMEOUT] = "4"
    try:
        yield
    finally:
        del os.environ[_THREAD_TIMEOUT]


def _flapack():
    """scipy's LAPACK extension module, loaded without the scipy.linalg package."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg_dirs = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg_dirs)
    with _short_blas_spin():  # the library is dlopened here, not in exec_module
        if spec is None:
            from scipy.linalg import _flapack

            return _flapack
        module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _no_sort(x, y=None):
    return None


def _real_schur(P: np.ndarray):
    """(T, Z) of scipy.linalg.schur(P, output="real"), with the same LAPACK calls."""
    a = np.asarray_chkfinite(P)
    dgees = _flapack().dgees
    result = dgees(_no_sort, a, lwork=-1)  # workspace query
    lwork = result[-2][0].real.astype(np.int_)
    result = dgees(_no_sort, a, lwork=lwork, overwrite_a=False, sort_t=0)
    info = result[-1]
    if info != 0:
        raise EigenFailureError(f"Schur decomposition failed (gees info={info})")
    return result[0], result[-3]


def _sorted_real_schur(P: np.ndarray):
    """Real Schur form with diagonal blocks ordered by decreasing modulus.

    A selection sort on whole 1x1/2x2 blocks: each pass moves the first
    block of largest modulus at or after pos to pos with LAPACK's trexc
    (Bai & Demmel, 1993), in place, so complex pairs stay intact; the
    leading columns of the returned Q then span dominant invariant
    subspaces.
    """
    T, Z = _real_schur(P)
    n = P.shape[0]
    subdiag_tol = 100 * np.finfo(np.float64).eps * max(1.0, inf_norm(P))
    T = np.asfortranarray(T)
    Z = np.asfortranarray(Z)
    dtrexc = _flapack().dtrexc
    pos = 0
    while pos < n:
        starts, sizes, moduli = _block_moduli(T, subdiag_tol, pos)
        best = int(np.argmax(moduli))
        best_start = int(starts[best])
        if best_start != pos:
            T, Z, info = dtrexc(
                T, Z, best_start + 1, pos + 1, overwrite_a=1, overwrite_q=1
            )
            if info != 0:
                raise EigenFailureError(f"Schur reordering failed (trexc info={info})")
        pos += int(sizes[best])
    return T, Z, subdiag_tol


def build_basis(
    P, K: int, strategy: str = "schur_dominant", seed: int = 0, memo: dict | None = None
) -> OrthonormalBasis:
    """Construct an n x K orthonormal basis by the named strategy.

    schur_dominant: first K vectors of the modulus-sorted real Schur form
    (spanning the dominant invariant subspace); raises SplitConjugatePair
    when K would cut a 2x2 complex-pair block. svd_top: top-K left
    singular vectors. random_orthonormal: thin QR of a seeded Gaussian.
    coordinate: first K standard basis vectors.

    memo, if given, is a dict the caller keeps for this one P: the first
    schur_dominant call stores the sorted Schur form in it, and later
    calls for other K reuse it.
    """
    M = square_matrix(P)
    n = M.shape[0]
    if not (1 <= K <= n):
        raise InvalidKError(f"need 1 <= K <= n, got K={K}, n={n}")
    if strategy not in BASIS_STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose one of {BASIS_STRATEGIES}"
        )
    if strategy == "coordinate":
        U = np.eye(n)[:, :K]
    elif strategy == "random_orthonormal":
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, K))
        U, _ = np.linalg.qr(G, mode="reduced")
    elif strategy == "svd_top":
        try:
            left, _, _ = np.linalg.svd(M)
        except np.linalg.LinAlgError as exc:
            raise EigenFailureError("SVD did not converge") from exc
        U = left[:, :K]
    else:  # schur_dominant
        schur = memo.get("schur") if memo is not None else None
        if schur is None:
            T, Z, subdiag_tol = _sorted_real_schur(M)
            schur = SortedSchur(Z, np.diag(T, -1).copy(), subdiag_tol)
            if memo is not None:
                memo["schur"] = schur
        if K < n and abs(schur.subdiag[K - 1]) > schur.subdiag_tol:
            raise SplitConjugatePairError(
                f"K={K} cuts a 2x2 complex-pair Schur block; use K={K + 1} "
                "or another strategy"
            )
        U = schur.Z[:, :K]
    return OrthonormalBasis(np.ascontiguousarray(U), strategy)


def compress(P, U: OrthonormalBasis) -> CompressedOperator:
    """A = U^T P U, computed as the two products (U^T P) U in that order."""
    M = square_matrix(P)
    if U.n != M.shape[0]:
        raise DimensionMismatchError(
            f"basis rows {U.n} do not match matrix size {M.shape[0]}"
        )
    A = (U.U.T @ M) @ U.U
    return CompressedOperator(A, source=M, basis=U)


def _scaled_powers(M: np.ndarray, k_max: int):
    """Yield (k, B, log_scale) with A^k = exp(log_scale) * B for k = 1..k_max.

    B is A itself at k = 1. Each later B is the previous one times A,
    divided by its peak |entry| whenever that peak leaves
    [_RESCALE_LO, _RESCALE_HI], so it is exactly zero or has its peak in
    that window. A non-finite product raises PowerOverflowError with its k.
    """
    B = M.copy()
    log_scale = 0.0
    for k in range(1, k_max + 1):
        yield k, B, log_scale
        if k < k_max:
            B = B @ M
            peak = float(np.abs(B).max())
            if not math.isfinite(peak):
                raise PowerOverflowError(f"A^{k + 1} left the representable range", k=k + 1)
            if peak > _RESCALE_HI or (0.0 < peak < _RESCALE_LO):
                B = B / peak
                log_scale += math.log(peak)


def _gelfand_value(nrm: float, log_scale: float, k: int) -> float:
    return math.exp((log_scale + math.log(nrm)) / k)


def gelfand_sequence(A, k_max: int, norm_kind: str = "two_norm") -> GelfandSequence:
    """Norm sequence ||A^k||^(1/k) for k = 1..k_max by repeated multiplication.

    The running power is periodically rescaled (with the log of the scale
    carried separately) so values stay accurate even when ||A^k|| leaves
    the comfortable floating-point range; a genuine non-finite product
    still raises PowerOverflowError with the offending k.
    """
    M = square_matrix(A)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    if norm_kind not in NORM_KINDS:
        raise InvalidParameterError(
            f"unknown norm kind {norm_kind!r}; choose one of {NORM_KINDS}"
        )
    norm = two_norm if norm_kind == "two_norm" else inf_norm
    values = np.zeros(k_max)
    for k, B, log_scale in _scaled_powers(M, k_max):
        nrm = norm(B)
        if not math.isfinite(nrm):
            raise PowerOverflowError(f"||A^{k}|| is not finite", k=k)
        if nrm == 0.0:
            break  # nilpotent from here on; later powers stay zero
        values[k - 1] = _gelfand_value(nrm, log_scale, k)
    return GelfandSequence(norm_kind, values)


def gelfand_finals(A, k_max: int) -> tuple[float, float]:
    """||A^k_max||^(1/k_max) in the two-norm and the inf-norm, from one power chain.

    Bit for bit the last values of gelfand_sequence(A, k_max, kind) for
    both kinds, with the same PowerOverflowError where either raises. Only
    A itself can have a non-finite or falsely zero norm (its Gram matrix
    can overflow or underflow): every later power is exactly zero or has
    its peak |entry| in the rescaling window, so its norms are finite and
    positive. The norms are therefore taken of A and of the last power
    only, and the chain stops at the first zero power.
    """
    M = square_matrix(A)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    norms = (two_norm, inf_norm)
    live = []
    for norm in norms:
        nrm = norm(M)
        if not math.isfinite(nrm):
            raise PowerOverflowError("||A^1|| is not finite", k=1)
        live.append(nrm > 0.0)
    if not any(live):
        return 0.0, 0.0
    for _, B, log_scale in _scaled_powers(M, k_max):
        if not B.any():
            return 0.0, 0.0
    return tuple(
        _gelfand_value(norm(B), log_scale, k_max) if alive else 0.0
        for norm, alive in zip(norms, live)
    )


def power_vanishing_check(A, k_max: int, threshold: float) -> VanishingCheck:
    """Does ||A^k||_max fall to the threshold within k_max multiplications?

    Overflow folds into vanishes=False with final_norm=inf (itself
    evidence that rho > 1).
    """
    M = square_matrix(A)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    if threshold <= 0:
        raise InvalidParameterError("threshold must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        vanished, first_k, final_norm = kernels.power_max_norms(
            kernels.as_kernel_matrix(M), k_max, threshold
        )
    return VanishingCheck(bool(vanished), int(first_k) if vanished else None, float(final_norm))


def bounded_power_constant(A, alpha, k_max: int) -> BoundedPowerEstimate:
    """M = max_{0 <= k <= k_max} ||(sqrt(alpha) A)^k||_2 (the k=0 term is 1).

    Raw repeated multiplication, so transient growth of non-normal A is
    measured; a power leaving the representable range raises
    PowerOverflowError, which numerically indicates rho(sqrt(alpha) A) >= 1.
    """
    M = square_matrix(A)
    alpha = as_discount(alpha)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    S = math.sqrt(float(alpha)) * M
    B = np.eye(M.shape[0])
    bound = 1.0
    for k in range(1, k_max + 1):
        B = B @ S
        nrm = two_norm(B)
        if not math.isfinite(nrm):
            raise PowerOverflowError(
                f"||(sqrt(alpha) A)^{k}||_2 is not finite", k=k
            )
        if nrm > bound:
            bound = nrm
    return BoundedPowerEstimate(M=bound, k_max=k_max, alpha=alpha)


def check_compression_radius(P, U: OrthonormalBasis) -> CompressionRadiusCheck:
    """Measure rho(P) and rho(U^T P U) by the dense path and report both.

    This tests the claim that compression preserves the spectral radius
    instead of assuming it; callers aggregate the measured ratios.
    """
    M = square_matrix(P)
    rho_P = spectral_radius(M).rho
    A = compress(M, U)
    return CompressionRadiusCheck.of(rho_P, spectral_radius(A.A).rho)
