"""Spectral radius computation, orthonormal bases, operator compression,
and matrix-power diagnostics.

Matrix powers are always formed by repeated multiplication, never through
an eigendecomposition, so transient growth of non-normal matrices shows
up in the measured norms instead of being idealized away.

Gelfand norms ||A^k||^(1/k) come from one scaled power chain, which
rescales a power whose peak |entry| leaves [1e-100, 1e100]. Scanning each
power for its peak costs more than its own time, since the scan sits
between two BLAS products, so the chain skips it where a bound proves it
would not fire: for A >= 0 entrywise with positive row sums, the error
bound of sums of nonnegative terms (Higham, 2002) keeps every row sum of
the k-th computed power within ((1 +- gamma) * row sum of A)^k, and the
peak lies between the largest row sum / n and the largest row sum. Every
transition matrix the generators make meets it, past k = 10^14 for n <= 2000.

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
from functools import cached_property

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
from .mdp import StochasticMatrix, _frozen_array

#: Above this size the dense eigensolver refuses.
#: It is the documented scope, n <= 2000, where one dense eigvals takes
#: about 3 s.
DENSE_EIG_LIMIT = 2000

#: Orthonormality tolerance on ||U^T U - I||_max.
ORTHONORMAL_TOL = 1e-12

#: Rescaling window for the scaled power chain of the Gelfand norms.
_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100

#: Unit roundoff of float64, the bound on the relative error of one rounding.
_UNIT_ROUNDOFF = 2.0**-53

BASIS_STRATEGIES = ("schur_dominant", "svd_top", "random_orthonormal", "coordinate")
NORM_KINDS = ("two_norm", "inf_norm")


def square_matrix(M) -> np.ndarray:
    """Coerce a StochasticMatrix or an array to a square float array."""
    if isinstance(M, StochasticMatrix):
        M = M.entries
    out = np.ascontiguousarray(M, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {out.shape}")
    if out.shape[0] < 1:
        raise NonSquareError("matrix must be at least 1x1")
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
class OrthonormalBasis:
    """n x K matrix with orthonormal columns."""

    U: np.ndarray

    def __post_init__(self):
        U = _frozen_array(self.U)
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
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def K(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class CompressedOperator:
    """K x K compression U^T P U of an n x n operator onto span(U), with
    the basis U it was formed from.

    rho, its spectral radius, is computed on first use and kept; a failed
    eigensolve is not kept, so the next use tries again.
    """

    A: np.ndarray
    basis: OrthonormalBasis

    def __post_init__(self):
        A = _frozen_array(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSquareError(f"compressed operator must be square, got {A.shape}")
        if self.basis.K != A.shape[0]:
            raise DimensionMismatchError(
                f"basis has K={self.basis.K} columns, compressed operator is {A.shape}"
            )
        object.__setattr__(self, "A", A)

    @cached_property
    def rho(self) -> float:
        return spectral_radius(self.A)


@dataclass(frozen=True)
class VanishingCheck:
    """Outcome of scanning whether A^k falls below a max-norm threshold."""

    vanishes: bool
    first_k: int | None
    final_norm: float


def spectral_radius(M) -> float:
    """Exact spectral radius max_i |lambda_i(M)| via the dense eigensolver.

    Restricted to n <= DENSE_EIG_LIMIT (2000, the documented scope); for
    larger matrices gelfand_sequence gives upper bounds ||A^k||^(1/k) that
    converge to it.
    """
    A = square_matrix(M)
    n = A.shape[0]
    if n > DENSE_EIG_LIMIT:
        raise MatrixTooLargeError(
            f"n={n} exceeds the dense limit {DENSE_EIG_LIMIT}, the documented "
            "scope; use gelfand_sequence instead"
        )
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError("dense eigensolver did not converge") from exc
    return float(np.abs(eigs).max())


def _block_moduli(T: np.ndarray, tol: float, pos: int):
    """Starts, sizes and eigenvalue moduli of the diagonal blocks at or after pos.

    An above-tol subdiagonal entry T[i+1, i] pairs rows i and i+1. gees
    and trexc return LAPACK's standardized real Schur form, whose
    subdiagonal is exactly 0 between blocks, so no two such entries are
    adjacent and every row not paired with the one above starts a block.
    """
    n = T.shape[0]
    paired = np.abs(np.diag(T, -1)) > tol
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


class _SchurSort:
    """A real Schur form P = Z T Z^T whose diagonal blocks are being ordered
    by decreasing modulus.

    A selection sort on whole 1x1/2x2 blocks: each pass moves the first
    block of largest modulus at or after pos to pos with LAPACK's trexc
    (Bai & Demmel, 1993), in place, so complex pairs stay intact; the
    leading columns of Z then span dominant invariant subspaces. A pass at
    pos swaps only blocks at positions >= pos, so the columns of Z before
    pos and T[i + 1, i] for i < pos are final: sort_to(K) runs passes only
    until pos >= K, and a later, larger K continues the same sort.
    """

    def __init__(self, P: np.ndarray):
        T, Z = _real_schur(P)
        self.T = np.asfortranarray(T)
        self.Z = np.asfortranarray(Z)
        # above it, T[i + 1, i] pairs rows i and i + 1 into a complex-pair block
        self.subdiag_tol = 100 * np.finfo(np.float64).eps * max(1.0, inf_norm(P))
        self.pos = 0  # positions before pos hold their final blocks

    def sort_to(self, K: int) -> None:
        dtrexc = _flapack().dtrexc
        while self.pos < K:
            starts, sizes, moduli = _block_moduli(self.T, self.subdiag_tol, self.pos)
            best = int(np.argmax(moduli))
            best_start = int(starts[best])
            if best_start != self.pos:
                self.T, self.Z, info = dtrexc(
                    self.T, self.Z, best_start + 1, self.pos + 1, overwrite_a=1, overwrite_q=1
                )
                if info != 0:
                    raise EigenFailureError(f"Schur reordering failed (trexc info={info})")
            self.pos += int(sizes[best])


def build_basis(
    P, K: int, strategy: str = "schur_dominant", seed: int = 0, memo: dict | None = None
) -> OrthonormalBasis:
    """Construct an n x K orthonormal basis by the named strategy.

    schur_dominant: first K vectors of the modulus-sorted real Schur form
    (spanning the dominant invariant subspace); raises SplitConjugatePair
    when K would cut a 2x2 complex-pair block, that is when T[K, K-1] is
    above the form's subdiag_tol (LAPACK's standardized form is exactly 0
    there between blocks). svd_top: top-K left singular vectors.
    random_orthonormal: thin QR of a seeded Gaussian. coordinate: first K
    standard basis vectors.

    memo, if given, is a dict the caller keeps for this one P: the first
    schur_dominant call stores the Schur form in it, sorted only as far as
    the largest K asked so far, and later calls for other K reuse it,
    extending the sort when K is larger. Without a memo the sort stops at K.
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
            schur = _SchurSort(M)
            if memo is not None:
                memo["schur"] = schur
        try:
            schur.sort_to(K)
        except EigenFailureError:
            if memo is not None:
                del memo["schur"]  # a failed sort is not reused
            raise
        if K < n and abs(schur.T[K, K - 1]) > schur.subdiag_tol:
            raise SplitConjugatePairError(
                f"K={K} cuts a 2x2 complex-pair Schur block; use K={K + 1} "
                "or another strategy"
            )
        # OrthonormalBasis keeps a copy; the memo's Z stays the working
        # array of later passes
        U = schur.Z[:, :K]
    return OrthonormalBasis(U)


def compress(P, U: OrthonormalBasis) -> CompressedOperator:
    """A = U^T P U, computed as the two products (U^T P) U in that order."""
    M = square_matrix(P)
    if U.n != M.shape[0]:
        raise DimensionMismatchError(
            f"basis rows {U.n} do not match matrix size {M.shape[0]}"
        )
    A = (U.U.T @ M) @ U.U
    return CompressedOperator(A, basis=U)


def _scan_free_horizon(M: np.ndarray, k_max: int) -> int:
    """The last k <= k_max such that every power M^1..M^k that _scaled_powers
    forms is provably nonzero and finite, with its peak |entry| in
    [_RESCALE_LO, _RESCALE_HI]; 0 where nothing is proven.

    It is proven for M >= 0 entrywise with positive row sums. In any
    summation order, a computed entry of a product of nonnegative n x n
    matrices, and a computed row sum of M, is the exact value times
    1 + theta with |theta| <= gamma = (n+1)u / (1 - (n+1)u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1;
    the +1 over the n terms of a dot product covers products that
    underflow, which err by at most 2^-1075 each). So with M's exact row
    sums in [r_lo, r_hi], every row sum of the k-th computed power lies in
    [((1-gamma) r_lo)^(k-1) r_lo, ((1+gamma) r_hi)^(k-1) r_hi], and its
    peak lies between its largest row sum / n and its largest row sum. Each
    bound is rounded outward here, step by step.
    """
    n = M.shape[0]
    if not M.min() >= 0.0:  # a negative entry, or a NaN
        return 0
    sums = M.sum(axis=1)
    c = (n + 1) * _UNIT_ROUNDOFF  # exact, and so is 1 - c
    gamma = _up(c / (1.0 - c))
    shrink, grow = _down(1.0 - gamma), _up(1.0 + gamma)
    lo = _down(float(sums.min()) * shrink)  # <= s_lo / (1 + gamma)
    hi = _up(float(sums.max()) / shrink)  # >= s_hi / (1 - gamma)
    per_lo, per_hi = _down(shrink * lo), _up(grow * hi)  # one product's factors
    least = _up(n * _RESCALE_LO)  # a row sum that proves a peak >= _RESCALE_LO
    for k in range(1, k_max + 1):
        if not (least <= lo and hi <= _RESCALE_HI):
            return k - 1
        lo, hi = _down(lo * per_lo), _up(hi * per_hi)
    return k_max


def _down(x: float) -> float:
    """The float below x: a lower bound of the exact value that x rounds."""
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    """The float above x: an upper bound of the exact value that x rounds."""
    return math.nextafter(x, math.inf)


def _scaled_powers(M: np.ndarray, k_max: int):
    """Yield (k, B, log_scale) with A^k = exp(log_scale) * B for k = 1, 2, ...,
    up to k_max or to the last power before the first zero one.

    B is M itself at k = 1. Each later B is the previous one times M,
    divided by its peak |entry| whenever that peak leaves
    [_RESCALE_LO, _RESCALE_HI], so it has its peak in that window. A
    non-finite product raises PowerOverflowError with its k, so callers
    iterate under np.errstate(over="ignore", invalid="ignore"). Powers up to
    _scan_free_horizon are not scanned for their peak: it provably needs no
    rescale, and they are neither zero nor non-finite. The products go into
    two buffers in turn, so a yielded B holds its values until the next
    step only; once the chain ends, only the last B's buffer stays alive.
    """
    B = M
    log_scale = 0.0
    yield 1, B, log_scale
    horizon = _scan_free_horizon(M, k_max)
    buffers = (np.empty_like(M), np.empty_like(M))
    scratch = np.empty_like(M) if horizon < k_max else None
    for k in range(2, k_max + 1):
        B = np.dot(B, M, out=buffers[k % 2])
        if k > horizon:
            peak = float(np.abs(B, out=scratch).max())
            if not math.isfinite(peak):
                raise PowerOverflowError(f"A^{k} left the representable range", k=k)
            if peak == 0.0:
                return  # every later power is zero too
            if peak > _RESCALE_HI or peak < _RESCALE_LO:
                np.divide(B, peak, out=B)
                log_scale += math.log(peak)
        yield k, B, log_scale


def _gelfand_value(nrm: float, log_scale: float, k: int) -> float:
    return math.exp((log_scale + math.log(nrm)) / k)


def gelfand_sequence(A, k_max: int, norm_kind: str = "two_norm") -> np.ndarray:
    """Norm sequence ||A^k||^(1/k) for k = 1..k_max by repeated multiplication,
    as a read-only array whose entry k - 1 is the k-th value.

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
    with np.errstate(over="ignore", invalid="ignore"):
        for k, B, log_scale in _scaled_powers(M, k_max):
            nrm = norm(B)
            if not math.isfinite(nrm):
                raise PowerOverflowError(f"||A^{k}|| is not finite", k=k)
            if nrm == 0.0:
                break  # nilpotent from here on; later powers stay zero
            values[k - 1] = _gelfand_value(nrm, log_scale, k)
    return _frozen_array(values)


def gelfand_finals(A, k_max: int) -> tuple[float, float]:
    """||A^k_max||^(1/k_max) in the two-norm and the inf-norm, from one power chain.

    Bit for bit the last entries of gelfand_sequence(A, k_max, kind) for
    both kinds, with the same PowerOverflowError where either raises. Only
    A itself can have a non-finite or falsely zero norm (its Gram matrix
    can overflow or underflow): every later power is exactly zero or has
    its peak |entry| in the rescaling window, so its norms are finite and
    positive. The norms are therefore taken of A and of the last power
    only, and the chain stops at the first zero power.

    Between two products the chain scans the power for its peak, unless a
    bound from A's row sums proves that the peak needs no rescale: for an
    entrywise nonnegative A with positive row sums, such as any transition
    matrix, every row sum of the k-th computed power lies within
    ((1 +- gamma) * row sum of A)^k, gamma = (n+1) 2^-53 / (1 - (n+1) 2^-53)
    (the error bound of sums of nonnegative terms), and the peak within a
    factor n of the largest row sum. For a stochastic A with n <= 2000
    that rules out every scan up to k = 10^14 at least; a signed A, such as
    a compression U^T P U, is scanned at every power. The products are the
    same either way, and so are the values.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for k, B, log_scale in _scaled_powers(M, k_max):
            pass
    if k < k_max:
        return 0.0, 0.0  # the chain stopped at a zero power
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
    return VanishingCheck(*kernels.power_max_norms(M, int(k_max), threshold))
