"""Spectral radius computation, orthonormal bases, operator compression,
and matrix-power diagnostics.

Matrix powers are always formed by repeated multiplication, never through
an eigendecomposition, so transient growth of non-normal matrices shows
up in the measured norms instead of being idealized away.

Gelfand norms ||A^k||^(1/k) are taken of powers held as 2^e * B, with e
an exact integer and B's peak |entry| in [0.5, 1): every product is
divided in place by the power of two of its peak (math.frexp and
np.ldexp), which rounds only entries it makes subnormal (below
2^-1022). So no product of two such factors can overflow (its entries
are at most n), and no power is falsely zero or falsely infinite in
either norm. gelfand_finals forms A^k by binary powering, floor(log2 k)
+ popcount(k) - 1 products; gelfand_sequence, which needs every power,
multiplies one factor at a time.

scipy is used only for the two LAPACK routines of schur_dominant bases
of a non-symmetric P, dgees and dtrexc, and its extension module
scipy.linalg._flapack is loaded on the first such Schur build, not at
import; a symmetric P's form comes from numpy's eigh. The loader finds that
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

#: Above this size the dense eigensolver refuses. It is the documented
#: scope, n <= 2000; as rho(P) is a row-sum pass, it limits a compression's K.
DENSE_EIG_LIMIT = 2000

#: Orthonormality tolerance on ||U^T U - I||_max.
ORTHONORMAL_TOL = 1e-12

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
    """(T, Z) of scipy.linalg.schur(P, output="real") for a finite P, with
    the same LAPACK calls (_SchurSort checks P's finiteness, as schur does)."""
    dgees = _flapack().dgees
    result = dgees(_no_sort, P, lwork=-1)  # workspace query
    lwork = result[-2][0].real.astype(np.int_)
    result = dgees(_no_sort, P, lwork=lwork, overwrite_a=False, sort_t=0)
    info = result[-1]
    if info != 0:
        raise EigenFailureError(f"Schur decomposition failed (gees info={info})")
    return result[0], result[-3]


class _SchurSort:
    """A real Schur form P = Z T Z^T whose diagonal blocks are being ordered
    by decreasing modulus.

    A symmetric P's real Schur form is its orthogonal eigendecomposition,
    with T diagonal (Golub & Van Loan, Matrix Computations, Thm 8.1.1): one
    eigh, eigenpairs stably sorted by decreasing |lambda|, gives it fully
    sorted (pos = n). Any other P takes gees, then a selection sort on
    whole 1x1/2x2 blocks: each pass moves the first block of largest
    modulus at or after pos to pos with LAPACK's trexc (Bai & Demmel,
    1993), in place, so complex pairs stay intact; the
    leading columns of Z then span dominant invariant subspaces. A pass at
    pos swaps only blocks at positions >= pos, so the columns of Z before
    pos and T[i + 1, i] for i < pos are final: sort_to(K) runs passes only
    until pos >= K, and a later, larger K continues the same sort.
    """

    def __init__(self, P: np.ndarray):
        a = np.asarray_chkfinite(P)
        # positions before pos hold their final blocks
        if np.array_equal(a, a.T):
            try:
                w, V = np.linalg.eigh(a)
            except np.linalg.LinAlgError as exc:
                raise EigenFailureError("symmetric eigensolver did not converge") from exc
            order = np.argsort(-np.abs(w), kind="stable")
            self.T, self.Z, self.pos = np.diag(w[order]), V[:, order], a.shape[0]
        else:
            T, Z = _real_schur(a)
            self.T, self.Z, self.pos = np.asfortranarray(T), np.asfortranarray(Z), 0
        # above it, T[i + 1, i] pairs rows i and i + 1 into a complex-pair block
        self.subdiag_tol = 100 * np.finfo(np.float64).eps * max(1.0, inf_norm(P))

    def sort_to(self, K: int) -> None:
        while self.pos < K:
            starts, sizes, moduli = _block_moduli(self.T, self.subdiag_tol, self.pos)
            best = int(np.argmax(moduli))
            best_start = int(starts[best])
            if best_start != self.pos:
                self.T, self.Z, info = _flapack().dtrexc(
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
    (spanning the dominant invariant subspace), from one eigh for a
    symmetric P and from gees and trexc for any other; raises
    SplitConjugatePair when K would cut a 2x2 complex-pair block, that is
    when T[K, K-1] is above the form's subdiag_tol (LAPACK's standardized
    form is exactly 0 there between blocks, and a symmetric P's T is
    diagonal). svd_top: top-K left singular vectors.
    random_orthonormal: thin QR of a seeded Gaussian. coordinate: first K
    standard basis vectors.

    memo, if given, is a dict the caller keeps for this one P: the first
    schur_dominant call stores the Schur form in it, sorted only as far as
    the largest K asked so far (a symmetric P's fully), and later calls for
    other K reuse it, extending the sort when K is larger; the first
    svd_top call stores P's left singular vectors under "svd", and later
    calls copy their first K columns. Without one, the call keeps a fresh
    dict of its own and the sort stops at K.
    """
    M = square_matrix(P)
    n = M.shape[0]
    if not (1 <= K <= n):
        raise InvalidKError(f"need 1 <= K <= n, got K={K}, n={n}")
    if strategy not in BASIS_STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose one of {BASIS_STRATEGIES}"
        )
    memo = {} if memo is None else memo
    if strategy == "coordinate":
        U = np.eye(n)[:, :K]
    elif strategy == "random_orthonormal":
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, K))
        U, _ = np.linalg.qr(G, mode="reduced")
    elif strategy == "svd_top":
        left = memo.get("svd")
        if left is None:
            try:
                left = memo["svd"] = np.linalg.svd(M)[0]
            except np.linalg.LinAlgError as exc:
                raise EigenFailureError("SVD did not converge") from exc
        U = left[:, :K]
    else:  # schur_dominant
        schur = memo.get("schur")
        if schur is None:
            schur = memo["schur"] = _SchurSort(M)
        try:
            schur.sort_to(K)
        except EigenFailureError:
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


def _rescale(B: np.ndarray) -> int | None:
    """Divide B in place by 2^e, the power of two that puts its peak |entry|
    in [0.5, 1), and return e; None, leaving B as it is, when B is zero."""
    peak = float(np.abs(B).max())
    if peak == 0.0:
        return None
    e = math.frexp(peak)[1]
    np.ldexp(B, -e, out=B)
    return e


def _scaled_copy(M: np.ndarray) -> tuple[np.ndarray, int | None]:
    """(B, e) with M = 2^e * B, B a rescaled copy of M; e is None for a zero M.

    A non-finite M raises PowerOverflowError with k = 1. It is the only
    power that can: later ones are products of rescaled factors.
    """
    if not np.isfinite(M).all():
        raise PowerOverflowError("A^1 is not finite", k=1)
    B = M.copy()
    return B, _rescale(B)


def _scaled_powers(M: np.ndarray, k_max: int):
    """Yield (k, B, e) with A^k = 2^e * B and B's peak |entry| in [0.5, 1),
    for k = 1, 2, ..., up to k_max or to the last power before the first
    zero one.

    Each B is the previous one times the rescaled copy of M, then
    rescaled. The products go into two buffers in turn, so a yielded B
    holds its values until the next step only.
    """
    base, e_base = _scaled_copy(M)
    if e_base is None:
        return
    B, e = base, e_base
    yield 1, B, e
    buffers = (np.empty_like(M), np.empty_like(M))
    for k in range(2, k_max + 1):
        B = np.dot(B, base, out=buffers[k % 2])
        shift = _rescale(B)
        if shift is None:
            return  # every later power is zero too
        e += e_base + shift
        yield k, B, e


def _gelfand_value(nrm: float, e: int, k: int) -> float:
    """exp((e ln 2 + ln nrm) / k), the whole powers of two of 2^(e/k) applied exactly."""
    q, r = divmod(e, k)
    return math.ldexp(math.exp((r * math.log(2.0) + math.log(nrm)) / k), q)


def gelfand_sequence(A, k_max: int, norm_kind: str = "two_norm") -> np.ndarray:
    """Norm sequence ||A^k||^(1/k) for k = 1..k_max by repeated multiplication,
    as a read-only array whose entry k - 1 is the k-th value.

    Each power is held as 2^e * B with B's peak |entry| in [0.5, 1), so its
    value exp((e ln 2 + ln ||B||) / k) stays accurate wherever ||A^k||
    lies; it is 0.0 from the first exactly zero power on. A non-finite A
    raises PowerOverflowError with k = 1; no later power can overflow.
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
    for k, B, e in _scaled_powers(M, k_max):
        values[k - 1] = _gelfand_value(norm(B), e, k)
    return _frozen_array(values)


def gelfand_finals(A, k_max: int) -> tuple[float, float]:
    """||A^k_max||^(1/k_max) in the two-norm and the inf-norm, from one power.

    A^k_max = 2^e * R comes from binary powering (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 18): starting from the
    rescaled copy of A, the base is squared, and multiplied into R at each
    set bit of k_max, floor(log2 k_max) + popcount(k_max) - 1 products in
    all; every product is rescaled by a power of two, which e carries.
    Each value is exp((e ln 2 + ln ||R||) / k_max). They agree with the
    last entries of gelfand_sequence up to rounding, not bit for bit: the
    products differ. Both are 0.0 only for a zero A or an exactly zero
    power; a non-finite A raises PowerOverflowError with k = 1.
    """
    M = square_matrix(A)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    base, e_base = _scaled_copy(M)
    R, e, k = None, 0, k_max
    while e_base is not None:
        if k & 1:
            if R is None:
                R, e = base, e_base
            else:
                R = R @ base
                shift = _rescale(R)
                if shift is None:
                    break
                e += e_base + shift
        k >>= 1
        if not k:
            return tuple(_gelfand_value(norm(R), e, k_max) for norm in (two_norm, inf_norm))
        base = base @ base
        shift = _rescale(base)
        e_base = None if shift is None else 2 * e_base + shift
    return 0.0, 0.0  # A, or a power of it, is exactly zero


def power_vanishing_check(A, k_max: int, threshold: float) -> tuple[bool, int | None, float]:
    """Does ||A^k||_max fall to the threshold within k_max powers?

    Returns (vanishes, first_k, final_norm): first_k is the first power
    whose computed max-norm is at or below the threshold, None if none
    is. Overflow folds into vanishes=False with final_norm=inf (itself
    evidence that rho > 1). The scan (kernels.power_max_norms) skips a
    chunk of c powers with one product when a norm bound proves that
    none of them reaches the threshold or overflows: ||A^(k0+c)||_max is
    at most L * ||A^(k0+j)||_max for each j in 1..c, with L from the
    row-sum and column-sum norms of A^1..A^(c-1).
    """
    M = square_matrix(A)
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    if threshold <= 0:
        raise InvalidParameterError("threshold must be positive")
    return kernels.power_max_norms(M, int(k_max), threshold)
