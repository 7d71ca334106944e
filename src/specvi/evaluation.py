"""Exact and spectrally-projected value iteration for policy evaluation.

The projected recursion runs in the K-dimensional subspace:

    v~(0) = 0,   v~(k+1) = U^T c + alpha * (U^T P U) v~(k)

with the compression A = U^T P U and constant term b = U^T c formed once.
Exact value iteration is the same affine loop with A = P, b = c. Both go
through the shared kernel, so the K = n coordinate case reproduces the
exact iterates bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatchError,
    InsufficientTraceError,
    InvalidParameterError,
    PowerOverflowError,
    SingularSystemError,
    ZeroResidualError,
)
from .kernels import RunStatus
from .mdp import InducedChain, _frozen_array, as_discount
from .spectral import CompressedOperator, OrthonormalBasis, compress
from .spectral import spectral_radius  # noqa: F401  (perfbench/tracing.py wraps this name)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100000

#: Full iterates are kept only when the run finishes within this many steps.
ITERATE_STORAGE_CAP = 1000


@dataclass(frozen=True)
class IterationTrace:
    """Per-step residuals (and optionally the iterates) of one run."""

    residuals_inf: np.ndarray
    residuals_2: np.ndarray
    k_final: int
    status: RunStatus
    iterates: np.ndarray | None = None

    def __post_init__(self):
        for name in ("residuals_inf", "residuals_2"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if self.iterates is not None:
            object.__setattr__(self, "iterates", _frozen_array(self.iterates))


@dataclass(frozen=True)
class EvaluationResult:
    """Fixed-point estimate plus its trace."""

    v_fixed: np.ndarray
    trace: IterationTrace

    def __post_init__(self):
        object.__setattr__(self, "v_fixed", _frozen_array(self.v_fixed))


def _run_affine(A, b, alpha, tol, max_iter, store_iterates):
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    cap = min(max_iter, ITERATE_STORAGE_CAP) if store_iterates else 0
    # the kernel returns v, then IterationTrace's fields in order
    v, *run = kernels.affine_iteration(
        A, b, float(alpha), float(tol), int(max_iter), kernels.DIVERGENCE_GUARD, cap
    )
    return EvaluationResult(v_fixed=v, trace=IterationTrace(*run))


def exact_vi(
    chain: InducedChain,
    alpha,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    store_iterates: bool = False,
) -> EvaluationResult:
    """Plain value iteration V <- c + alpha*P V from V = 0.

    Stops when the successive-difference infinity norm falls to tol.
    Always converges eventually: alpha*||P||_inf = alpha < 1.
    """
    a = as_discount(alpha)
    return _run_affine(chain.P.entries, chain.c, a, tol, max_iter, store_iterates)


def projected_vi(
    chain: InducedChain,
    U: OrthonormalBasis | CompressedOperator,
    alpha,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    store_iterates: bool = False,
) -> EvaluationResult:
    """Projected value iteration in the K-dimensional subspace spanned by U.

    A = U^T P U and b = U^T c are formed once, then the affine loop runs
    until tol, max_iter, or the divergence guard (inf norm above 1e12).
    U may also be the compression U^T P U of chain.P, as compress returns
    it; its .basis is then U, and A is not formed again. Divergence is
    reported as a status, not an exception: it is evidence that
    alpha*rho(U^T P U) >= 1 for this instance.
    """
    op = None
    if isinstance(U, CompressedOperator):
        op, U = U, U.basis
    if U.n != chain.n:
        raise DimensionMismatchError(
            f"basis rows {U.n} do not match chain size {chain.n}"
        )
    a = as_discount(alpha)
    if op is None:
        op = compress(chain.P, U)
    b = U.U.T @ chain.c
    return _run_affine(op.A, b, a, tol, max_iter, store_iterates)


def _operands(A, b):
    """A (an array or a CompressedOperator) and the vector b as C-order
    float64 copies; A must be square and of b's length."""
    M = _frozen_array(A.A if isinstance(A, CompressedOperator) else A)
    vec = _frozen_array(b)
    if M.ndim != 2 or vec.ndim != 1 or M.shape[0] != M.shape[1] or M.shape[0] != vec.shape[0]:
        raise DimensionMismatchError(
            f"incompatible shapes: A {M.shape}, b {vec.shape}"
        )
    return M, vec


def series_eval(A, b, alpha, k: int) -> np.ndarray:
    """Partial sum sum_{i=0}^{k} alpha^i A^i b via Horner accumulation.

    Never forms explicit matrix powers: each sweep applies the same
    x <- b + alpha*(A x) update as the iteration, which keeps the
    partial-sum identity with the projected iterates numerically exact.
    """
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    M, vec = _operands(A, b)
    a = as_discount(alpha)
    x, bad_step = kernels.horner_partial_sum(M, vec, a, int(k), kernels.DIVERGENCE_GUARD)
    if bad_step is not None:
        raise PowerOverflowError(
            f"partial sum exceeded the divergence guard at sweep {bad_step}",
            k=bad_step,
        )
    return x


def direct_solve(A, b, alpha) -> np.ndarray:
    """Fixed-point oracle: solve (I - alpha*A) x = b by dense LU.

    Backward-stable partial pivoting keeps the residual
    ||(I - alpha*A)x - b||_inf below ~1e-10*(1 + ||b||_inf) for the
    well-conditioned systems this library produces.
    """
    M, vec = _operands(A, b)
    a = as_discount(alpha)
    system = np.eye(M.shape[0]) - a * M
    try:
        x = np.linalg.solve(system, vec)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("(I - alpha*A) is singular") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("(I - alpha*A) is numerically singular")
    return x


def reconstruct(U: OrthonormalBasis, v_tilde) -> np.ndarray:
    """Lift a subspace vector back to state space: U @ v_tilde."""
    v = np.asarray(v_tilde, dtype=np.float64)
    if v.shape != (U.K,):
        raise DimensionMismatchError(
            f"expected a length-{U.K} vector, got shape {v.shape}"
        )
    return U.U @ v


@dataclass(frozen=True)
class ApproximationError:
    """Difference norms between the exact and the lifted projected solution."""

    err_inf: float
    err_2: float
    rel_inf: float


def approximation_error(v_exact, v_lifted) -> ApproximationError:
    """Error norms of v_lifted - v_exact; rel_inf uses max(1, ||v_exact||_inf)."""
    a = np.asarray(v_exact, dtype=np.float64)
    b = np.asarray(v_lifted, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"length mismatch: {a.shape} vs {b.shape}")
    d = b - a
    err_inf = float(np.abs(d).max()) if d.size else 0.0
    err_2 = float(np.linalg.norm(d))
    denom = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    return ApproximationError(err_inf=err_inf, err_2=err_2, rel_inf=err_inf / denom)


def rate_estimate(trace: IterationTrace, window: int) -> float:
    """Empirical asymptotic rate: geometric mean of successive residual
    ratios over the final `window` steps (it telescopes to
    (r[-1]/r[-1-window])^(1/window)).

    For a converging run it tends to alpha*rho of the iteration operator.
    """
    if window < 2:
        raise InvalidParameterError("window must be >= 2")
    res = np.asarray(trace.residuals_inf, dtype=np.float64)
    if res.shape[0] < window + 1:
        raise InsufficientTraceError(
            f"need at least {window + 1} residuals, trace has {res.shape[0]}"
        )
    tail = res[-(window + 1):]
    if np.any(tail == 0.0):
        raise ZeroResidualError(
            "a residual in the window is exactly zero; the ratio is undefined"
        )
    rate = float((tail[-1] / tail[0]) ** (1.0 / window))
    if not math.isfinite(rate):
        raise InsufficientTraceError("residual ratios are not finite")
    return rate
