"""Hot iteration kernels as whole-array numpy operations.

The affine fixed-point loop, the Horner partial-sum loop and the
power-vanishing scan dominate runtime (up to 1e5 small matrix-vector
products per run). Each step is one BLAS product into a preallocated
buffer (``np.dot(..., out=)``) followed by in-place ufuncs and array
reductions; the buffers are swapped rather than reallocated, so a step
allocates nothing. ``perfbench/kernel_sweep.py`` times them across K.

The results are bit-identical to the plain per-element loop
``x_i = b_i + alpha*w_i`` with running max/sum reductions, which is the
reference the tests hold them to. That fixes two details. The squared
residual sum must be accumulated strictly left to right from 0.0, as
``np.add.accumulate`` (what ``np.cumsum`` runs) does; ``np.sum`` and
``d @ d`` use pairwise or blocked summation and round differently, which
would change the ``residuals_2`` trace column. And every max reduction
starts from 0.0 as the loop's did, so empty (K = 0) input still works.

On NaN the two differ: the max reductions propagate it, so a NaN
anywhere in an iterate or a power ends the run as diverged / overflowed
instead of passing as converged.
"""

import math

import numpy as np

STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_DIVERGED = 2

#: Iterates whose inf-norm exceeds this are declared diverged.
DIVERGENCE_GUARD = 1e12

#: Initial length of the residual buffers; they double when full.
RESIDUAL_CHUNK = 64

#: Recorded in benchmark manifests; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def _grow(buf, size):
    out = np.empty(size)
    out[: buf.shape[0]] = buf
    return out


def affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap):
    """Run v <- b + alpha*(A @ v) from v = 0 until the stopping rule fires.

    Returns (v, res_inf, res_2, k_final, status, iter_buf, stored) where
    res_* hold one entry per executed step, iter_buf rows 0..stored-1 are
    the iterates v^(0)..v^(stored-1) (row 0 is the zero start) and status
    is one of the STATUS_* codes. The residual buffers grow by doubling,
    so their size follows k_final rather than max_iter.
    """
    K = b.shape[0]
    v = np.zeros(K)
    x = np.empty(K)
    d = np.empty(K)
    # sq[0] stays 0.0, the loop's starting value of the running sum.
    sq = np.zeros(K + 1)
    sq_tail = sq[1:]
    partial = np.empty(K + 1)
    capacity = min(max_iter, RESIDUAL_CHUNK)
    res_inf = np.empty(capacity)
    res_2 = np.empty(capacity)
    rows = iter_cap + 1 if iter_cap > 0 else 1
    iter_buf = np.zeros((rows, K))
    stored = 1 if iter_cap > 0 else 0
    status = STATUS_MAX_ITER
    k_final = 0
    for step in range(max_iter):
        np.dot(A, v, out=x)
        np.multiply(x, alpha, out=x)
        np.add(x, b, out=x)
        np.subtract(x, v, out=d)
        np.abs(d, out=d)
        r_inf = np.maximum.reduce(d, initial=0.0)
        np.multiply(d, d, out=sq_tail)
        r_sq = np.add.accumulate(sq, out=partial)[-1]
        v_norm = np.maximum.reduce(np.abs(x, out=d), initial=0.0)
        v, x = x, v
        if step == capacity:
            capacity = min(2 * capacity, max_iter)
            res_inf = _grow(res_inf, capacity)
            res_2 = _grow(res_2, capacity)
        res_inf[step] = r_inf
        res_2[step] = math.sqrt(r_sq)
        k_final = step + 1
        if stored > 0 and step + 1 <= iter_cap:
            iter_buf[step + 1] = v
            stored = step + 2
        if v_norm > guard or r_inf != r_inf or v_norm != v_norm:
            status = STATUS_DIVERGED
            break
        if r_inf <= tol:
            status = STATUS_CONVERGED
            break
    return v, res_inf[:k_final], res_2[:k_final], k_final, status, iter_buf, stored


def horner_partial_sum(A, b, alpha, k, guard):
    """Partial sum sum_{i=0}^{k} alpha^i A^i b by Horner accumulation.

    Each sweep applies x <- b + alpha*(A @ x), the same update as the
    iteration kernel, so the two stay bit-for-bit comparable. Returns
    (x, bad_step); bad_step is -1 on success, else the 1-based sweep at
    which the guard tripped (a NaN trips it too).
    """
    K = b.shape[0]
    x = b.copy()
    y = np.empty(K)
    scratch = np.empty(K)
    for step in range(k):
        np.dot(A, x, out=y)
        np.multiply(y, alpha, out=y)
        np.add(y, b, out=y)
        x, y = y, x
        x_norm = np.maximum.reduce(np.abs(x, out=scratch), initial=0.0)
        if x_norm > guard or x_norm != x_norm:
            return x, step + 1
    return x, -1


def power_max_norms(A, k_max, threshold):
    """Scan max-norms of A^k for k = 1..k_max, stopping at the threshold.

    Returns (vanished, first_k, final_norm); first_k is 0 when the
    threshold was never reached. Non-finite entries (overflow or NaN) end
    the scan with final_norm = inf.
    """
    B = A.copy()
    C = np.empty_like(B)
    scratch = np.empty_like(B)
    final_norm = 0.0
    for k in range(1, k_max + 1):
        norm = float(np.abs(B, out=scratch).max(initial=0.0))
        if norm != norm or norm == np.inf:
            return False, 0, np.inf
        final_norm = norm
        if norm <= threshold:
            return True, k, norm
        if k < k_max:
            np.dot(B, A, out=C)
            B, C = C, B
    return False, 0, final_norm


def as_kernel_matrix(M):
    """C-contiguous float64 view/copy of a 2-D array for the kernels."""
    out = np.ascontiguousarray(M, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("kernel matrix must be 2-D")
    return out


def as_kernel_vector(v):
    out = np.ascontiguousarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("kernel vector must be 1-D")
    return out
