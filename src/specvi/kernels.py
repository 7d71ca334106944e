"""Hot iteration kernels as whole-array numpy operations.

The affine fixed-point loop, the Horner partial-sum loop and the
power-vanishing scan dominate runtime (up to 1e5 small matrix-vector
products per run). At the sizes the harness runs, numpy's cost per call
outweighs the arithmetic, so the affine and Horner kernels test their
stopping rule once per chunk of steps, not once per step. A chunk of c
steps writes its iterates into rows 1..c of a (c+1) x K buffer whose row
0 is the chunk's start, at three calls a step: the BLAS product
``np.dot(A, W[j], out=W[j+1])``, the multiply by alpha and the add of b.
A few array calls then give every row's residuals, iterate norm and stop
test at once, and the kernel keeps the steps up to the first row that
stops; the affine kernel keeps each chunk's residuals as one piece and
joins the pieces once at the end. Chunks grow from FIRST_CHUNK to
MAX_CHUNK steps (8, 16, 32, 64), so a short run computes few steps past
its stop. Those steps run under ``np.errstate``: their overflow or NaN
reaches no result and raises no warning. ``perfbench/kernel_sweep.py``
times the kernels across K.

The power scan tests a chunk of c powers at a time, c = min(MAX_CHUNK,
POWER_STACK_DOUBLES // K**2) and at least one, so a stack of c powers
stays near 256 KiB: 64 powers up to K = 22, 20 at K = 40, 8 at K = 64
and one from K = 182. It first fills H = [A^1; ..; A^c] by doubling:
each block A^(h+1..h+j) = [A^1; ..; A^j] @ A^h is one stacked product,
whose powers it tests with one absolute-value call and one max per
power. From E = A^k0 on, a chunk A^(k0+1..k0+c) = H @ E is one product
too, but most chunks need only their last power. For j in 1..c,
A^(k0+c) = A^(c-j) A^(k0+j) = A^(k0+j) A^(c-j), so ||A^(k0+c)||_max <=
L * ||A^(k0+j)||_max, where L is the largest of 1 and every
min(||A^m||_inf, ||A^m||_1) for m < c (max-norm, row-sum and column-sum
norms). So when ||A^c E||_max exceeds threshold * L, with a margin of
SKIP_MARGIN for rounding, no power of the chunk is at or below the
threshold, and the scan skips it, E = A^c E, for one product. It skips
only while ||E||_max * U, with U the largest ||A^m||_inf for m <= c,
stays below SKIP_CEILING: ||A^(k0+j)||_max <= ||A^j||_inf * ||E||_max,
so no power of a skipped chunk can overflow, and A^c E is finite. Any
other chunk is formed and tested in full. The powers stay products,
never an eigendecomposition, so non-normal transients still show.

In the affine and Horner kernels only the stopping test is blocked.
Each step's arithmetic is the one a per-step loop does (unlike s-step
methods, which block it too and round differently), so the results are
bit-identical to the plain per-element loop ``x_i = b_i + alpha*w_i``
with running max/sum reductions, which is the reference the tests hold
them to. That fixes the reductions. Each row's squared residual sum is
accumulated strictly left to right from 0.0, by ``np.add.accumulate``
along the rows of a buffer whose column 0 is 0.0; ``np.sum`` and
``d @ d`` use pairwise or blocked summation and round differently,
which would change the ``residuals_2`` trace column. Max reductions are
exact in any order, and each starts from 0.0 as the loop's did, so
empty (K = 0) input still works. On one row the divergence test comes
before the convergence test, as in the loop.

The power scan forms its powers in another order than the loop
A^k = A^(k-1) @ A, so its norms differ from that loop's in the last
digits; first_k is the first power whose computed max-norm is at or
below the threshold. The tests hold it bit for bit to a reference of its
own product order, and to the loop's (vanished, first_k).

The max reductions propagate NaN, as ``np.maximum`` does (the test
references take a NaN the same way), so a NaN anywhere in an iterate or
a power ends the run as diverged / overflowed instead of passing as
converged.
"""

import enum

import numpy as np


class RunStatus(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


#: Iterates whose inf-norm exceeds this are declared diverged.
DIVERGENCE_GUARD = 1e12

#: Steps run between two stopping tests: the first chunk has FIRST_CHUNK
#: steps and each later one twice as many as the one before, up to
#: MAX_CHUNK.
FIRST_CHUNK = 8
MAX_CHUNK = 64

#: The power scan's chunk holds at most this many doubles of powers
#: (256 KiB), and at least one power.
POWER_STACK_DOUBLES = 2**15

#: The power scan skips a chunk only when the max-norm of its last power
#: exceeds threshold * L by this relative margin. It is far above the
#: products' rounding, about K * k * 2.2e-16 relative, and above the
#: 4.5e-6 by which two product orders differed on a triangular operand
#: whose powers rise 1.2e18-fold above their final norm.
SKIP_MARGIN = 1e-4

#: The power scan skips a chunk only while ||E||_max * U, a bound on the
#: max-norm of each of its powers, stays below this, so that none of them
#: can overflow, rounding included.
SKIP_CEILING = 2.0**1000

#: Recorded in benchmark manifests; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def _chunks(total):
    """Yield (start, length) of the chunks that cover steps 0..total-1."""
    start, size = 0, FIRST_CHUNK
    while start < total:
        length = min(size, total - start)
        yield start, length
        start += length
        size = min(2 * size, MAX_CHUNK)


def _affine_steps(A, b, alpha, W, c):
    """Fill rows 1..c of W by c steps x <- b + alpha*(A @ x) from row 0."""
    prev = W[0]
    for x in W[1 : c + 1]:
        np.dot(A, prev, out=x)
        np.multiply(x, alpha, out=x)
        np.add(x, b, out=x)
        prev = x


def affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap):
    """Run v <- b + alpha*(A @ v) from v = 0 until the stopping rule fires.

    Returns (v, res_inf, res_2, k_final, status, iterates) where res_*
    hold one entry per executed step, status is a RunStatus and iterates
    has the rows v^(0)..v^(k_final) (row 0 is the zero start), or is None
    when the run outlasts iter_cap steps. The residuals and iterates are
    collected chunk by chunk and joined once, so their size follows
    k_final rather than max_iter. Overflow raises no warning; it ends the
    run as RunStatus.DIVERGED.
    """
    K = b.shape[0]
    width = min(MAX_CHUNK, max_iter)
    # Row 0 holds the chunk's start iterate, row j its j-th step.
    W = np.zeros((width + 1, K))
    d = np.empty((width, K))
    # Column 0 stays 0.0, the starting value of each row's running sum.
    sq = np.zeros((width, K + 1))
    partial = np.empty((width, K + 1))
    # Each chunk adds its steps' residuals; the empty first piece keeps a
    # run of no steps joinable.
    res_inf, res_2 = [np.empty(0)], [np.empty(0)]
    # Kept while the run stays within iter_cap steps.
    kept = [np.zeros((1, K))] if iter_cap > 0 else None
    status = RunStatus.MAX_ITER
    k_final = n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, c in _chunks(max_iter):
            if k0:
                W[0] = W[n]
            _affine_steps(A, b, alpha, W, c)
            steps, diff = W[1 : c + 1], d[:c]
            np.abs(np.subtract(steps, W[:c], out=diff), out=diff)
            r_inf = np.maximum.reduce(diff, axis=1, initial=0.0)
            np.multiply(diff, diff, out=sq[:c, 1:])
            r_sq = np.add.accumulate(sq[:c], axis=1, out=partial[:c])[:, -1]
            v_norm = np.maximum.reduce(np.abs(steps, out=diff), axis=1, initial=0.0)
            # not (v_norm <= guard) is v_norm > guard or v_norm is NaN.
            diverged = ~(v_norm <= guard) | (r_inf != r_inf)
            stop = diverged | (r_inf <= tol)
            j = int(stop.argmax())
            n = j + 1 if stop[j] else c
            k_final = k0 + n
            res_inf.append(r_inf[:n])
            res_2.append(np.sqrt(r_sq[:n]))
            if kept is not None and k_final > iter_cap:
                kept = None
            elif kept is not None:
                kept.append(W[1 : n + 1].copy())
            if stop[j]:
                status = RunStatus.DIVERGED if diverged[j] else RunStatus.CONVERGED
                break
    v = W[n].copy()
    iterates = None if kept is None else np.concatenate(kept)
    return v, np.concatenate(res_inf), np.concatenate(res_2), k_final, status, iterates


def horner_partial_sum(A, b, alpha, k, guard):
    """Partial sum sum_{i=0}^{k} alpha^i A^i b by Horner accumulation.

    Each sweep applies x <- b + alpha*(A @ x), the same update as the
    iteration kernel, so the two stay bit-for-bit comparable. Returns
    (x, bad_step); bad_step is None on success, else the 1-based sweep at
    which the guard tripped (a NaN trips it too). Overflow raises no
    warning.
    """
    K = b.shape[0]
    width = min(MAX_CHUNK, k)
    W = np.empty((width + 1, K))
    W[0] = b
    scratch = np.empty((width, K))
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, c in _chunks(k):
            if k0:
                W[0] = W[n]
            _affine_steps(A, b, alpha, W, c)
            x_abs = np.abs(W[1 : c + 1], out=scratch[:c])
            bad = ~(np.maximum.reduce(x_abs, axis=1, initial=0.0) <= guard)
            j = int(bad.argmax())
            if bad[j]:
                return W[j + 1].copy(), k0 + j + 1
            n = c
    return W[n].copy(), None


def _max_norms(block, m, K, scratch):
    """Max-norms of the m K x K powers stacked in block; NaN propagates."""
    powers = np.abs(block.reshape(m, K * K), out=scratch[:m])
    return np.maximum.reduce(powers, axis=1, initial=0.0)


def _test_powers(block, m, K, scratch, threshold, k0):
    """Max-norms of the powers A^(k0+1..k0+m) stacked in block, and the
    scan's result if one of them ends it (it is non-finite, or at or
    below the threshold), else None."""
    norms = _max_norms(block, m, K, scratch)
    # not (norm < inf) is an overflowed or NaN power.
    stop = ~(norms < np.inf) | (norms <= threshold)
    j = int(stop.argmax())
    if not stop[j]:
        return norms, None
    if not norms[j] < np.inf:
        return norms, (False, None, np.inf)
    return norms, (True, k0 + j + 1, float(norms[j]))


def power_max_norms(A, k_max, threshold):
    """Scan max-norms of A^k for k = 1..k_max, stopping at the threshold.

    Returns (vanished, first_k, final_norm): first_k is the first power
    whose computed max-norm is at or below the threshold, None when no
    power up to k_max is. Non-finite entries (overflow or NaN) end the
    scan with final_norm = inf. A chunk of powers is formed only where
    the norm bound in the module docstring cannot rule the chunk out.
    Overflow raises no warning.
    """
    K = A.shape[0]
    c = max(1, min(MAX_CHUNK, POWER_STACK_DOUBLES // max(1, K * K), k_max))
    H = np.empty((c * K, K))  # A^1 .. A^c, stacked
    scratch = np.empty((c, K * K))
    with np.errstate(over="ignore", invalid="ignore"):
        H[:K] = A
        h = 1  # powers in H so far
        norms, result = _test_powers(H[:K], 1, K, scratch, threshold, 0)
        while result is None and h < c:
            # A^(h+1..h+m) = [A^1; ..; A^m] @ A^h, one product.
            m = min(h, c - h)
            block = H[h * K : (h + m) * K]
            np.dot(H[: m * K], H[(h - 1) * K : h * K], out=block)
            norms, result = _test_powers(block, m, K, scratch, threshold, h)
            h += m
        if result is not None:
            return result
        e_norm = float(norms[-1])
        powers = np.abs(H.reshape(c, K, K), out=scratch.reshape(c, K, K))
        inf_norms = powers.sum(axis=2).max(axis=1, initial=0.0)
        one_norms = powers.sum(axis=1).max(axis=1, initial=0.0)
        L = max(1.0, float(np.minimum(inf_norms, one_norms)[:-1].max(initial=0.0)))
        U = float(inf_norms.max())
        skip_above = threshold * L * (1.0 + SKIP_MARGIN)
        last = H[(c - 1) * K :]
        E, N = last.copy(), np.empty((K, K))
        chunk = np.empty_like(H)
        k0 = c
        while k0 < k_max:
            m = min(c, k_max - k0)
            if m == c and e_norm * U < SKIP_CEILING:
                np.dot(last, E, out=N)
                n_norm = float(_max_norms(N, 1, K, scratch)[0])
                if n_norm > skip_above:
                    E, N, e_norm = N, E, n_norm
                    k0 += c
                    continue
            block = chunk[: m * K]
            np.dot(H[: m * K], E, out=block)
            norms, result = _test_powers(block, m, K, scratch, threshold, k0)
            if result is not None:
                return result
            E[...] = block[(m - 1) * K :]
            e_norm = float(norms[-1])
            k0 += m
    return False, None, e_norm
