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
reaches no result and raises no warning. The power scan does the same with a chunk of powers: it forms
them by ``np.dot(S[j], A, out=S[j+1])`` in one (c+1) x K x K stack, the
chunk's first from the previous chunk's last power, then takes their
absolute values with one call and one max per power. Its
chunks are also capped at POWER_STACK_DOUBLES // K**2 powers (at least
one), so the stack stays near 256 KiB: 20 powers at K = 40, 8 at K = 64,
and one per chunk, a per-power loop, from K = 182, where a product costs
far more than the calls around it. ``perfbench/kernel_sweep.py`` times
the kernels across K.

Only the stopping test is blocked. Each step's arithmetic is the one a
per-step loop does (unlike s-step methods, which block it too and round
differently), so the results are bit-identical to the plain per-element
loop ``x_i = b_i + alpha*w_i`` with running max/sum reductions, which is
the reference the tests hold them to. That fixes the reductions. Each
row's squared residual sum is accumulated strictly left to right from
0.0, by ``np.add.accumulate`` along the rows of a buffer whose column 0
is 0.0; ``np.sum`` and ``d @ d`` use pairwise or blocked summation and
round differently, which would change the ``residuals_2`` trace column.
Max reductions are exact in any order, and each starts from 0.0 as the
loop's did, so empty (K = 0) input still works. On one row the
divergence test comes before the convergence test, as in the loop.

The max reductions propagate NaN, as ``np.maximum`` does (the test
references take a NaN the same way), so a NaN anywhere in an iterate or
a power ends the run as diverged / overflowed instead of passing as
converged.
"""

import numpy as np

STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_DIVERGED = 2

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

#: Recorded in benchmark manifests; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def _chunks(total, most=MAX_CHUNK):
    """Yield (start, length) of the chunks that cover steps 0..total-1,
    none longer than most."""
    start, size = 0, min(FIRST_CHUNK, most)
    while start < total:
        length = min(size, total - start)
        yield start, length
        start += length
        size = min(2 * size, most)


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

    Returns (v, res_inf, res_2, k_final, status, iter_buf, stored) where
    res_* hold one entry per executed step, iter_buf rows 0..stored-1 are
    the iterates v^(0)..v^(stored-1) (row 0 is the zero start) and status
    is one of the STATUS_* codes. The residuals are collected chunk by
    chunk and joined once, so their size follows k_final rather than
    max_iter. Overflow raises no warning; it ends the run as
    STATUS_DIVERGED.
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
    cap_rows = iter_cap + 1 if iter_cap > 0 else 1
    iter_buf = np.zeros((cap_rows, K))
    stored = 1 if iter_cap > 0 else 0
    status = STATUS_MAX_ITER
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
            if stored > 0 and k0 < iter_cap:
                last = min(k_final, iter_cap)
                iter_buf[k0 + 1 : last + 1] = W[1 : last - k0 + 1]
                stored = last + 1
            if stop[j]:
                status = STATUS_DIVERGED if diverged[j] else STATUS_CONVERGED
                break
    v = W[n].copy()
    return v, np.concatenate(res_inf), np.concatenate(res_2), k_final, status, iter_buf, stored


def horner_partial_sum(A, b, alpha, k, guard):
    """Partial sum sum_{i=0}^{k} alpha^i A^i b by Horner accumulation.

    Each sweep applies x <- b + alpha*(A @ x), the same update as the
    iteration kernel, so the two stay bit-for-bit comparable. Returns
    (x, bad_step); bad_step is -1 on success, else the 1-based sweep at
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
    return W[n].copy(), -1


def power_max_norms(A, k_max, threshold):
    """Scan max-norms of A^k for k = 1..k_max, stopping at the threshold.

    Returns (vanished, first_k, final_norm); first_k is 0 when the
    threshold was never reached. Non-finite entries (overflow or NaN) end
    the scan with final_norm = inf. Overflow raises no warning.
    """
    K = A.shape[0]
    most = max(1, min(MAX_CHUNK, POWER_STACK_DOUBLES // max(1, K * K)))
    width = max(1, min(most, k_max))
    S = np.empty((width + 1, K, K))
    scratch = np.empty((width, K * K))
    final_norm = 0.0
    last = 0  # row of S holding the previous chunk's last power
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, c in _chunks(k_max, most):
            # The chunk's powers fill rows lo..lo+c-1; its first product
            # must not overwrite the power it reads.
            lo = 0 if last == 1 else 1
            if k0:
                np.dot(S[last], A, out=S[lo])
            else:
                S[lo] = A
            for j in range(lo, lo + c - 1):
                np.dot(S[j], A, out=S[j + 1])
            powers = np.abs(S[lo : lo + c].reshape(c, K * K), out=scratch[:c])
            norms = np.maximum.reduce(powers, axis=1, initial=0.0)
            # not (norm < inf) is an overflowed or NaN power.
            bad = ~(norms < np.inf)
            stop = bad | (norms <= threshold)
            j = int(stop.argmax())
            if stop[j]:
                if bad[j]:
                    return False, 0, np.inf
                return True, k0 + j + 1, float(norms[j])
            last = lo + c - 1
            final_norm = float(norms[-1])
    return False, 0, final_norm

