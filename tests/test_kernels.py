import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from specvi import kernels
from specvi.errors import PowerOverflowError
from specvi.evaluation import _run_affine, series_eval
from specvi.kernels import RunStatus
from specvi.mdp import Policy, induce_chain, make_symmetric_walk
from specvi.spectral import build_basis, compress, power_vanishing_check


def _instance(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A /= A.sum(axis=1, keepdims=True)
    b = rng.random(n)
    return A, b


# Reference implementations: the plain per-step loops the vectorised
# kernels replaced, in the kernels' rounding order. A step is one product
# with M = [alpha*A | b] and the iterate with a 1.0 appended; a step's
# squared residual sum is np.sum's pairwise sum of its vector. Every
# kernel output must match them byte for byte.


def _running_max(acc, x):
    """max(acc, x) by np.maximum's rule: the first NaN met is kept."""
    if acc != acc:
        return acc
    return x if x > acc or x != x else acc


def _operator(A, b, alpha):
    """M = [alpha*A | b], K x (K+1) in C order."""
    return np.column_stack([alpha * A, b])


def _reference_affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap):
    K = b.shape[0]
    M = _operator(A, b, alpha)
    v = np.zeros(K)
    res_inf = np.empty(max_iter)
    res_2 = np.empty(max_iter)
    iterates = [np.zeros(K)] if iter_cap > 0 else None
    status = RunStatus.MAX_ITER
    k_final = 0
    for step in range(max_iter):
        x = M @ np.append(v, 1.0)
        d = np.abs(x - v)
        r_sq = np.sum(d * d)
        r_inf = 0.0
        v_norm = 0.0
        for i in range(K):
            r_inf = _running_max(r_inf, d[i])
            v_norm = _running_max(v_norm, abs(x[i]))
        v = x
        res_inf[step] = r_inf
        res_2[step] = math.sqrt(r_sq)
        k_final = step + 1
        if iterates is not None and step + 1 <= iter_cap:
            iterates.append(v.copy())
        else:
            iterates = None
        if v_norm > guard or r_inf != r_inf or v_norm != v_norm:
            status = RunStatus.DIVERGED
            break
        if r_inf <= tol:
            status = RunStatus.CONVERGED
            break
    if iterates is not None:
        iterates = np.array(iterates)
    return v, res_inf[:k_final], res_2[:k_final], k_final, status, iterates


def _reference_horner_partial_sum(A, b, alpha, k, guard):
    K = b.shape[0]
    M = _operator(A, b, alpha)
    x = b.copy()
    for step in range(k):
        x = M @ np.append(x, 1.0)
        x_norm = 0.0
        for i in range(K):
            x_norm = _running_max(x_norm, abs(x[i]))
        if x_norm > guard or x_norm != x_norm:
            return x, step + 1
    return x, None


def _reference_power_max_norms(A, k_max, threshold):
    n = A.shape[0]
    B = A.copy()
    final_norm = 0.0
    for k in range(1, k_max + 1):
        norm = 0.0
        for i in range(n):
            for j in range(n):
                norm = _running_max(norm, abs(B[i, j]))
        if norm != norm or norm == np.inf:
            return False, None, np.inf
        final_norm = norm
        if norm <= threshold:
            return True, k, norm
        if k < k_max:
            B = B @ A
    return False, None, final_norm


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_iterates(got, want):
    """Both None, or the same bytes."""
    assert (got is None) == (want is None)
    if want is not None:
        _same_bytes(got, want)


def _check_affine(A, b, alpha, tol, max_iter, guard, iter_cap):
    """Run the kernel and the reference loop; return (k_final, status)."""
    got = kernels.affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap)
    want = _reference_affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap)
    v, res_inf, res_2, k_final, status, iterates = got
    _same_bytes(v, want[0])
    _same_bytes(res_inf, want[1])
    _same_bytes(res_2, want[2])
    assert (k_final, status) == want[3:5]
    _same_iterates(iterates, want[5])
    return k_final, status


def _check_horner(A, b, alpha, k, guard):
    """Run the kernel and the reference loop; return bad_step."""
    x, bad = kernels.horner_partial_sum(A, b, alpha, k, guard)
    x_ref, bad_ref = _reference_horner_partial_sum(A, b, alpha, k, guard)
    assert bad == bad_ref
    _same_bytes(x, x_ref)
    return bad


def _scaled(A, scale):
    """A times scale; a NaN scale puts one NaN entry into A instead."""
    if math.isnan(scale):
        A[0, -1] = scale
        return A
    return A * scale


REFERENCE_K = (1, 2, 7, 8, 9, 60, 150)

# The kernels test for a stop after steps 8, 24, 56, 120, 184, ...: chunks
# of FIRST_CHUNK steps doubling up to MAX_CHUNK. These steps sit on and
# just past those edges.
CHUNK_EDGE_STEPS = (1, 8, 9, 24, 25, 56, 57, 120, 121)


def test_chunk_edges_follow_the_schedule():
    assert (kernels.FIRST_CHUNK, kernels.MAX_CHUNK) == (8, 64)
    ends = [k0 + c for k0, c in kernels._chunks(184)]
    assert ends == [8, 24, 56, 120, 184]


AFFINE_CASES = [
    (1.0, 0.9, 1e-10, 100000, 0),  # converges after ~200 steps, mid-chunk
    (1.0, 0.95, 1e-10, 100000, 40),  # converges past iter_cap: no iterates
    (1.0, 0.99, 1e-300, 130, 200),  # max_iter, inside the fifth chunk
    (1.0, 0.99, 1e-300, 120, 13),  # max_iter on a chunk edge; iter_cap mid-chunk
    (1.0, 0.99, 1e-300, 3, 5),  # max_iter inside the first chunk
    (3.0, 0.9, 1e-10, 100000, 5),  # diverges past the guard mid-chunk (step 29 or 30)
    (math.nan, 0.9, 1e-10, 100, 5),  # a NaN in A: diverges at step 1
]

HORNER_CASES = [(1.0, 0), (1.0, 70), (3.0, 200), (math.nan, 200)] + [
    (1.0, k) for k in CHUNK_EDGE_STEPS
]


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, alpha, tol, max_iter, iter_cap", AFFINE_CASES)
def test_affine_iteration_matches_reference_loop(K, scale, alpha, tol, max_iter, iter_cap):
    A, b = _instance(K, 10 + K)
    _check_affine(_scaled(A, scale), b, alpha, tol, max_iter, 1e12, iter_cap)


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, k", HORNER_CASES)
def test_horner_matches_reference_loop(K, scale, k):
    A, b = _instance(K, 20 + K)
    _check_horner(_scaled(A, scale), b, 0.95, k, 1e12)


def _formula_affine_iteration(A, b, alpha, tol, max_iter, guard):
    """The update as written, x = b + alpha*(A @ v), with numpy's own
    reductions: the meaning reference, not a rounding one."""
    v = np.zeros(b.shape[0])
    res_inf, res_2 = [], []
    status = RunStatus.MAX_ITER
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            x = b + alpha * (A @ v)
            d = np.abs(x - v)
            res_inf.append(np.max(d, initial=0.0))
            res_2.append(math.sqrt(np.sum(d * d)))
            v = x
            if not np.max(np.abs(v), initial=0.0) <= guard or res_inf[-1] != res_inf[-1]:
                status = RunStatus.DIVERGED
                break
            if res_inf[-1] <= tol:
                status = RunStatus.CONVERGED
                break
    return v, np.array(res_inf), np.array(res_2), len(res_inf), status


def _formula_horner_partial_sum(A, b, alpha, k, guard):
    x = b.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(k):
            x = b + alpha * (A @ x)
            if not np.max(np.abs(x), initial=0.0) <= guard:
                return x, step + 1
    return x, None


def _step_tolerance(k, K, x):
    """k steps of (K+1)-term inner products, each off by at most about
    (K+1) * eps relative to the iterate's max-norm; x's finite entries
    give the scale."""
    finite = np.abs(x[np.isfinite(x)])
    scale = finite.max() if finite.size else 1.0
    return max(k, 1) * (K + 1) * np.finfo(np.float64).eps * scale


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, alpha, tol, max_iter, iter_cap", AFFINE_CASES)
def test_affine_iteration_means_the_written_update(K, scale, alpha, tol, max_iter, iter_cap):
    # The kernel rounds alpha*A and adds b inside the product; on these
    # cases it stops at the same step with the same status as the formula,
    # and its iterate and residuals stay within k * (K+1) * eps of the
    # formula's, relative to the iterate's max-norm (the largest gap here
    # is 0.15 of that).
    A, b = _instance(K, 10 + K)
    A = _scaled(A, scale)
    got = kernels.affine_iteration(A, b, alpha, tol, max_iter, 1e12, iter_cap)
    want = _formula_affine_iteration(A, b, alpha, tol, max_iter, 1e12)
    assert got[3:5] == want[3:5]
    atol = _step_tolerance(want[3], K, want[0])
    for g, w in zip(got[:3], want[:3]):
        assert_allclose(g, w, rtol=0, atol=atol, equal_nan=True)


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, k", HORNER_CASES)
def test_horner_means_the_written_update(K, scale, k):
    A, b = _instance(K, 20 + K)
    A = _scaled(A, scale)
    x, bad = kernels.horner_partial_sum(A, b, 0.95, k, 1e12)
    x_want, bad_want = _formula_horner_partial_sum(A, b, 0.95, k, 1e12)
    assert bad == bad_want
    atol = _step_tolerance(bad or k, K, x_want)
    assert_allclose(x, x_want, rtol=0, atol=atol, equal_nan=True)


@pytest.mark.parametrize("K", (1, 9, 60))
@pytest.mark.parametrize("k_stop", CHUNK_EDGE_STEPS)
def test_stops_on_and_next_to_chunk_edges(K, k_stop):
    A, b = _instance(K, 40 + K)
    # converges at k_stop: tol is the reference's residual there
    res_inf = _reference_affine_iteration(A, b, 0.9, 1e-300, k_stop, 1e12, 0)[1]
    converged = (k_stop, RunStatus.CONVERGED)
    assert _check_affine(A, b, 0.9, res_inf[-1], 100000, 1e12, 30) == converged
    # runs out of steps at k_stop
    max_iter = (k_stop, RunStatus.MAX_ITER)
    assert _check_affine(A, b, 0.9, 1e-300, k_stop, 1e12, 30) == max_iter
    # 3*A grows every iterate, so a guard at the norm of iterate k_stop - 1
    # (0.0 at k_stop = 1) trips at step k_stop
    A3 = 3.0 * A
    iterates = _reference_affine_iteration(A3, b, 0.9, 1e-300, k_stop, np.inf, k_stop)[5]
    guard = np.abs(iterates[k_stop - 1]).max()
    diverged = (k_stop, RunStatus.DIVERGED)
    assert _check_affine(A3, b, 0.9, 1e-300, 100000, guard, 30) == diverged
    # Horner: the same growth trips the guard at sweep k_stop
    x_prev = _reference_horner_partial_sum(A3, b, 0.9, k_stop - 1, np.inf)[0]
    assert _check_horner(A3, b, 0.9, 500, np.abs(x_prev).max()) == k_stop


class _Counted:
    """A numpy function whose calls add to calls[name]; its methods
    (np.add.reduce) pass through uncounted."""

    def __init__(self, name, calls):
        self.f, self.name, self.calls = getattr(np, name), name, calls

    def __call__(self, *args, **kwargs):
        self.calls[self.name] += 1
        return self.f(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.f, attr)


class _CallCountingNumpy:
    """numpy, with calls of np.dot, np.multiply and np.add counted."""

    def __init__(self):
        self.calls = dict.fromkeys(("dot", "multiply", "add"), 0)

    def __getattr__(self, name):
        if name in self.calls:
            return _Counted(name, self.calls)
        return getattr(np, name)


@pytest.mark.parametrize("steps", (3, 8, 24, 120, 130))
def test_one_product_per_step(monkeypatch, steps):
    # A chunk of c steps makes c np.dot calls and nothing else per step:
    # np.multiply runs once a call (alpha*A) and once a chunk (the squared
    # residuals), and np.add never (the sums are np.add.reduce).
    A, b = _instance(9, 6)
    chunks = len(list(kernels._chunks(steps)))
    counter = _CallCountingNumpy()
    monkeypatch.setattr(kernels, "np", counter)
    out = kernels.affine_iteration(A, b, 0.99, 1e-300, steps, 1e12, 0)
    affine = dict(counter.calls)
    counter.calls.update(dict.fromkeys(counter.calls, 0))
    x, bad = kernels.horner_partial_sum(A, b, 0.99, steps, 1e12)
    monkeypatch.undo()
    assert out[3:5] == (steps, RunStatus.MAX_ITER) and bad is None
    assert affine == {"dot": steps, "multiply": 1 + chunks, "add": 0}
    assert counter.calls == {"dot": steps, "multiply": 1, "add": 0}


def test_divergence_outranks_convergence_on_one_step():
    # step 1 is both past the guard and within tol; divergence is tested first
    A, b = _instance(4, 5)
    diverged = (1, RunStatus.DIVERGED)
    assert _check_affine(A, 1e13 * b, 0.9, 1e14, 100, 1e12, 5) == diverged


def test_nan_residual_diverges_under_an_infinite_guard():
    # an inf iterate passes guard = inf; the inf - inf residual after it
    # is NaN and ends the run
    A = np.array([[1e200]])
    diverged = (4, RunStatus.DIVERGED)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _check_affine(A, np.ones(1), 0.9, 1e-300, 100, np.inf, 5) == diverged


def test_steps_past_the_stop_raise_no_warning():
    # Step 1 converges (tol = 10) or trips the Horner guard; the rest of the
    # first chunk overflows to inf and then NaN, and must leave no trace.
    A = 1e200 * np.eye(3)
    b = np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.affine_iteration(A, b, 0.9, 10.0, 100, 1e12, 5)
        x, bad = kernels.horner_partial_sum(A, b, 0.9, 100, 1e12)
    want = _reference_affine_iteration(A, b, 0.9, 10.0, 100, 1e12, 5)
    assert (got[3], got[4], got[5].shape[0]) == (1, RunStatus.CONVERGED, 2)
    for g, w in zip(got[:3] + got[5:6], want[:3] + want[5:6]):
        _same_bytes(g, w)
    x_ref, bad_ref = _reference_horner_partial_sum(A, b, 0.9, 100, 1e12)
    assert bad == bad_ref == 1
    _same_bytes(x, x_ref)


def _max_norm(B):
    """max |B_ij|, a NaN if B holds one; a max is exact in any order."""
    return float(np.maximum.reduce(np.abs(B), axis=None, initial=0.0))


def _inf_norm(B):
    """Largest absolute row sum."""
    return float(np.abs(B).sum(axis=1).max())


def _power_chunk_width(K, k_max):
    return max(1, min(kernels.MAX_CHUNK, kernels.POWER_STACK_DOUBLES // (K * K), k_max))


def _reference_chunked_power_scan(A, k_max, threshold):
    """The kernel's products in the kernel's order, each power tested on
    its own; returns the kernel's result and {k: A^k} of every power the
    scan formed, the last power of a skipped chunk included.

    A^1..A^c come by doubling, A^(h+1..h+j) = [A^1; ..; A^j] @ A^h as one
    product. From E = A^k0 on, a full chunk is skipped (E = A^c @ E) when
    ||E||_max * U stays below the ceiling and ||A^c @ E||_max is finite and
    above threshold * L * (1 + SKIP_MARGIN); otherwise [A^1; ..; A^m] @ E
    forms it, as one product.
    """
    K = A.shape[0]
    c = _power_chunk_width(K, k_max)
    formed = {}

    def scan(k0, block):
        """Record the stacked powers k0+1.. of block; the result if one stops the scan."""
        for i in range(block.shape[0] // K):
            B = formed[k0 + i + 1] = block[i * K : (i + 1) * K]
            norm = _max_norm(B)
            if not norm < np.inf:
                return False, None, np.inf
            if norm <= threshold:
                return True, k0 + i + 1, norm
        return None

    H = A.copy()
    out = scan(0, H)
    while out is None and H.shape[0] < c * K:
        h = H.shape[0] // K
        block = np.dot(H[: min(h, c - h) * K], H[(h - 1) * K :])
        out = scan(h, block)
        H = np.concatenate([H, block])
    if out is not None:
        return out, formed
    powers = [formed[m] for m in range(1, c + 1)]
    L = max([1.0] + [min(_inf_norm(B), _inf_norm(B.T)) for B in powers[:-1]])
    U = max(_inf_norm(B) for B in powers)
    E, k0 = powers[-1], c
    while k0 < k_max:
        m = min(c, k_max - k0)
        if m == c and _max_norm(E) * U < kernels.SKIP_CEILING:
            N = np.dot(powers[-1], E)
            if threshold * L * (1.0 + kernels.SKIP_MARGIN) < _max_norm(N) < np.inf:
                E = formed[k0 + c] = N
                k0 += c
                continue
        out = scan(k0, np.dot(H[: m * K], E))
        if out is not None:
            return out, formed
        k0 += m
        E = formed[k0]
    return (False, None, _max_norm(E)), formed


def _check_power_scan(A, k_max, threshold):
    """The kernel's result, bit for bit that of the chunked reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels.power_max_norms(A, k_max, threshold)
        want = _reference_chunked_power_scan(A, k_max, threshold)[0]
    assert (bool(got[0]), got[1]) == (want[0], want[1])
    _same_bytes(np.float64(got[2]), np.float64(want[2]))
    return got


def _check_power_scan_meaning(A, k_max, threshold):
    """The kernel against the chunked reference, bit for bit, and against
    the sequential loop: the same (vanished, first_k), and final_norm
    within k * K * eps relative at the last power k scanned, the rounding
    of k products of K-term sums in either order. (The callers' operands
    have no large transient; the largest gap they show is 0.08 of it.)"""
    got = _check_power_scan(A, k_max, threshold)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_power_max_norms(A, k_max, threshold)
    assert (bool(got[0]), got[1]) == (want[0], want[1])
    if math.isinf(want[2]):
        assert got[2] == want[2]
    else:
        rtol = (got[1] or k_max) * A.shape[0] * np.finfo(np.float64).eps
        assert_allclose(got[2], want[2], rtol=rtol, atol=0)
    return got


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, k_max", [(0.5, 200), (1.0, 8), (1e20, 3000)])
def test_power_max_norms_matches_reference_loop(K, scale, k_max):
    A, _ = _instance(K, 30 + K)
    _check_power_scan_meaning(A * scale, k_max, 1e-6)


def _power_chunk_ends(K, k_max):
    """Last power of each block the power scan tests at this K: the
    doubling blocks up to the chunk width c, then chunks of c."""
    c = _power_chunk_width(K, k_max)
    ends, h = [1], 1
    while h < c:
        h += min(h, c - h)
        ends.append(h)
    while h < k_max:
        h = min(h + c, k_max)
        ends.append(h)
    return ends


def _formed_norm(A, k):
    """||A^k||_max as the scan forms A^k when it stops at or past k.

    A threshold just under the sequential norm of A^k stops the scan at
    k + 1 for the strictly falling norms the callers use, and the skip
    decisions before k do not depend on where near A^k the threshold is.
    """
    B = A
    for _ in range(k - 1):
        B = B @ A
    result, formed = _reference_chunked_power_scan(A, 10000, np.abs(B).max() * (1 - 1e-9))
    assert result[1] == k + 1
    return _max_norm(formed[k])


@pytest.mark.parametrize("K", [4, 40, 200])
def test_power_scan_stops_at_chunk_edges(K):
    # 0.5 * (row-stochastic) has strictly falling max-norms, so a threshold
    # equal to ||A^k||_max as the scan forms A^k stops the scan exactly at k.
    A, _ = _instance(K, 70 + K)
    A *= 0.5
    ends = _power_chunk_ends(K, 10000)
    c = _power_chunk_width(K, 10000)
    if K == 200:
        assert c == 1 and ends[:3] == [1, 2, 3]  # the byte cap leaves one power a chunk
    else:
        assert ends[:8] == ([1, 2, 4, 8, 16, 32, 64, 128] if K == 4 else [1, 2, 4, 8, 16, 20, 40, 60])
    # each power of the first doubling blocks, the last power of the
    # warm-up and of the first two chunks, and the first power after each;
    # all but the first chunk are skipped on the way to 2c + 1 and 3c
    targets = sorted({1, 2, 3, 4, 5, c, c + 1, 2 * c, 2 * c + 1, 3 * c})
    for k in targets:
        assert _check_power_scan(A, 10000, _formed_norm(A, k))[:2] == (True, k)
    # k_max at the warm-up's and a chunk's last power, the threshold one
    # power past it
    for k_max in (c, 2 * c):
        got = _check_power_scan(A, k_max, _formed_norm(A, k_max + 1))
        assert got[:2] == (False, None)
    # k_max inside the warm-up, stopping inside it or not at all
    assert _check_power_scan(A, 3, _formed_norm(A, 2))[:2] == (True, 2)
    got = _check_power_scan(A, 3, _formed_norm(A, 4))
    assert got[:2] == (False, None) and got[2] == _formed_norm(A, 3)


def test_power_scan_stops_on_nan_inside_a_chunk():
    # A NaN power needs inf - inf inside one product; with fused
    # multiply-adds a single running sum overflows to inf first, but a sum
    # split across accumulators can meet +inf and -inf. At K = 33 this
    # BLAS does so for some of these matrices inside a doubling block.
    starts = {k + 1 for k in _power_chunk_ends(33, 100)}
    nan_inside = 0
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(33, 33))
        A = signs * 10.0 ** rng.uniform(0.0, 80.0, size=(33, 33))
        assert _check_power_scan_meaning(A, 100, 1e-12) == (False, None, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            formed = _reference_chunked_power_scan(A, 100, 1e-12)[1]
        k = max(formed)
        nan_inside += bool(np.isnan(np.abs(formed[k]).max())) and k not in starts
    if not nan_inside:
        pytest.skip("this BLAS formed no NaN before an overflow")


def test_power_scan_stops_on_overflow_inside_a_chunk():
    # 10^k overflows at k = 309, inside the chunk of powers 257..320; the
    # chunks before it are skipped
    ends = _power_chunk_ends(2, 5000)
    assert 256 in ends and 320 in ends
    assert _check_power_scan_meaning(10.0 * np.eye(2), 5000, 1e-12) == (False, None, np.inf)


class _CountingNumpy:
    """numpy, with np.dot counting the K x K products it forms; the scan
    forms every product, stacked or not, through np.dot."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, out=None):
        self.products += a.shape[0] // b.shape[0]
        return np.dot(a, b, out=out)


def test_power_scan_skips_chunks_on_the_walk(monkeypatch):
    # The K = 40 compression of a 300-state walk at alpha 0.99 has rho = 1
    # and first_k = 5,499 at the default threshold; a per-power scan forms
    # about 5,500 products, the chunked scan skips all but about 300.
    mdp = make_symmetric_walk(300, 0.2, seed=0)
    P = induce_chain(mdp, Policy(np.zeros(mdp.n, dtype=np.int64))).P
    M = math.sqrt(0.99) * compress(P, build_basis(P, 40, strategy="schur_dominant")).A
    counter = _CountingNumpy()
    monkeypatch.setattr(kernels, "np", counter)
    got = kernels.power_max_norms(M, 10000, 1e-12)
    monkeypatch.undo()
    assert counter.products <= 400
    assert got == _check_power_scan(M, 10000, 1e-12)
    # first_k is the sequential loop's: the first power at or below 1e-12
    B, k = M, 1
    while np.abs(B).max() > 1e-12:
        B, k = B @ M, k + 1
    assert got[:2] == (True, k) and k > 5000


def test_power_scan_dip_inside_a_chunk_is_not_skipped():
    # A 2 x 2 block [[0, a], [b, 0]] with ab = 0.9: even powers have
    # max-norm 0.9^(k/2), odd ones 1e6 times more. At K = 23 a chunk has
    # 61 powers, so chunk ends alternate between odd and even powers. The
    # even power 264 is the first at or below 1e-6, inside the chunk
    # 245..305, whose last power is an odd one far above 1e-6; L = 1e6
    # keeps that chunk from being skipped.
    A = np.zeros((23, 23))
    A[0, 1], A[1, 0] = 1e6, 0.9e-6
    assert _power_chunk_width(23, 10000) == 61
    assert _check_power_scan_meaning(A, 10000, 1e-6)[:2] == (True, 264)


def test_power_scan_does_not_skip_a_chunk_that_overflows():
    # [[0, 2^500], [2^-499, 0]] has A^(2m) = 2^m I and A^(2m+1) = 2^m A, so
    # odd powers overflow from k = 1049 while even ones stay finite. The
    # chunk 1025..1088 ends on the finite A^1088, far above threshold * L,
    # but ||A^1024||_max * U overflows, so it is formed and A^1049 ends
    # the scan.
    A = np.array([[0.0, 2.0**500], [2.0**-499, 0.0]])
    assert _check_power_scan_meaning(A, 1088, 1e-12) == (False, None, np.inf)


def test_power_scan_agrees_with_the_sequential_loop():
    # Seeded random operands: row-stochastic, non-normal triangular,
    # Gaussian and overflowing; most run past several skipped chunks.
    rng = np.random.default_rng(2026)
    for i in range(24):
        K = int(rng.integers(1, 9))
        kind = i % 4
        if kind == 0:
            A = rng.random((K, K))
            A *= rng.uniform(0.9, 0.99) / A.sum(axis=1, keepdims=True)
        elif kind == 1:
            A = np.triu(rng.standard_normal((K, K))) * rng.uniform(0.5, 3.0)
            np.fill_diagonal(A, rng.uniform(0.8, 0.97, K) * rng.choice([-1.0, 1.0], K))
        elif kind == 2:
            A = rng.standard_normal((K, K)) * rng.uniform(0.3, 1.0) / math.sqrt(K)
        else:
            A = rng.standard_normal((K, K)) * 10.0 ** rng.uniform(0.5, 2.0)
        threshold = 10.0 ** rng.uniform(-12.0, -3.0)
        _check_power_scan_meaning(A, int(rng.integers(1, 600)), threshold)


def test_power_scan_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.power_max_norms(10.0 * np.eye(2), 5000, 1e-12) == (False, None, np.inf)


def test_backend_selected():
    assert kernels.ACTIVE_BACKEND == "numpy"
    assert kernels.affine_iteration is not None


def test_the_call_forms_perfbench_uses():
    # perfbench/kernel_sweep.py calls the three kernels with these
    # positional arguments and reads out[3], out[0] and out[1];
    # perfbench/tracing.py reads the affine kernel's args[1] and result[3].
    # The sweep passes iter_cap, so affine_iteration keeps it.
    A, b = _instance(4, 4)
    out = kernels.affine_iteration(A, b, 0.999, 1e-14, 50, 1e12, 0)
    assert len(out) == 6 and int(out[3]) == 50 and out[5] is None
    x, bad = kernels.horner_partial_sum(A, b, 0.95, 20, 1e12)
    assert x.shape == (4,) and bad is None
    out = kernels.power_max_norms(0.5 * np.eye(4), 100, 1e-12)
    assert len(out) == 3 and out[0] and int(out[1]) == 40


def test_affine_iteration_converges_to_fixed_point():
    A, b = _instance(8, 0)
    v, ri, r2, k, status, _ = kernels.affine_iteration(A, b, 0.9, 1e-12, 100000, 1e12, 0)
    ref = np.linalg.solve(np.eye(8) - 0.9 * A, b)
    assert status is RunStatus.CONVERGED
    assert np.abs(v - ref).max() < 1e-10
    assert len(ri) == k == len(r2)
    assert ri[-1] <= 1e-12


def test_affine_iteration_divergence_guard():
    A = 2.0 * np.eye(2)
    b = np.ones(2)
    v, ri, r2, k, status, _ = kernels.affine_iteration(A, b, 0.9, 1e-12, 100000, 1e12, 0)
    assert status is RunStatus.DIVERGED
    assert k < 100000


def test_affine_iteration_max_iter_status():
    A, b = _instance(5, 1)
    _, _, _, k, status, _ = kernels.affine_iteration(A, b, 0.99, 1e-300, 50, 1e12, 0)
    assert status is RunStatus.MAX_ITER
    assert k == 50


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_residual_buffers_follow_iterations_not_max_iter(alpha):
    A, b = _instance(6, 3)
    _, ri, r2, k, status, _ = kernels.affine_iteration(A, b, alpha, 1e-12, 100000, 1e12, 0)
    assert status is RunStatus.CONVERGED
    for res in (ri, r2):
        assert res.size == k and res.flags.owndata


def test_iterate_buffer_contents():
    A, b = _instance(4, 2)
    v, ri, _, k, _, buf = kernels.affine_iteration(A, b, 0.5, 1e-300, 10, 1e12, 10)
    assert buf.shape == (11, 4)
    assert_array_equal(buf[0], np.zeros(4))
    # manual recurrence replay
    x = np.zeros(4)
    for j in range(10):
        x = b + 0.5 * (A @ x)
        assert_allclose(buf[j + 1], x, rtol=0, atol=0)


def test_horner_matches_iteration_bitwise():
    A, b = _instance(6, 3)
    _, _, _, _, _, buf = kernels.affine_iteration(A, b, 0.95, 1e-300, 30, 1e12, 30)
    for k in range(30):
        x, bad = kernels.horner_partial_sum(A, b, 0.95, k, 1e12)
        assert bad is None
        assert_array_equal(x, buf[k + 1])


def test_horner_overflow_flag():
    x, bad = kernels.horner_partial_sum(3.0 * np.eye(2), np.ones(2), 0.9, 200, 1e12)
    assert bad > 0


def test_power_max_norms_contraction():
    vanished, first_k, final = kernels.power_max_norms(0.5 * np.eye(3), 100, 1e-12)
    assert vanished and first_k == 40


def test_power_max_norms_identity():
    vanished, first_k, final = kernels.power_max_norms(np.eye(3), 100, 1e-12)
    assert not vanished and final == 1.0


def test_power_max_norms_overflow_to_inf():
    with np.errstate(over="ignore"):
        vanished, _, final = kernels.power_max_norms(10.0 * np.eye(2), 5000, 1e-12)
    assert not vanished and final == np.inf


class TestNaNIsNotSuccess:
    """A NaN in the operator must never come back as a converged result."""

    def test_affine_run_reports_divergence(self):
        A = np.array([[0.5, np.nan], [0.0, 0.5]])
        res = _run_affine(A, np.ones(2), 0.9, 1e-10, 1000)
        assert res.status is RunStatus.DIVERGED

    def test_series_eval_raises(self):
        A = np.array([[0.5, np.nan], [0.0, 0.5]])
        with pytest.raises(PowerOverflowError):
            series_eval(A, np.ones(2), 0.9, 10)

    def test_power_vanishing_check_does_not_vanish(self):
        A = 0.5 * np.eye(3)
        A[0, 1] = np.nan
        vanishes, first_k, final_norm = power_vanishing_check(A, 100, 1e-12)
        assert not vanishes
        assert first_k is None
        assert final_norm == np.inf
