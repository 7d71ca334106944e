import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from specvi import kernels
from specvi.errors import PowerOverflowError
from specvi.evaluation import RunStatus, _run_affine, series_eval
from specvi.spectral import power_vanishing_check


def _instance(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n))
    A /= A.sum(axis=1, keepdims=True)
    b = rng.random(n)
    return A, b


# Reference implementations: the plain per-element loops the vectorised
# kernels replaced. Every kernel output must match them byte for byte.


def _running_max(acc, x):
    """max(acc, x) by np.maximum's rule: the first NaN met is kept."""
    if acc != acc:
        return acc
    return x if x > acc or x != x else acc


def _reference_affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap):
    K = b.shape[0]
    v = np.zeros(K)
    res_inf = np.empty(max_iter)
    res_2 = np.empty(max_iter)
    rows = iter_cap + 1 if iter_cap > 0 else 1
    iter_buf = np.zeros((rows, K))
    stored = 1 if iter_cap > 0 else 0
    status = kernels.STATUS_MAX_ITER
    k_final = 0
    for step in range(max_iter):
        w = A @ v
        r_inf = 0.0
        r_sq = 0.0
        v_norm = 0.0
        for i in range(K):
            x = b[i] + alpha * w[i]
            d = abs(x - v[i])
            r_inf = _running_max(r_inf, d)
            r_sq += d * d
            v[i] = x
            v_norm = _running_max(v_norm, abs(x))
        res_inf[step] = r_inf
        res_2[step] = math.sqrt(r_sq)
        k_final = step + 1
        if stored > 0 and step + 1 <= iter_cap:
            for i in range(K):
                iter_buf[step + 1, i] = v[i]
            stored = step + 2
        if v_norm > guard or r_inf != r_inf or v_norm != v_norm:
            status = kernels.STATUS_DIVERGED
            break
        if r_inf <= tol:
            status = kernels.STATUS_CONVERGED
            break
    return v, res_inf[:k_final], res_2[:k_final], k_final, status, iter_buf, stored


def _reference_horner_partial_sum(A, b, alpha, k, guard):
    K = b.shape[0]
    x = b.copy()
    for step in range(k):
        w = A @ x
        x_norm = 0.0
        for i in range(K):
            y = b[i] + alpha * w[i]
            x[i] = y
            x_norm = _running_max(x_norm, abs(y))
        if x_norm > guard or x_norm != x_norm:
            return x, step + 1
    return x, -1


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
            return False, 0, np.inf
        final_norm = norm
        if norm <= threshold:
            return True, k, norm
        if k < k_max:
            B = B @ A
    return False, 0, final_norm


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_affine(A, b, alpha, tol, max_iter, guard, iter_cap):
    """Run the kernel and the reference loop; return (k_final, status)."""
    got = kernels.affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap)
    want = _reference_affine_iteration(A, b, alpha, tol, max_iter, guard, iter_cap)
    v, res_inf, res_2, k_final, status, iter_buf, stored = got
    _same_bytes(v, want[0])
    _same_bytes(res_inf, want[1])
    _same_bytes(res_2, want[2])
    assert (k_final, status, stored) == want[3:5] + (want[6],)
    _same_bytes(iter_buf, want[5])
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


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize(
    "scale, alpha, tol, max_iter, iter_cap",
    [
        (1.0, 0.9, 1e-10, 100000, 0),  # converges after ~200 steps, mid-chunk
        (1.0, 0.95, 1e-10, 100000, 40),  # converges; first 40 iterates stored
        (1.0, 0.99, 1e-300, 130, 200),  # max_iter, inside the fifth chunk
        (1.0, 0.99, 1e-300, 120, 13),  # max_iter on a chunk edge; storage ends mid-chunk
        (1.0, 0.99, 1e-300, 3, 5),  # max_iter inside the first chunk
        (3.0, 0.9, 1e-10, 100000, 5),  # diverges past the guard mid-chunk (step 29 or 30)
        (math.nan, 0.9, 1e-10, 100, 5),  # a NaN in A: diverges at step 1
    ],
)
def test_affine_iteration_matches_reference_loop(K, scale, alpha, tol, max_iter, iter_cap):
    A, b = _instance(K, 10 + K)
    _check_affine(_scaled(A, scale), b, alpha, tol, max_iter, 1e12, iter_cap)


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize(
    "scale, k",
    [(1.0, 0), (1.0, 70), (3.0, 200), (math.nan, 200)]
    + [(1.0, k) for k in CHUNK_EDGE_STEPS],
)
def test_horner_matches_reference_loop(K, scale, k):
    A, b = _instance(K, 20 + K)
    _check_horner(_scaled(A, scale), b, 0.95, k, 1e12)


@pytest.mark.parametrize("K", (1, 9, 60))
@pytest.mark.parametrize("k_stop", CHUNK_EDGE_STEPS)
def test_stops_on_and_next_to_chunk_edges(K, k_stop):
    A, b = _instance(K, 40 + K)
    # converges at k_stop: tol is the reference's residual there
    res_inf = _reference_affine_iteration(A, b, 0.9, 1e-300, k_stop, 1e12, 0)[1]
    converged = (k_stop, kernels.STATUS_CONVERGED)
    assert _check_affine(A, b, 0.9, res_inf[-1], 100000, 1e12, 30) == converged
    # runs out of steps at k_stop
    max_iter = (k_stop, kernels.STATUS_MAX_ITER)
    assert _check_affine(A, b, 0.9, 1e-300, k_stop, 1e12, 30) == max_iter
    # 3*A grows every iterate, so a guard at the norm of iterate k_stop - 1
    # (0.0 at k_stop = 1) trips at step k_stop
    A3 = 3.0 * A
    iterates = _reference_affine_iteration(A3, b, 0.9, 1e-300, k_stop, np.inf, k_stop)[5]
    guard = np.abs(iterates[k_stop - 1]).max()
    diverged = (k_stop, kernels.STATUS_DIVERGED)
    assert _check_affine(A3, b, 0.9, 1e-300, 100000, guard, 30) == diverged
    # Horner: the same growth trips the guard at sweep k_stop
    x_prev = _reference_horner_partial_sum(A3, b, 0.9, k_stop - 1, np.inf)[0]
    assert _check_horner(A3, b, 0.9, 500, np.abs(x_prev).max()) == k_stop


def test_divergence_outranks_convergence_on_one_step():
    # step 1 is both past the guard and within tol; divergence is tested first
    A, b = _instance(4, 5)
    diverged = (1, kernels.STATUS_DIVERGED)
    assert _check_affine(A, 1e13 * b, 0.9, 1e14, 100, 1e12, 5) == diverged


def test_nan_residual_diverges_under_an_infinite_guard():
    # an inf iterate passes guard = inf; the inf - inf residual after it
    # is NaN and ends the run
    A = np.array([[1e200]])
    diverged = (4, kernels.STATUS_DIVERGED)
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
    assert (got[3], got[4], got[6]) == (1, kernels.STATUS_CONVERGED, 2)
    for g, w in zip(got[:3] + got[5:6], want[:3] + want[5:6]):
        _same_bytes(g, w)
    x_ref, bad_ref = _reference_horner_partial_sum(A, b, 0.9, 100, 1e12)
    assert bad == bad_ref == 1
    _same_bytes(x, x_ref)


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, k_max", [(0.5, 200), (1.0, 8), (1e20, 3000)])
def test_power_max_norms_matches_reference_loop(K, scale, k_max):
    A, _ = _instance(K, 30 + K)
    A *= scale
    with np.errstate(over="ignore"):
        vanished, first_k, final = kernels.power_max_norms(A, k_max, 1e-6)
        want = _reference_power_max_norms(A, k_max, 1e-6)
    assert (bool(vanished), first_k) == (want[0], want[1])
    _same_bytes(np.float64(final), np.float64(want[2]))


def _power_chunk_ends(K, k_max):
    """Last power of each chunk the power scan forms at this K."""
    most = max(1, min(kernels.MAX_CHUNK, kernels.POWER_STACK_DOUBLES // (K * K)))
    return [start + length for start, length in kernels._chunks(k_max, most)]


def _check_power_scan(A, k_max, threshold):
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels.power_max_norms(A, k_max, threshold)
        want = _reference_power_max_norms(A, k_max, threshold)
    assert (bool(got[0]), got[1]) == (want[0], want[1])
    _same_bytes(np.float64(got[2]), np.float64(want[2]))
    return got


@pytest.mark.parametrize("K", [4, 40, 200])
def test_power_scan_stops_at_chunk_edges(K):
    # 0.5 * (row-stochastic) has strictly falling max-norms, so a threshold
    # equal to ||A^k||_max stops the scan exactly at k.
    A, _ = _instance(K, 70 + K)
    A *= 0.5
    ends = _power_chunk_ends(K, 60)
    if K == 200:
        assert ends[:3] == [1, 2, 3]  # the byte cap leaves one power a chunk
    else:
        assert ends[:2] == [8, 24] if K == 4 else [8, 24, 44]
    norms, B = [], A.copy()
    for _ in range(max(ends[1] + 1, 4)):
        norms.append(float(np.abs(B).max()))
        B = B @ A
    # the first power of the first two chunks, the last one of each
    targets = [1, ends[0], ends[0] + 1, ends[1], ends[1] + 1]
    for k in targets:
        assert _check_power_scan(A, 10000, norms[k - 1])[:2] == (True, k)
    # k_max at a chunk's last power, the threshold one power past it
    for k_max in (ends[0], ends[1]):
        assert _check_power_scan(A, k_max, norms[k_max])[:2] == (False, 0)
    # k_max below the first chunk, stopping inside it or not at all
    assert _check_power_scan(A, 3, norms[1])[:2] == (True, 2)
    got = _check_power_scan(A, 3, norms[3])
    assert got[:2] == (False, 0) and got[2] == norms[2]


def test_power_scan_stops_on_nan_inside_a_chunk():
    # A NaN power needs inf - inf inside one product; with fused
    # multiply-adds a single running sum overflows to inf first, but a sum
    # split across accumulators can meet +inf and -inf. At K = 33 this
    # BLAS does so for some of these matrices at k = 4 of the chunk 1..8.
    first_chunk = _power_chunk_ends(33, 100)[0]
    nan_inside = 0
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(33, 33))
        A = signs * 10.0 ** rng.uniform(0.0, 80.0, size=(33, 33))
        assert _check_power_scan(A, 100, 1e-12) == (False, 0, np.inf)
        B, k = A, 1
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(B).all():
                B, k = B @ A, k + 1
        nan_inside += bool(np.isnan(np.maximum.reduce(np.abs(B), axis=None))) and k < first_chunk
    if not nan_inside:
        pytest.skip("this BLAS formed no NaN before an overflow")


def test_power_scan_stops_on_overflow_inside_a_chunk():
    # 10^k overflows at k = 309, inside the chunk of powers 249..312
    ends = _power_chunk_ends(2, 5000)
    assert 248 in ends and 312 in ends
    assert _check_power_scan(10.0 * np.eye(2), 5000, 1e-12) == (False, 0, np.inf)


def test_power_scan_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.power_max_norms(10.0 * np.eye(2), 5000, 1e-12) == (False, 0, np.inf)


def test_backend_selected():
    assert kernels.ACTIVE_BACKEND == "numpy"
    assert kernels.affine_iteration is not None


def test_affine_iteration_converges_to_fixed_point():
    A, b = _instance(8, 0)
    v, ri, r2, k, status, _, _ = kernels.affine_iteration(A, b, 0.9, 1e-12, 100000, 1e12, 0)
    ref = np.linalg.solve(np.eye(8) - 0.9 * A, b)
    assert status == kernels.STATUS_CONVERGED
    assert np.abs(v - ref).max() < 1e-10
    assert len(ri) == k == len(r2)
    assert ri[-1] <= 1e-12


def test_affine_iteration_divergence_guard():
    A = 2.0 * np.eye(2)
    b = np.ones(2)
    v, ri, r2, k, status, _, _ = kernels.affine_iteration(A, b, 0.9, 1e-12, 100000, 1e12, 0)
    assert status == kernels.STATUS_DIVERGED
    assert k < 100000


def test_affine_iteration_max_iter_status():
    A, b = _instance(5, 1)
    _, _, _, k, status, _, _ = kernels.affine_iteration(A, b, 0.99, 1e-300, 50, 1e12, 0)
    assert status == kernels.STATUS_MAX_ITER
    assert k == 50


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_residual_buffers_follow_iterations_not_max_iter(alpha):
    A, b = _instance(6, 3)
    _, ri, r2, k, status, _, _ = kernels.affine_iteration(A, b, alpha, 1e-12, 100000, 1e12, 0)
    assert status == kernels.STATUS_CONVERGED
    for res in (ri, r2):
        assert res.size == k and res.flags.owndata


def test_iterate_buffer_contents():
    A, b = _instance(4, 2)
    v, ri, _, k, _, buf, stored = kernels.affine_iteration(A, b, 0.5, 1e-300, 10, 1e12, 10)
    assert stored == 11
    assert_array_equal(buf[0], np.zeros(4))
    # manual recurrence replay
    x = np.zeros(4)
    for j in range(10):
        x = b + 0.5 * (A @ x)
        assert_allclose(buf[j + 1], x, rtol=0, atol=0)


def test_horner_matches_iteration_bitwise():
    A, b = _instance(6, 3)
    _, _, _, _, _, buf, stored = kernels.affine_iteration(A, b, 0.95, 1e-300, 30, 1e12, 30)
    for k in range(30):
        x, bad = kernels.horner_partial_sum(A, b, 0.95, k, 1e12)
        assert bad == -1
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
        _, trace = _run_affine(A, np.ones(2), 0.9, 1e-10, 1000, False)
        assert trace.status is RunStatus.DIVERGED

    def test_series_eval_raises(self):
        A = np.array([[0.5, np.nan], [0.0, 0.5]])
        with pytest.raises(PowerOverflowError):
            series_eval(A, np.ones(2), 0.9, 10)

    def test_power_vanishing_check_does_not_vanish(self):
        A = 0.5 * np.eye(3)
        A[0, 1] = np.nan
        check = power_vanishing_check(A, 100, 1e-12)
        assert not check.vanishes
        assert check.first_k is None
        assert check.final_norm == np.inf
