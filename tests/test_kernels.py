import math

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
# kernels replaced. Every kernel output must match them byte for byte on
# finite input.


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
            d = x - v[i]
            if d < 0.0:
                d = -d
            if d > r_inf:
                r_inf = d
            r_sq += d * d
            v[i] = x
            if x < 0.0:
                x = -x
            if x > v_norm:
                v_norm = x
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
            if y < 0.0:
                y = -y
            if y > x_norm:
                x_norm = y
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
                x = B[i, j]
                if x < 0.0:
                    x = -x
                if x > norm:
                    norm = x
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


REFERENCE_K = (1, 2, 7, 8, 9, 60, 150)


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize(
    "scale, alpha, tol, max_iter, iter_cap",
    [
        (1.0, 0.9, 1e-10, 100000, 0),  # converges after ~200 steps
        (1.0, 0.95, 1e-10, 100000, 40),  # converges; first 40 iterates stored
        (1.0, 0.99, 1e-300, 130, 200),  # max_iter, buffers grow past 64 and 128
        (3.0, 0.9, 1e-10, 100000, 5),  # diverges past the guard
    ],
)
def test_affine_iteration_matches_reference_loop(K, scale, alpha, tol, max_iter, iter_cap):
    A, b = _instance(K, 10 + K)
    A *= scale
    got = kernels.affine_iteration(A, b, alpha, tol, max_iter, 1e12, iter_cap)
    want = _reference_affine_iteration(A, b, alpha, tol, max_iter, 1e12, iter_cap)
    v, res_inf, res_2, k_final, status, iter_buf, stored = got
    _same_bytes(v, want[0])
    _same_bytes(res_inf, want[1])
    _same_bytes(res_2, want[2])
    assert (k_final, status, stored) == want[3:5] + (want[6],)
    _same_bytes(iter_buf, want[5])


@pytest.mark.parametrize("K", REFERENCE_K)
@pytest.mark.parametrize("scale, k", [(1.0, 0), (1.0, 1), (1.0, 70), (3.0, 200)])
def test_horner_matches_reference_loop(K, scale, k):
    A, b = _instance(K, 20 + K)
    A *= scale
    x, bad = kernels.horner_partial_sum(A, b, 0.95, k, 1e12)
    x_ref, bad_ref = _reference_horner_partial_sum(A, b, 0.95, k, 1e12)
    assert bad == bad_ref
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
        assert res.base.size <= max(kernels.RESIDUAL_CHUNK, 2 * k)


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
