"""K-sweep of the three iteration kernels, as machine-readable numbers.

    python3 perfbench/kernel_sweep.py [--repeats 3]

Calls only the unsuffixed public kernels (kernels.affine_iteration,
kernels.horner_partial_sum, kernels.power_max_norms), i.e. whichever
backend specvi selected, on the instances and parameters of
benchmarks/bench_kernels.py. Prints a table and, as its last line, one
JSON object with the machine manifest and the best-of-repeats seconds
per kernel and K. Work counts are computed, not measured: affine and
Horner do 2*K^2 flops per step, the power scan one K x K product per k.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import manifest  # noqa: E402
from specvi import kernels  # noqa: E402


def _instance(K, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((K, K))
    A /= A.sum(axis=1, keepdims=True)
    return A, rng.random(K)


def _best_of(fn, repeats):
    best, out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def sweep(repeats):
    rows = []
    for K in (4, 16, 64, 256):
        A, b = _instance(K, K)
        seconds, out = _best_of(lambda: kernels.affine_iteration(A, b, 0.999, 1e-14, 100000, 1e12, 0), repeats)
        steps = int(out[3])
        rows.append({"kernel": "affine_iteration", "K": K, "seconds": seconds, "steps": steps,
                     "flops_computed": 2 * K * K * steps})
    for K in (4, 16, 64, 256):
        A, b = _instance(K, K + 1)
        seconds, _ = _best_of(lambda: kernels.horner_partial_sum(A, b, 0.95, 2000, 1e12), repeats)
        rows.append({"kernel": "horner_partial_sum", "K": K, "seconds": seconds, "steps": 2000,
                     "flops_computed": 2 * K * K * 2000})
    for K in (4, 16, 64):
        rng = np.random.default_rng(K)
        A = rng.random((K, K))
        A *= 0.999 / np.abs(np.linalg.eigvals(A)).max()
        seconds, out = _best_of(lambda: kernels.power_max_norms(A, 10000, 1e-12), repeats)
        products = int(out[1]) - 1 if out[0] else 9999
        rows.append({"kernel": "power_max_norms", "K": K, "seconds": seconds, "products": products,
                     "flops_computed": 2 * K ** 3 * products})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per point")
    args = parser.parse_args()
    rows = sweep(args.repeats)
    for row in rows:
        print(f"  {row['kernel']:20s} K={row['K']:4d}  {row['seconds'] * 1e3:10.2f} ms")
    print(json.dumps({"manifest": manifest.collect(ROOT), "repeats": args.repeats, "kernels": rows}))


if __name__ == "__main__":
    main()
