"""Spans and counters around specvi's layer functions, installed from outside src/.

Each layer function is replaced, at every module attribute its callers
look it up by, with a wrapper that records a span (name, start, end,
parent) and per-layer counters. Spans stay in memory until the batch
ends. A span's self time is its duration minus the time its child
spans cover; the wrapper's own bookkeeping (argument fingerprints, file
sizes) is charged to no layer, so it shows up only in trace.overhead_s.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np


def fingerprint(value, digest=None):
    """Stable digest of a call's arguments, for counting distinct inputs."""
    top = digest is None
    if top:
        digest = hashlib.sha1()
    if isinstance(value, np.ndarray):
        digest.update(f"nd{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            fingerprint(getattr(value, f.name), digest)
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            fingerprint(item, digest)
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(repr(key).encode())
            fingerprint(value[key], digest)
    else:
        digest.update(repr(value).encode())
    return digest.hexdigest() if top else None


class Tracer:
    """In-memory span recorder with per-layer totals."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.totals = {}  # layer name -> {"calls", "failed", "self_s", extra counters}
        self._distinct = {}  # layer name -> set of argument fingerprints
        self._stack = []  # open spans: [id, time covered by children]

    def _layer(self, name):
        if name not in self.totals:
            self.totals[name] = {"calls": 0, "failed": 0, "self_s": 0.0}
        return self.totals[name]

    def wrap(self, name, fn, count=None, distinct=False):
        """Return fn wrapped in a span named `name`.

        count(args, result) returns extra counter increments for a call
        that returned; distinct=True counts distinct argument tuples.
        """
        clock = time.perf_counter
        layer = self._layer(name)
        if distinct:
            seen = self._distinct.setdefault(name, set())

        def traced(*args, **kwargs):
            enter = clock()
            if distinct:
                seen.add(fingerprint((args, kwargs)))
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                layer["calls"] += 1
                layer["self_s"] += (end - start) - frame[1]
                if failed:
                    layer["failed"] += 1
                elif count is not None:
                    for key, inc in count(args, result).items():
                        layer[key] = layer.get(key, 0) + inc
                if self._stack:
                    self._stack[-1][1] += clock() - enter

        return traced

    def summary(self):
        """Per-layer totals, with useful_ratio = distinct inputs / calls where counted."""
        out = {}
        for name, layer in self.totals.items():
            row = dict(layer)
            if name in self._distinct:
                row["distinct"] = len(self._distinct[name])
            out[name] = row
        return out


def _file_bytes(path_index):
    return lambda args, result: {"bytes": os.path.getsize(args[path_index])}


def _affine_counts(args, result):
    # args: (A, b, alpha, tol, max_iter, guard, iter_cap); result[3] is k_final
    K = args[1].shape[0]
    steps = int(result[3])
    return {"steps": steps, "flops": 2 * K * K * steps}


def _power_scan_counts(args, result):
    # args: (A, k_max, threshold); result: (vanished, first_k, final_norm).
    # The scan multiplies once per k below the stopping k; an overflow
    # stop is counted as the full k_max - 1 (an upper bound).
    vanished, first_k, _ = result
    return {"products": int(first_k) - 1 if vanished else int(args[1]) - 1}


def install(tracer):
    """Wrap every traced layer function at the names its callers use."""
    from specvi import cli, evaluation, harness, kernels, spectral

    def wrap_at(sites, name, **kw):
        # one wrapper per site so each keeps its own original function
        for module, attr in sites:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    wrap_at([(cli, "run_experiment")], "harness")
    wrap_at([(harness.ExperimentReport, "write")], "harness.report_write", count=_file_bytes(1))
    wrap_at([(harness, "emit_trace_csv")], "harness.emit_trace_csv", count=_file_bytes(1))
    wrap_at([(harness, "make_random_mdp"), (harness, "make_symmetric_walk")], "mdp.generate")
    wrap_at([(harness, "induce_chain")], "mdp.induce_chain")
    wrap_at([(harness, "build_basis")], "spectral.build_basis", distinct=True)
    wrap_at(
        [(harness, "spectral_radius"), (evaluation, "spectral_radius"), (spectral, "spectral_radius")],
        "spectral.spectral_radius",
        distinct=True,
    )
    wrap_at(
        [(harness, "compress"), (evaluation, "compress"), (spectral, "compress")],
        "spectral.compress",
        distinct=True,
    )
    wrap_at([(harness, "gelfand_sequence")], "spectral.gelfand_sequence")
    wrap_at([(spectral, "two_norm")], "spectral.two_norm")
    wrap_at([(harness, "exact_vi")], "evaluation.exact_vi", distinct=True)
    wrap_at([(harness, "projected_vi")], "evaluation.projected_vi")
    wrap_at([(harness, "direct_solve")], "evaluation.direct_solve")
    wrap_at([(harness, "rate_estimate")], "evaluation.rate_estimate")
    wrap_at([(kernels, "affine_iteration")], "kernels.affine_iteration", count=_affine_counts)
    wrap_at([(kernels, "power_max_norms")], "kernels.power_max_norms", count=_power_scan_counts)
