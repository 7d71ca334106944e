"""Experiment runner: reproducible sweeps, proposition checks, reports.

Each experiment is described by an ExperimentConfig (usually parsed from
JSON), executes deterministically given its seeds, and produces one JSON
report plus optional per-run CSV traces in the output directory. Failed
runs are recorded with an error status and never abort the batch, so
counterexample searches always complete.

Report schema (schema_version 1): {"schema_version", "kind",
"created_at", "config", "records", "summary", "findings"}; created_at is
the only field that differs between reruns of the same config.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, SpecviError
from .evaluation import (
    EvaluationResult,
    RunStatus,
    approximation_error,
    direct_solve,
    exact_vi,
    projected_vi,
    rate_estimate,
    reconstruct,
)
from .mdp import (
    Mdp,
    Policy,
    format_real,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
    read_mdp,
)
from .spectral import (
    BASIS_STRATEGIES,
    build_basis,
    compress,
    gelfand_finals,
    gelfand_sequence,  # noqa: F401  (perfbench/tracing.py wraps this name)
    inf_norm,
    power_vanishing_check,
    spectral_radius,  # noqa: F401  (perfbench/tracing.py wraps this name)
)

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "evaluate",
    "compare_rates",
    "check_compression",
    "gelfand_study",
    "proposition_suite",
)

#: The kinds whose record ids carry alpha (see _grid_targets).
_ALPHA_ID_KINDS = ("evaluate", "compare_rates", "proposition_suite")

#: Findings thresholds on the measured compression radius.
RADIUS_EXCESS_TOL = 1e-9
RADIUS_EQUALITY_TOL = 1e-6

#: Projected runs record their certificate (rho of the iteration matrix)
#: up to this K. It stays below spectral.DENSE_EIG_LIMIT: a certificate is
#: an extra dense eigvals on a projected run that needs none to iterate,
#: and raising the limit would add certificates to the reports of runs
#: with 500 < K.
CERTIFICATE_SIZE_LIMIT = 500


def _list_field(name, value):
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _int_field(name, value, lowest):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} takes integers, got {value!r}")
    if value < lowest:
        raise ConfigError(f"{name} must be >= {lowest}, got {value}")
    return int(value)


def _real_field(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} takes numbers, got {value!r}")
    return float(value)


def _alpha_label(alpha: float) -> str:
    """alpha as record ids and trace file names spell it."""
    return f"{alpha:g}"


def _colliding(values, label):
    """The values whose label another value shares, in list order."""
    labels = [label(v) for v in values]
    return [v for v, key in zip(values, labels) if labels.count(key) > 1]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment batch."""

    kind: str
    mdp_source: dict
    output_dir: str
    K_list: tuple[int, ...] = (1,)
    alpha_list: tuple[float, ...] = (0.9,)
    policy: str | tuple[int, ...] = "action-0"
    basis_strategy: str = "schur_dominant"
    tol: float = 1e-10
    max_iter: int = 100000
    trials: int = 1
    seed: int = 0
    rate_window: int = 20
    gelfand_k_max: int = 200
    vanish_k_max: int = 10000
    vanish_threshold: float = 1e-12
    store_traces: bool = True

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; choose one of {EXPERIMENT_KINDS}")
        if not isinstance(self.mdp_source, dict) or not (
            "generator" in self.mdp_source or "path" in self.mdp_source
        ):
            raise ConfigError("mdp_source must carry 'generator' (+params) or 'path'")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        coerced = {
            "K_list": tuple(_int_field("K_list", k, 1) for k in _list_field("K_list", self.K_list)),
            "alpha_list": tuple(
                _real_field("alpha_list", a) for a in _list_field("alpha_list", self.alpha_list)
            ),
            "tol": _real_field("tol", self.tol),
            "max_iter": _int_field("max_iter", self.max_iter, 1),
            "trials": _int_field("trials", self.trials, 1),
            "seed": _int_field("seed", self.seed, 0),
            "rate_window": _int_field("rate_window", self.rate_window, 2),
            "gelfand_k_max": _int_field("gelfand_k_max", self.gelfand_k_max, 1),
            "vanish_k_max": _int_field("vanish_k_max", self.vanish_k_max, 1),
            "vanish_threshold": _real_field("vanish_threshold", self.vanish_threshold),
        }
        for name, value in coerced.items():
            object.__setattr__(self, name, value)
        if not self.K_list:
            raise ConfigError("K_list must not be empty")
        if not self.alpha_list:
            raise ConfigError("alpha_list must not be empty")
        if any(not (0.0 <= a < 1.0) for a in self.alpha_list):
            raise ConfigError("all alphas must lie in [0, 1)")
        # each value names its records and trace files
        if clash := _colliding(self.K_list, str):
            raise ConfigError(f"K_list values {clash} would give records the same id")
        if self.kind in _ALPHA_ID_KINDS and (clash := _colliding(self.alpha_list, _alpha_label)):
            raise ConfigError(f"alpha_list values {clash} would give records the same id")
        if not (0.0 < self.tol < math.inf) or not (0.0 < self.vanish_threshold < math.inf):
            raise ConfigError("tol and vanish_threshold must be positive and finite")
        if not isinstance(self.store_traces, bool):
            raise ConfigError(f"store_traces must be true or false, got {self.store_traces!r}")
        if self.basis_strategy not in BASIS_STRATEGIES:
            raise ConfigError(f"unknown basis strategy {self.basis_strategy!r}")
        # only random_orthonormal reads the trial seed; a path source reads none
        if "path" in self.mdp_source and self.trials > 1 and (
            self.basis_strategy != "random_orthonormal"
        ):
            raise ConfigError(
                f"trials={self.trials} would repeat one trial: a path source and "
                f"the {self.basis_strategy!r} basis take no seed; use trials=1"
            )
        if not isinstance(self.policy, str):
            actions = _list_field("policy", self.policy)
            object.__setattr__(self, "policy", tuple(_int_field("policy", a, 0) for a in actions))
        elif self.policy != "action-0":
            raise ConfigError("policy must be 'action-0' or an explicit action array")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"kind", "mdp_source", "output_dir"} - set(data)
        if missing:
            raise ConfigError(f"missing required config fields: {sorted(missing)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = asdict(self)
        out["K_list"] = list(self.K_list)
        out["alpha_list"] = list(self.alpha_list)
        if not isinstance(self.policy, str):
            out["policy"] = list(self.policy)
        return out


@dataclass
class ExperimentReport:
    """Config echo, one record per run, summary statistics, and findings."""

    config: ExperimentConfig
    records: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    created_at: str = ""

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.config.kind,
            "created_at": self.created_at,
            "config": self.config.to_dict(),
            "records": self.records,
            "summary": self.summary,
            "findings": self.findings,
        }

    def write(self, path) -> None:
        """Write the report as JSON through a temporary file and os.replace,
        so that path holds either its old contents or the whole new report."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def emit_trace_csv(result: EvaluationResult, path) -> None:
    """Write "k,residual_inf,residual_2" rows, one per iteration, 17 digits."""
    rows = zip(range(1, result.k_final + 1), result.residuals_inf.tolist(), result.residuals_2.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,residual_inf,residual_2\r\n")
        # streamed: the text of a long trace is never held whole
        fh.writelines(f"{k},{format_real(i)},{format_real(t)}\r\n" for k, i, t in rows)


def read_trace_csv(path):
    """Parse an emit_trace_csv file back into (residuals_inf, residuals_2)."""
    inf, two = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["k", "residual_inf", "residual_2"]:
                raise ConfigError(f"{path}: unexpected trace header {header!r}")
            for row in reader:
                try:
                    inf.append(float(row[1]))
                    two.append(float(row[2]))
                except (IndexError, ValueError) as exc:
                    raise ConfigError(f"{path}: line {reader.line_num} is not a trace row") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    return np.array(inf), np.array(two)


#: The keys each form of mdp_source takes: a path, or one per generator.
_SOURCE_KEYS = {
    "path": ["path"],
    "random": ["generator", "n", "m"],
    "symmetric_walk": ["generator", "n", "self_loop"],
}


def _make_instance(config: ExperimentConfig, trial: int, first=None) -> tuple[Mdp, int]:
    """Instance for one trial; generator sources use seed + trial. A path
    source is read once per batch: later trials reuse the Mdp, which is
    immutable, of first, the batch's trial-0 Instance."""
    src = config.mdp_source
    instance_seed = config.seed + trial
    if "path" in src:
        form = "path"
    else:
        form = src["generator"]
        if form not in ("random", "symmetric_walk"):
            raise ConfigError(f"unknown generator {form!r}")
    extra = [key for key in src if key not in _SOURCE_KEYS[form]]
    if extra:
        raise ConfigError(
            f"mdp_source keys {extra} are not read; a {form!r} source takes "
            f"only {_SOURCE_KEYS[form]}"
        )
    if form == "path":
        if not isinstance(src["path"], str):
            raise ConfigError(f"mdp_source path takes a string, got {src['path']!r}")
        return (read_mdp(src["path"]) if first is None else first.mdp), instance_seed
    n = _int_field("mdp_source n", src.get("n"), 1)
    if form == "random":
        m = _int_field("mdp_source m", src.get("m"), 1)
        return make_random_mdp(n, m, instance_seed), instance_seed
    self_loop = _real_field("mdp_source self_loop", src.get("self_loop", 0.1))
    return make_symmetric_walk(n, self_loop, instance_seed), instance_seed


def _policy_for(config: ExperimentConfig, mdp: Mdp) -> Policy:
    if isinstance(config.policy, str):
        return Policy(np.zeros(mdp.n, dtype=np.int64))
    if len(config.policy) != mdp.n:
        raise ConfigError(
            f"explicit policy has length {len(config.policy)}, instance has n={mdp.n}"
        )
    return Policy(np.asarray(config.policy, dtype=np.int64))


def _check_K(config: ExperimentConfig, n: int) -> None:
    bad = [k for k in config.K_list if k > n]
    if bad:
        raise ConfigError(f"K values {bad} exceed the instance state count n={n}")


def _base_record(inst, t):
    return {
        "id": f"t{inst.trial:04d}_{t.suffix}",
        "trial": inst.trial,
        "instance_seed": inst.seed,
        "provenance": inst.mdp.provenance,
        "n": inst.mdp.n,
        "K": t.K,
        "alpha": t.alpha,
        "strategy": t.strategy,
    }


def _record_error(record, exc):
    record["status"] = "error"
    record["error_type"] = type(exc).__name__
    record["error"] = str(exc)
    return record


def _finding(findings, record, kind, **detail):
    findings.append({"record": record["id"], "kind": kind, "detail": detail})


def _new_report(config: ExperimentConfig) -> ExperimentReport:
    os.makedirs(config.output_dir, exist_ok=True)
    return ExperimentReport(
        config=config,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


class Instance:
    """One trial's MDP and induced chain, with every quantity that depends
    only on them computed once, on first use, and shared by the trial's
    records.

    The work goes through this module's build_basis, compress and
    exact_vi. rho_P is ||P||_inf, an upper bound on rho(P); for a
    nonnegative P both lie within [min, max] row sum (Horn & Johnson,
    Matrix Analysis, Thm 8.1.22), so for a StochasticMatrix it is
    rho(P) = 1 up to rounding. compressed(K) is the one per-K object: it
    carries its basis and keeps its own dense spectral radius
    (CompressedOperator.rho). schur_dominant bases for all K share one
    Schur form, which the first build_basis call stores in the instance's
    memo, sorted only as far as the largest K asked; a symmetric P's
    (every symmetric_walk's) comes from one eigh, fully sorted, with no
    scipy. svd_top bases share one SVD the same way. A failed computation is not cached, so each record that needs
    it records the error itself.
    """

    def __init__(self, config: ExperimentConfig, trial: int, first=None):
        self.config = config
        self.trial = trial
        self.mdp, self.seed = _make_instance(config, trial, first)
        _check_K(config, self.mdp.n)
        self.chain = induce_chain(self.mdp, _policy_for(config, self.mdp))
        self._basis_memo = {}
        self._values = {}

    def _cached(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    @property
    def rho_P(self) -> float:
        return self._cached("rho_P", lambda: inf_norm(self.chain.P.entries))

    def compressed(self, K: int):
        """U^T P U for the trial's K-column basis U, which it carries as .basis."""
        P = self.chain.P
        return self._cached(
            ("compressed", K),
            lambda: compress(
                P,
                build_basis(
                    P, K, strategy=self.config.basis_strategy, seed=self.seed, memo=self._basis_memo
                ),
            ),
        )

    def exact(self, alpha: float):
        return self._cached(
            ("exact", alpha),
            lambda: exact_vi(
                self.chain, alpha, tol=self.config.tol, max_iter=self.config.max_iter
            ),
        )


class _Target(NamedTuple):
    """One record of a trial: the record-id suffix after the trial prefix,
    the record's own K, alpha and strategy, and, for gelfand_study, the K
    whose compression the record measures (None: P itself)."""

    suffix: str
    K: int | None
    alpha: float | None
    strategy: str
    operand: int | None = None


def _grid_targets(inst):
    """One target per (K, alpha), K-major."""
    config = inst.config
    return [
        _Target(f"K{K}_a{_alpha_label(alpha)}", K, alpha, config.basis_strategy)
        for K in config.K_list
        for alpha in config.alpha_list
    ]


def _radius_fields(findings, rec, rho_P: float, rho_A: float) -> None:
    """rho(P), rho(U^T P U) and their ratio, with the radius findings."""
    ratio = rho_A / rho_P if rho_P > 0 else math.inf
    rec["rho_P"] = rho_P
    rec["rho_A"] = rho_A
    rec["ratio"] = ratio
    if rho_A > 1.0 + RADIUS_EXCESS_TOL:
        _finding(findings, rec, "compression-radius-exceeds-one", rho_A=rho_A)
    if abs(rho_A - rho_P) > RADIUS_EQUALITY_TOL:
        _finding(
            findings, rec, "compression-radius-differs", rho_P=rho_P, rho_A=rho_A, ratio=ratio
        )


def _projected_run(inst, K, alpha) -> tuple[EvaluationResult, dict | None]:
    """Projected VI on the instance's compression, then its certificate:
    rho(A), alpha*rho(A) and whether that is below 1, or None past
    CERTIFICATE_SIZE_LIMIT. The compression keeps its rho for the trial's
    other records."""
    config = inst.config
    op = inst.compressed(K)
    proj = projected_vi(inst.chain, op, alpha, tol=config.tol, max_iter=config.max_iter)
    if K > CERTIFICATE_SIZE_LIMIT:
        return proj, None
    alpha_rho = alpha * op.rho
    return proj, {"rho_A": op.rho, "alpha_rho": alpha_rho, "certified": alpha_rho < 1.0}


def _projected_fields(inst, t, rec, findings, proj: EvaluationResult, certificate) -> None:
    """Status, certificate and LU-oracle check of a projected run, with its
    fixed-point-mismatch and diverged findings."""
    status = proj.status
    rec["status"] = status.value
    rec["k_final"] = proj.k_final
    rec["certificate"] = certificate
    if status is RunStatus.CONVERGED:
        op = inst.compressed(t.K)
        oracle = direct_solve(op.A, op.basis.U.T @ inst.chain.c, t.alpha)
        rec["oracle_err_inf"] = float(np.abs(proj.v_fixed - oracle).max())
        if rec["oracle_err_inf"] > 100 * inst.config.tol:
            _finding(findings, rec, "fixed-point-mismatch", oracle_err_inf=rec["oracle_err_inf"])
    else:
        rec["oracle_err_inf"] = None
        if status is RunStatus.DIVERGED:
            _finding(findings, rec, "diverged", certificate=rec["certificate"])


def _evaluate_record(inst, t, rec, findings):
    config = inst.config
    proj, certificate = _projected_run(inst, t.K, t.alpha)
    exact = inst.exact(t.alpha)
    rec["final_residual"] = float(proj.residuals_inf[-1])
    rec["exact_status"] = exact.status.value
    rec["exact_k_final"] = exact.k_final
    _projected_fields(inst, t, rec, findings, proj, certificate)
    rec["approx_err_inf"] = rec["approx_rel_inf"] = None
    if proj.status is RunStatus.CONVERGED:
        U = inst.compressed(t.K).basis
        err = approximation_error(exact.v_fixed, reconstruct(U, proj.v_fixed))
        rec["approx_err_inf"] = err.err_inf
        rec["approx_rel_inf"] = err.rel_inf
    if config.store_traces:
        rec["trace_csv"] = f"trace_{rec['id']}.csv"
        emit_trace_csv(proj, os.path.join(config.output_dir, rec["trace_csv"]))


def _compare_rates_record(inst, t, rec, findings):
    config = inst.config
    op = inst.compressed(t.K)
    rho_A = op.rho
    rho_P = inst.rho_P
    exact = inst.exact(t.alpha)
    proj = projected_vi(inst.chain, op, t.alpha, tol=config.tol, max_iter=config.max_iter)
    r_exact = rate_estimate(exact, config.rate_window)
    r_proj = rate_estimate(proj, config.rate_window)
    rec["rho_P"] = rho_P
    rec["rho_A"] = rho_A
    rec["exact_rate"] = {"empirical": r_exact, "predicted": t.alpha * rho_P}
    rec["projected_rate"] = {"empirical": r_proj, "predicted": t.alpha * rho_A}
    rec["rates_match"] = bool(abs(r_exact - r_proj) <= 0.02 * max(r_exact, 1e-30))
    rec["status"] = "ok"
    if config.store_traces:
        for tag, res in (("proj", proj), ("exact", exact)):
            name = f"trace_{rec['id']}_{tag}.csv"
            emit_trace_csv(res, os.path.join(config.output_dir, name))
        rec["trace_csv"] = f"trace_{rec['id']}_proj.csv"


def _compression_targets(inst):
    config = inst.config
    return [_Target(f"K{K}", K, None, config.basis_strategy) for K in config.K_list]


def _check_compression_record(inst, t, rec, findings):
    # the compression builds the basis first, so a record whose basis
    # fails reports that failure
    A = inst.compressed(t.K)
    _radius_fields(findings, rec, inst.rho_P, A.rho)
    rec["status"] = "ok"


def _gelfand_targets(inst):
    """P, then one compression per K; a failed basis fails only its target."""
    config = inst.config
    return [
        _Target("P" if K is None else f"A_K{K}", None, None, config.basis_strategy, K)
        for K in (None,) + config.K_list
    ]


def _gelfand_record(inst, t, rec, findings):
    rec["target"] = t.suffix
    if t.operand is None:
        M, rho = inst.chain.P.entries, inst.rho_P
    else:
        op = inst.compressed(t.operand)
        M, rho = op.A, op.rho
    k_max = inst.config.gelfand_k_max
    two, inf = gelfand_finals(M, k_max)
    # for P this is ||P||_inf; perfbench's gate pins the key's name
    rec["rho_dense"] = rho
    rec["gelfand_two_final"] = two
    rec["gelfand_inf_final"] = inf
    rec["err_two"] = abs(two - rho)
    rec["err_inf"] = abs(inf - rho)
    rec["status"] = "ok"


def _proposition_targets(inst):
    """The identity sub-case (K = n, U = I), then the (K, alpha) grid."""
    return [_Target("identity", inst.mdp.n, None, "coordinate")] + _grid_targets(inst)


def _proposition_record(inst, t, rec, findings):
    """Empirically test the note's claims on one target.

    Identity sub-case: U = I makes A = U^T P U equal to P, so rho_A is
    the instance's rho(P) and the ratio is 1. Per (K, alpha): (1) measure
    rho(P) vs rho(U^T P U); (2) check that powers of sqrt(alpha)*A
    vanish; (3) run projected VI and record the status; (4) cross-check a
    converged fixed point against the LU oracle.
    """
    config = inst.config
    if t.suffix == "identity":
        _radius_fields(findings, rec, inst.rho_P, inst.rho_P)
        rec["identity_subcase"] = True
        rec["status"] = "ok"
        return
    A = inst.compressed(t.K)
    _radius_fields(findings, rec, inst.rho_P, A.rho)
    root = math.sqrt(t.alpha)
    vanishes, first_k, final_norm = power_vanishing_check(
        root * A.A, config.vanish_k_max, config.vanish_threshold
    )
    rec["power_vanishes"] = vanishes
    rec["vanish_first_k"] = first_k
    if not vanishes and root * A.rho < 1.0 - 1e-6:
        _finding(findings, rec, "power-not-vanishing", final_norm=final_norm)
    _projected_fields(inst, t, rec, findings, *_projected_run(inst, t.K, t.alpha))


def _status_counts(records):
    statuses = [r["status"] for r in records]
    return {s: statuses.count(s) for s in ("converged", "diverged", "max_iter")}


def _radius_counts(findings):
    kinds = [f["kind"] for f in findings]
    return {
        "radius_exceeds_one": kinds.count("compression-radius-exceeds-one"),
        "radius_differs": kinds.count("compression-radius-differs"),
    }


def _evaluate_summary(records, findings):
    oracle_errs = [r["oracle_err_inf"] for r in records if r.get("oracle_err_inf") is not None]
    return {**_status_counts(records), "max_oracle_err_inf": max(oracle_errs, default=None)}


def _compare_rates_summary(records, findings):
    devs = []
    for r in records:
        if r["status"] == "ok":
            for key in ("exact_rate", "projected_rate"):
                pred = r[key]["predicted"]
                if pred > 0:
                    devs.append(abs(r[key]["empirical"] / pred - 1.0))
    return {"max_rate_rel_dev": max(devs, default=None)}


def _check_compression_summary(records, findings):
    ratios = [r["ratio"] for r in records if r["status"] == "ok"]
    return {
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
        "ratio_mean": float(np.mean(ratios)) if ratios else None,
        **_radius_counts(findings),
    }


def _gelfand_summary(records, findings):
    errs = [max(r["err_two"], r["err_inf"]) for r in records if r["status"] == "ok"]
    return {"max_gelfand_err": max(errs, default=None)}


def _linear_quantile(xs, q):
    """np.percentile(xs, 100 * q) for a sorted nonempty list xs, by numpy's
    default "linear" rule with numpy's own operations, so the bytes match.

    np.percentile itself would load numpy.ma, through np.unique. As in
    numpy, a position past the last index takes the last value for both
    neighbours and measures the weight from index -1.
    """
    h = (len(xs) - 1) * q
    i = math.floor(h)
    j = i + 1
    if j >= len(xs):
        i = j = -1
    t = h - i
    a, b = xs[i], xs[j]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _proposition_summary(records, findings):
    ratios = sorted(
        r["ratio"]
        for r in records
        if not r.get("identity_subcase") and r.get("ratio") is not None
    )
    return {
        **_status_counts(records),
        "ratio_distribution": {
            "count": len(ratios),
            "min": ratios[0] if ratios else None,
            "max": ratios[-1] if ratios else None,
            "mean": float(np.mean(ratios)) if ratios else None,
            "quartiles": [_linear_quantile(ratios, q) for q in (0.25, 0.5, 0.75)]
            if ratios
            else None,
        },
        **_radius_counts(findings),
    }


class _Kind(NamedTuple):
    targets: Callable  # inst -> the trial's targets, in record order
    record: Callable  # (inst, target, rec, findings) -> None; fills rec, may raise
    summary: Callable  # (records, findings) -> the kind's summary keys


_KINDS = {
    "evaluate": _Kind(_grid_targets, _evaluate_record, _evaluate_summary),
    "compare_rates": _Kind(_grid_targets, _compare_rates_record, _compare_rates_summary),
    "check_compression": _Kind(
        _compression_targets, _check_compression_record, _check_compression_summary
    ),
    "gelfand_study": _Kind(_gelfand_targets, _gelfand_record, _gelfand_summary),
    "proposition_suite": _Kind(_proposition_targets, _proposition_record, _proposition_summary),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment, write report.json, return the report.

    Records come in a deterministic order: trial, then the kind's targets.
    """
    kind = _KINDS[config.kind]
    # trial 0's instance first: a bad source or K leaves no output directory
    first = Instance(config, 0)
    report = _new_report(config)
    for trial in range(config.trials):
        inst = first if trial == 0 else Instance(config, trial, first)
        for t in kind.targets(inst):
            rec = _base_record(inst, t)
            try:
                kind.record(inst, t, rec, report.findings)
            except SpecviError as exc:
                _record_error(rec, exc)
            report.records.append(rec)
    records = report.records
    report.summary = {
        "records": len(records),
        "errors": [r["status"] for r in records].count("error"),
        **kind.summary(records, report.findings),
        "findings": len(report.findings),
    }
    report.write(os.path.join(config.output_dir, "report.json"))
    return report
