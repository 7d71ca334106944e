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
    InducedChain,
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
    CompressionRadiusCheck,
    build_basis,
    compress,
    gelfand_sequence,
    power_vanishing_check,
    spectral_radius,
)

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "evaluate",
    "compare_rates",
    "check_compression",
    "gelfand_study",
    "proposition_suite",
)

#: Findings thresholds on the measured compression radius.
RADIUS_EXCESS_TOL = 1e-9
RADIUS_EQUALITY_TOL = 1e-6


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
        if not (0.0 < self.tol < math.inf) or not (0.0 < self.vanish_threshold < math.inf):
            raise ConfigError("tol and vanish_threshold must be positive and finite")
        if not isinstance(self.store_traces, bool):
            raise ConfigError(f"store_traces must be true or false, got {self.store_traces!r}")
        if self.basis_strategy not in BASIS_STRATEGIES:
            raise ConfigError(f"unknown basis strategy {self.basis_strategy!r}")
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

    kind: str
    config: ExperimentConfig
    records: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
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
    trace = result.trace
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "residual_inf", "residual_2"])
        for k in range(trace.k_final):
            writer.writerow(
                [k + 1, format_real(trace.residuals_inf[k]), format_real(trace.residuals_2[k])]
            )


def read_trace_csv(path):
    """Parse an emit_trace_csv file back into (residuals_inf, residuals_2)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["k", "residual_inf", "residual_2"]:
            raise ConfigError(f"{path}: unexpected trace header {header!r}")
        inf, two = [], []
        for row in reader:
            inf.append(float(row[1]))
            two.append(float(row[2]))
    return np.array(inf), np.array(two)


def _make_instance(config: ExperimentConfig, trial: int) -> tuple[Mdp, int]:
    """Instance for one trial; generator sources use seed + trial."""
    src = config.mdp_source
    instance_seed = config.seed + trial
    if "path" in src:
        return read_mdp(src["path"]), instance_seed
    gen = src["generator"]
    if gen == "random":
        try:
            n, m = int(src["n"]), int(src["m"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("random generator needs integer 'n' and 'm'") from exc
        return make_random_mdp(n, m, instance_seed), instance_seed
    if gen == "symmetric_walk":
        try:
            n = int(src["n"])
            self_loop = float(src.get("self_loop", 0.1))
        except (TypeError, ValueError) as exc:
            raise ConfigError("symmetric_walk generator needs integer 'n'") from exc
        return make_symmetric_walk(n, self_loop, instance_seed), instance_seed
    raise ConfigError(f"unknown generator {gen!r}")


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


def _certificate_dict(cert):
    if cert is None:
        return None
    return {
        "rho_A": float(cert.rho_A),
        "alpha_rho": float(cert.alpha_rho),
        "certified": bool(cert.certified),
    }


def _base_record(rec_id, inst, K, alpha, strategy):
    return {
        "id": rec_id,
        "trial": inst.trial,
        "instance_seed": inst.seed,
        "provenance": inst.mdp.provenance,
        "n": inst.mdp.n,
        "K": K,
        "alpha": alpha,
        "strategy": strategy,
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
        kind=config.kind,
        config=config,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


class Instance:
    """One trial's MDP and induced chain, with every quantity that depends
    only on them computed once, on first use, and shared by the trial's
    records.

    The work goes through this module's build_basis, spectral_radius,
    compress and exact_vi. schur_dominant bases for all K share one
    sorted Schur form, which the first build_basis call stores in the
    instance's memo. A failed computation is not cached, so each record
    that needs it records the error itself.
    """

    def __init__(self, config: ExperimentConfig, trial: int):
        self.config = config
        self.trial = trial
        self.mdp, self.seed = _make_instance(config, trial)
        _check_K(config, self.mdp.n)
        self.chain = induce_chain(self.mdp, _policy_for(config, self.mdp))
        self._schur_memo = {}
        self._values = {}

    def _cached(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    @property
    def rho_P(self) -> float:
        return self._cached("rho_P", lambda: spectral_radius(self.chain.P).rho)

    def basis(self, K: int):
        return self._cached(
            ("basis", K),
            lambda: build_basis(
                self.chain.P,
                K,
                strategy=self.config.basis_strategy,
                seed=self.seed,
                memo=self._schur_memo,
            ),
        )

    def compressed(self, K: int):
        return self._cached(("compressed", K), lambda: compress(self.chain.P, self.basis(K)))

    def rho_A(self, K: int) -> float:
        return self._cached(("rho_A", K), lambda: spectral_radius(self.compressed(K).A).rho)

    def radius_check(self, K: int) -> CompressionRadiusCheck:
        """rho(P) against rho(U^T P U). The basis is built first, so a
        record whose basis fails reports that failure."""
        self.basis(K)
        return CompressionRadiusCheck.of(self.rho_P, self.rho_A(K))

    def exact(self, alpha: float):
        return self._cached(
            ("exact", alpha),
            lambda: exact_vi(
                self.chain, alpha, tol=self.config.tol, max_iter=self.config.max_iter
            ),
        )


def _iter_runs(config: ExperimentConfig):
    """Deterministic enumeration order: trial, then K, then alpha."""
    for trial in range(config.trials):
        yield Instance(config, trial)


def _radius_fields(report, rec, chk: CompressionRadiusCheck) -> None:
    rec["rho_P"] = chk.rho_P
    rec["rho_A"] = chk.rho_A
    rec["ratio"] = chk.ratio
    if chk.rho_A > 1.0 + RADIUS_EXCESS_TOL:
        _finding(report.findings, rec, "compression-radius-exceeds-one", rho_A=chk.rho_A)
    if abs(chk.rho_A - chk.rho_P) > RADIUS_EQUALITY_TOL:
        _finding(
            report.findings,
            rec,
            "compression-radius-differs",
            rho_P=chk.rho_P,
            rho_A=chk.rho_A,
            ratio=chk.ratio,
        )


def _run_evaluate(config: ExperimentConfig, report: ExperimentReport) -> None:
    for inst in _iter_runs(config):
        chain = inst.chain
        for K in config.K_list:
            for alpha in config.alpha_list:
                rec_id = f"t{inst.trial:04d}_K{K}_a{alpha:g}"
                rec = _base_record(rec_id, inst, K, alpha, config.basis_strategy)
                try:
                    U = inst.basis(K)
                    proj = projected_vi(
                        chain, U, alpha, tol=config.tol, max_iter=config.max_iter
                    )
                    exact = inst.exact(alpha)
                    rec["status"] = proj.trace.status.value
                    rec["k_final"] = proj.trace.k_final
                    rec["final_residual"] = (
                        float(proj.trace.residuals_inf[-1])
                        if proj.trace.k_final
                        else 0.0
                    )
                    rec["certificate"] = _certificate_dict(proj.certificate)
                    rec["exact_status"] = exact.trace.status.value
                    rec["exact_k_final"] = exact.trace.k_final
                    if proj.trace.status is RunStatus.CONVERGED:
                        b = U.U.T @ chain.c
                        oracle = direct_solve(inst.compressed(K), b, alpha)
                        rec["oracle_err_inf"] = float(
                            np.abs(proj.v_fixed - oracle).max()
                        )
                        err = approximation_error(
                            exact.v_fixed, reconstruct(U, proj.v_fixed)
                        )
                        rec["approx_err_inf"] = err.err_inf
                        rec["approx_rel_inf"] = err.rel_inf
                        if rec["oracle_err_inf"] > 100 * config.tol:
                            _finding(
                                report.findings,
                                rec,
                                "fixed-point-mismatch",
                                oracle_err_inf=rec["oracle_err_inf"],
                            )
                    else:
                        rec["oracle_err_inf"] = None
                        rec["approx_err_inf"] = None
                        rec["approx_rel_inf"] = None
                    if proj.trace.status is RunStatus.DIVERGED:
                        _finding(
                            report.findings,
                            rec,
                            "diverged",
                            certificate=rec["certificate"],
                        )
                    if config.store_traces:
                        trace_name = f"trace_{rec_id}.csv"
                        emit_trace_csv(
                            proj, os.path.join(config.output_dir, trace_name)
                        )
                        rec["trace_csv"] = trace_name
                except SpecviError as exc:
                    _record_error(rec, exc)
                report.records.append(rec)
    statuses = [r.get("status") for r in report.records]
    oracle_errs = [
        r["oracle_err_inf"] for r in report.records if r.get("oracle_err_inf") is not None
    ]
    report.summary = {
        "records": len(report.records),
        "converged": statuses.count("converged"),
        "diverged": statuses.count("diverged"),
        "max_iter": statuses.count("max_iter"),
        "errors": statuses.count("error"),
        "max_oracle_err_inf": max(oracle_errs) if oracle_errs else None,
        "findings": len(report.findings),
    }


def _run_compare_rates(config: ExperimentConfig, report: ExperimentReport) -> None:
    for inst in _iter_runs(config):
        for K in config.K_list:
            for alpha in config.alpha_list:
                rec_id = f"t{inst.trial:04d}_K{K}_a{alpha:g}"
                rec = _base_record(rec_id, inst, K, alpha, config.basis_strategy)
                try:
                    U = inst.basis(K)
                    rho_A = inst.rho_A(K)
                    exact = inst.exact(alpha)
                    proj = projected_vi(
                        inst.chain, U, alpha, tol=config.tol, max_iter=config.max_iter
                    )
                    rho_P = inst.rho_P
                    r_exact = rate_estimate(
                        exact.trace, config.rate_window, predicted_rate=alpha * rho_P
                    )
                    r_proj = rate_estimate(
                        proj.trace, config.rate_window, predicted_rate=alpha * rho_A
                    )
                    rec["rho_P"] = rho_P
                    rec["rho_A"] = rho_A
                    rec["exact_rate"] = {
                        "empirical": r_exact.empirical_rate,
                        "predicted": r_exact.predicted_rate,
                    }
                    rec["projected_rate"] = {
                        "empirical": r_proj.empirical_rate,
                        "predicted": r_proj.predicted_rate,
                    }
                    rec["rates_match"] = bool(
                        abs(r_exact.empirical_rate - r_proj.empirical_rate)
                        <= 0.02 * max(r_exact.empirical_rate, 1e-30)
                    )
                    rec["status"] = "ok"
                    if config.store_traces:
                        for tag, res in (("proj", proj), ("exact", exact)):
                            name = f"trace_{rec_id}_{tag}.csv"
                            emit_trace_csv(res, os.path.join(config.output_dir, name))
                        rec["trace_csv"] = f"trace_{rec_id}_proj.csv"
                except SpecviError as exc:
                    _record_error(rec, exc)
                report.records.append(rec)
    devs = []
    for r in report.records:
        if r.get("status") == "ok":
            for key in ("exact_rate", "projected_rate"):
                pred = r[key]["predicted"]
                if pred > 0:
                    devs.append(abs(r[key]["empirical"] / pred - 1.0))
    report.summary = {
        "records": len(report.records),
        "errors": sum(1 for r in report.records if r.get("status") == "error"),
        "max_rate_rel_dev": max(devs) if devs else None,
        "findings": len(report.findings),
    }


def _run_check_compression(config: ExperimentConfig, report: ExperimentReport) -> None:
    for inst in _iter_runs(config):
        for K in config.K_list:
            rec_id = f"t{inst.trial:04d}_K{K}"
            rec = _base_record(rec_id, inst, K, None, config.basis_strategy)
            try:
                chk = inst.radius_check(K)
                rec["status"] = "ok"
                _radius_fields(report, rec, chk)
            except SpecviError as exc:
                _record_error(rec, exc)
            report.records.append(rec)
    ratios = [r["ratio"] for r in report.records if r.get("status") == "ok"]
    report.summary = {
        "records": len(report.records),
        "errors": sum(1 for r in report.records if r.get("status") == "error"),
        "ratio_min": min(ratios) if ratios else None,
        "ratio_max": max(ratios) if ratios else None,
        "ratio_mean": float(np.mean(ratios)) if ratios else None,
        "radius_exceeds_one": sum(
            1 for f in report.findings if f["kind"] == "compression-radius-exceeds-one"
        ),
        "radius_differs": sum(
            1 for f in report.findings if f["kind"] == "compression-radius-differs"
        ),
        "findings": len(report.findings),
    }


def _run_gelfand_study(config: ExperimentConfig, report: ExperimentReport) -> None:
    k_max = config.gelfand_k_max
    for inst in _iter_runs(config):
        # target P, then one compression per K; a failed basis fails only its target
        for K in (None,) + config.K_list:
            tag = "P" if K is None else f"A_K{K}"
            rec_id = f"t{inst.trial:04d}_{tag}"
            rec = _base_record(rec_id, inst, None, None, config.basis_strategy)
            rec["target"] = tag
            try:
                if K is None:
                    M, rho = inst.chain.P.entries, inst.rho_P
                else:
                    M, rho = inst.compressed(K).A, inst.rho_A(K)
                seq2 = gelfand_sequence(M, k_max, "two_norm")
                seqi = gelfand_sequence(M, k_max, "inf_norm")
                rec["rho_dense"] = rho
                rec["gelfand_two_final"] = float(seq2.values[-1])
                rec["gelfand_inf_final"] = float(seqi.values[-1])
                rec["err_two"] = abs(float(seq2.values[-1]) - rho)
                rec["err_inf"] = abs(float(seqi.values[-1]) - rho)
                rec["status"] = "ok"
            except SpecviError as exc:
                _record_error(rec, exc)
            report.records.append(rec)
    errs = [
        max(r["err_two"], r["err_inf"]) for r in report.records if r.get("status") == "ok"
    ]
    report.summary = {
        "records": len(report.records),
        "errors": sum(1 for r in report.records if r.get("status") == "error"),
        "max_gelfand_err": max(errs) if errs else None,
        "findings": len(report.findings),
    }


def _run_proposition_suite(config: ExperimentConfig, report: ExperimentReport) -> None:
    """Empirically test the note's claims on `trials` seeded instances.

    Per instance and K: (1) measure rho(P) vs rho(U^T P U); (2) check that
    powers of sqrt(alpha)*A vanish; (3) run projected VI per alpha and
    record the status; (4) cross-check converged fixed points against the
    LU oracle. An identity-basis sub-case (K = n, U = I) is always
    included so the exact-equality claim gets one airtight probe per
    instance.
    """
    for inst in _iter_runs(config):
        chain = inst.chain
        # identity sub-case: A = P exactly, so the measured ratio must be 1;
        # its rho_A is measured directly, the claim's one airtight probe
        rec_id = f"t{inst.trial:04d}_identity"
        rec = _base_record(rec_id, inst, chain.n, None, "coordinate")
        try:
            U_id = build_basis(chain.P, chain.n, strategy="coordinate")
            chk = CompressionRadiusCheck.of(
                inst.rho_P, spectral_radius(compress(chain.P, U_id).A).rho
            )
            rec["rho_P"] = chk.rho_P
            rec["rho_A"] = chk.rho_A
            rec["ratio"] = chk.ratio
            rec["identity_subcase"] = True
            rec["status"] = "ok"
            if chk.ratio != 1.0:
                _finding(report.findings, rec, "identity-ratio-not-one", ratio=chk.ratio)
        except SpecviError as exc:
            _record_error(rec, exc)
        report.records.append(rec)

        for K in config.K_list:
            for alpha in config.alpha_list:
                rec_id = f"t{inst.trial:04d}_K{K}_a{alpha:g}"
                rec = _base_record(rec_id, inst, K, alpha, config.basis_strategy)
                try:
                    U = inst.basis(K)
                    A = inst.compressed(K)
                    chk = inst.radius_check(K)
                    _radius_fields(report, rec, chk)

                    scaled = math.sqrt(alpha) * A.A
                    van = power_vanishing_check(
                        scaled, config.vanish_k_max, config.vanish_threshold
                    )
                    rec["power_vanishes"] = van.vanishes
                    rec["vanish_first_k"] = van.first_k
                    if not van.vanishes and math.sqrt(alpha) * chk.rho_A < 1.0 - 1e-6:
                        _finding(
                            report.findings,
                            rec,
                            "power-not-vanishing",
                            final_norm=van.final_norm,
                        )

                    proj = projected_vi(
                        chain, U, alpha, tol=config.tol, max_iter=config.max_iter
                    )
                    rec["status"] = proj.trace.status.value
                    rec["k_final"] = proj.trace.k_final
                    rec["certificate"] = _certificate_dict(proj.certificate)
                    if proj.trace.status is RunStatus.CONVERGED:
                        oracle = direct_solve(A, U.U.T @ chain.c, alpha)
                        rec["oracle_err_inf"] = float(np.abs(proj.v_fixed - oracle).max())
                        if rec["oracle_err_inf"] > 100 * config.tol:
                            _finding(
                                report.findings,
                                rec,
                                "fixed-point-mismatch",
                                oracle_err_inf=rec["oracle_err_inf"],
                            )
                    else:
                        rec["oracle_err_inf"] = None
                        if proj.trace.status is RunStatus.DIVERGED:
                            _finding(
                                report.findings,
                                rec,
                                "diverged",
                                certificate=rec["certificate"],
                            )
                except SpecviError as exc:
                    _record_error(rec, exc)
                report.records.append(rec)

    sweep = [r for r in report.records if not r.get("identity_subcase")]
    ratios = sorted(r["ratio"] for r in sweep if r.get("ratio") is not None)
    statuses = [r.get("status") for r in sweep]
    report.summary = {
        "records": len(report.records),
        "converged": statuses.count("converged"),
        "diverged": statuses.count("diverged"),
        "max_iter": statuses.count("max_iter"),
        "errors": [r.get("status") for r in report.records].count("error"),
        "ratio_distribution": {
            "count": len(ratios),
            "min": ratios[0] if ratios else None,
            "max": ratios[-1] if ratios else None,
            "mean": float(np.mean(ratios)) if ratios else None,
            "quartiles": [
                float(np.percentile(ratios, q)) for q in (25, 50, 75)
            ]
            if ratios
            else None,
        },
        "radius_exceeds_one": sum(
            1 for f in report.findings if f["kind"] == "compression-radius-exceeds-one"
        ),
        "radius_differs": sum(
            1 for f in report.findings if f["kind"] == "compression-radius-differs"
        ),
        "findings": len(report.findings),
    }


_RUNNERS = {
    "evaluate": _run_evaluate,
    "compare_rates": _run_compare_rates,
    "check_compression": _run_check_compression,
    "gelfand_study": _run_gelfand_study,
    "proposition_suite": _run_proposition_suite,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the configured experiment, write report.json, return the report."""
    report = _new_report(config)
    _RUNNERS[config.kind](config, report)
    report.write(os.path.join(config.output_dir, "report.json"))
    return report


def proposition_suite(config: ExperimentConfig) -> ExperimentReport:
    """Run the proposition checks; config.kind must be 'proposition_suite'."""
    if config.kind != "proposition_suite":
        raise ConfigError("proposition_suite requires kind='proposition_suite'")
    return run_experiment(config)
