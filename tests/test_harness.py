import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from specvi import evaluation, harness, spectral
from specvi.cli import main as cli_main
from specvi.errors import ConfigError, EigenFailureError
from specvi.evaluation import EvaluationResult, RunStatus, exact_vi
from specvi.harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_trace_csv,
    read_trace_csv,
    run_experiment,
)
from specvi.mdp import InducedChain, StochasticMatrix, make_random_mdp, read_mdp, write_mdp


def config(tmp_path, **overrides):
    base = dict(
        kind="evaluate",
        mdp_source={"generator": "symmetric_walk", "n": 15, "self_loop": 0.2},
        output_dir=str(tmp_path / "out"),
        K_list=[3],
        alpha_list=[0.9],
        trials=2,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_round_trip_dict(self, tmp_path):
        cfg = config(tmp_path)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "patch",
        [
            {"kind": "optimize"},
            {"alpha_list": [1.0]},
            {"alpha_list": []},
            {"K_list": [0]},
            {"K_list": []},
            {"trials": 0},
            {"tol": 0.0},
            {"basis_strategy": "fancy"},
            {"mdp_source": {"n": 5}},
            {"policy": "greedy"},
            {"K_list": "ab"},
            {"K_list": 3},
            {"K_list": [2.5]},
            {"seed": -1},
            {"seed": "0"},
            {"trials": True},
            {"max_iter": 10.0},
            {"tol": "1e-8"},
            {"tol": float("nan")},
            {"rate_window": 1},
            {"vanish_threshold": 0.0},
            {"store_traces": "no"},
            {"policy": ["x"]},
            {"output_dir": ["x"]},
        ],
    )
    def test_invalid_configs(self, tmp_path, patch):
        with pytest.raises(ConfigError):
            config(tmp_path, **patch)

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {
                    "kind": "evaluate",
                    "mdp_source": {"generator": "random", "n": 3, "m": 1},
                    "output_dir": str(tmp_path),
                    "turbo": True,
                }
            )

    def test_scalars_coerced(self, tmp_path):
        cfg = config(
            tmp_path, K_list=[np.int64(3)], alpha_list=[np.float32(0.5)], seed=np.int64(4), tol=1
        )
        assert cfg.K_list == (3,) and type(cfg.K_list[0]) is int
        assert cfg.alpha_list == (0.5,)
        assert type(cfg.seed) is int and type(cfg.tol) is float

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "evaluate"})

    KINDS = ["evaluate", "compare_rates", "check_compression", "gelfand_study", "proposition_suite"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_repeated_K_is_refused(self, tmp_path, kind):
        with pytest.raises(ConfigError, match=r"K_list values \[4, 4\] would give records the same id"):
            config(tmp_path, kind=kind, K_list=[4, 2, 4])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("alphas", [[0.9, 0.9], [0.9999999, 0.99999999]])
    def test_alphas_that_share_an_id_label(self, tmp_path, kind, alphas):
        # only the kinds whose record ids carry alpha refuse them
        if kind in ("check_compression", "gelfand_study"):
            assert config(tmp_path, kind=kind, alpha_list=alphas).alpha_list == tuple(alphas)
            return
        with pytest.raises(ConfigError, match=rf"alpha_list values \[{alphas[0]}, {alphas[1]}\]"):
            config(tmp_path, kind=kind, alpha_list=alphas)

    def test_id_collision_is_refused_before_the_output_dir(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        body = {
            "mdp_source": {"generator": "random", "n": 20, "m": 1},
            "output_dir": str(tmp_path / "out"),
            "K_list": [4],
            "alpha_list": [0.9999999, 0.99999999],
        }
        cfg.write_text(json.dumps(body))
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: alpha_list values [0.9999999, 0.99999999] would give records the same id\n"
        )
        assert not (tmp_path / "out").exists()

    def test_distinct_labels_keep_their_ids(self, tmp_path):
        cfg = config(tmp_path, K_list=[3, 2], alpha_list=[0.9, 0.99, 0.999999], trials=1)
        ids = [r["id"] for r in run_experiment(cfg).records]
        assert ids == [f"t0000_K{K}_a{a}" for K in (3, 2) for a in ("0.9", "0.99", "0.999999")]

    def test_K_exceeding_n_fails_at_run(self, tmp_path):
        cfg = config(tmp_path, K_list=[99])
        with pytest.raises(ConfigError):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()


class TestEvaluateKind:
    def test_full_basis_matches_exact(self, tmp_path):
        cfg = config(
            tmp_path,
            K_list=[15],
            basis_strategy="coordinate",
            tol=1e-10,
            trials=3,
        )
        report = run_experiment(cfg)
        assert len(report.records) == 3
        for rec in report.records:
            assert rec["status"] == "converged"
            assert rec["approx_err_inf"] <= 2 * cfg.tol

    def test_completeness(self, tmp_path):
        cfg = config(tmp_path, K_list=[2, 5], alpha_list=[0.5, 0.9, 0.95], trials=2)
        report = run_experiment(cfg)
        assert len(report.records) == 2 * 2 * 3

    def test_failed_runs_recorded_not_skipped(self, tmp_path):
        # seed=0 random instance: schur basis at K=2 cuts a conjugate pair
        cfg = config(
            tmp_path,
            mdp_source={"generator": "random", "n": 10, "m": 1},
            K_list=[2],
            basis_strategy="schur_dominant",
            trials=1,
            seed=0,
        )
        report = run_experiment(cfg)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec["status"] == "error"
        assert rec["error_type"] == "SplitConjugatePairError"

    def test_determinism_byte_identical_records(self, tmp_path):
        cfg1 = config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg2 = config(tmp_path, output_dir=str(tmp_path / "b"))
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        assert json.dumps(r1.records, sort_keys=True) == json.dumps(
            r2.records, sort_keys=True
        )

    def test_report_file_written(self, tmp_path):
        cfg = config(tmp_path)
        run_experiment(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["schema_version"] == 1
        assert data["kind"] == "evaluate"
        assert len(data["records"]) == 2
        assert "created_at" in data

    def test_trace_files_written(self, tmp_path):
        cfg = config(tmp_path, trials=1)
        report = run_experiment(cfg)
        name = report.records[0]["trace_csv"]
        inf, two = read_trace_csv(tmp_path / "out" / name)
        assert len(inf) == report.records[0]["k_final"]


class TestCompareRates:
    def test_rates_within_two_percent(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="compare_rates",
            mdp_source={"generator": "symmetric_walk", "n": 40, "self_loop": 0.2},
            K_list=[8],
            alpha_list=[0.95],
            trials=2,
        )
        report = run_experiment(cfg)
        assert report.summary["max_rate_rel_dev"] <= 0.02
        for rec in report.records:
            assert rec["rates_match"]

    def test_too_large_compression_fails_before_iterating(self, tmp_path, monkeypatch):
        exact = TestInstanceQuantitiesOnce.count_calls(monkeypatch, harness, "exact_vi")
        # a limit below K stands in for a K past the real one (2000)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 20)
        cfg = config(
            tmp_path,
            kind="compare_rates",
            mdp_source={"generator": "random", "n": 21, "m": 1},
            K_list=[21],
            alpha_list=[0.5],
            basis_strategy="random_orthonormal",
            trials=1,
        )
        report = run_experiment(cfg)
        assert [r["error_type"] for r in report.records] == ["MatrixTooLargeError"]
        assert len(exact) == 0


class TestCheckCompression:
    @pytest.mark.parametrize("kind", ["check_compression", "compare_rates"])
    def test_rho_P_is_the_row_sum_past_the_dense_limit(self, tmp_path, monkeypatch, kind):
        # a limit below n stands in for an n past the real one (2000)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 20)
        cfg = config(
            tmp_path,
            kind=kind,
            mdp_source={"generator": "random", "n": 21, "m": 1},
            K_list=[4],
            alpha_list=[0.9],
            rate_window=2,
            basis_strategy="random_orthonormal",
            trials=1,
        )
        report = run_experiment(cfg)
        assert [r["status"] for r in report.records] == ["ok"]
        P = harness.Instance(cfg, 0).chain.P.entries
        assert report.records[0]["rho_P"] == spectral.inf_norm(P)

    def test_runs_past_n_500(self, tmp_path):
        # check_compression covers the documented scope, n <= 2000
        cfg = config(
            tmp_path,
            kind="check_compression",
            mdp_source={"generator": "random", "n": 501, "m": 1},
            basis_strategy="random_orthonormal",
            K_list=[2],
            trials=1,
        )
        report = run_experiment(cfg)
        assert report.summary["errors"] == 0
        assert report.records[0]["rho_P"] == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_class_never_expands(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="check_compression",
            basis_strategy="random_orthonormal",
            K_list=[4],
            trials=10,
        )
        report = run_experiment(cfg)
        assert report.summary["radius_exceeds_one"] == 0
        for rec in report.records:
            assert rec["rho_A"] <= 1.0 + 1e-10

    def test_nonsymmetric_ratios_enumerated(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="check_compression",
            mdp_source={"generator": "random", "n": 12, "m": 2},
            basis_strategy="random_orthonormal",
            K_list=[3],
            trials=5,
        )
        report = run_experiment(cfg)
        ratios = [rec["ratio"] for rec in report.records]
        assert len(ratios) == 5
        assert all(np.isfinite(r) for r in ratios)


class TestGelfandStudy:
    def test_records_per_target(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="gelfand_study",
            K_list=[3],
            trials=2,
            basis_strategy="random_orthonormal",
        )
        report = run_experiment(cfg)
        assert len(report.records) == 2 * (1 + 1)
        for rec in report.records:
            rho = rec["rho_dense"]
            assert rec["err_two"] <= max(1e-6, 0.05 * rho)


    def test_split_pair_fails_only_its_target(self, tmp_path, capsys):
        # random n=40 instances: K=4 cuts a complex-pair Schur block, K=3 does not
        cfg = tmp_path / "g.json"
        cfg.write_text(
            json.dumps(
                {
                    "mdp_source": {"generator": "random", "n": 40, "m": 2},
                    "output_dir": str(tmp_path / "g"),
                    "K_list": [3, 4],
                    "basis_strategy": "schur_dominant",
                    "gelfand_k_max": 20,
                    "trials": 2,
                }
            )
        )
        assert cli_main(["gelfand-study", "--config", str(cfg)]) == 0
        assert "error:" not in capsys.readouterr().err
        data = json.loads((tmp_path / "g" / "report.json").read_text())
        by_id = {r["id"]: r for r in data["records"]}
        assert list(by_id) == [
            f"t{t:04d}_{tag}" for t in range(2) for tag in ("P", "A_K3", "A_K4")
        ]
        for t in range(2):
            assert by_id[f"t{t:04d}_P"]["status"] == "ok"
            assert by_id[f"t{t:04d}_A_K3"]["status"] == "ok"
            failed = by_id[f"t{t:04d}_A_K4"]
            assert failed["status"] == "error"
            assert failed["error_type"] == "SplitConjugatePairError"
            assert failed["target"] == "A_K4"
        assert data["summary"]["errors"] == 2


class TestInstanceQuantitiesOnce:
    """Per trial, each quantity that depends only on the instance is computed once."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_sorted_schur_per_trial(self, tmp_path, monkeypatch):
        schur = self.count_calls(monkeypatch, spectral, "_real_schur")
        bases = self.count_calls(monkeypatch, harness, "build_basis")
        # every site a compression or a radius can be computed through
        sites = (harness, evaluation, spectral)
        radii = [self.count_calls(monkeypatch, m, "spectral_radius") for m in sites]
        compressions = [self.count_calls(monkeypatch, m, "compress") for m in sites]
        cfg = config(
            tmp_path,
            kind="proposition_suite",
            mdp_source={"generator": "symmetric_walk", "n": 30, "self_loop": 0.2},
            K_list=[3, 8],
            alpha_list=[0.5, 0.9, 0.99],
            basis_strategy="schur_dominant",
            trials=2,
        )
        report = run_experiment(cfg)
        assert report.summary["errors"] == 0
        assert len(schur) == 2
        # per trial: one schur_dominant basis per K; the identity sub-case
        # builds no basis
        assert len(bases) == 2 * 2
        # per trial: one rho_A per K; rho(P) is a row-sum pass, the
        # identity's A is P and reuses it, and the projected runs reuse the
        # instance's compression, which keeps its rho
        assert sum(map(len, radii)) == 2 * 2
        # per trial: one compression per K
        assert sum(map(len, compressions)) == 2 * 2

    def test_exact_vi_once_per_alpha(self, tmp_path, monkeypatch):
        exact = self.count_calls(monkeypatch, harness, "exact_vi")
        cfg = config(
            tmp_path,
            kind="compare_rates",
            K_list=[2, 4, 6],
            alpha_list=[0.9, 0.95],
            basis_strategy="random_orthonormal",
            trials=2,
        )
        run_experiment(cfg)
        assert len(exact) == 2 * 2

    def test_gelfand_norms_of_one_power_chain(self, tmp_path, monkeypatch):
        two_norms = self.count_calls(monkeypatch, spectral, "two_norm")
        cfg = config(
            tmp_path,
            kind="gelfand_study",
            mdp_source={"generator": "random", "n": 20, "m": 2},
            K_list=[2, 5],
            basis_strategy="random_orthonormal",
            gelfand_k_max=50,
        )
        report = run_experiment(cfg)
        assert report.summary["errors"] == 0
        assert len(report.records) == 2 * (1 + 2)
        # per record: of A itself, then of its last power
        assert len(two_norms) <= 2 * len(report.records)

    def test_failed_basis_is_retried_not_cached(self, tmp_path):
        cfg = config(
            tmp_path,
            mdp_source={"generator": "random", "n": 10, "m": 1},
            K_list=[2],
            alpha_list=[0.5, 0.9],
            basis_strategy="schur_dominant",
            trials=1,
        )
        report = run_experiment(cfg)
        assert [r["error_type"] for r in report.records] == ["SplitConjugatePairError"] * 2


def certificate_of(alpha, rho):
    return {"rho_A": rho, "alpha_rho": alpha * rho, "certified": alpha * rho < 1.0}


class TestCertificate:
    """A projected run's record carries rho(U^T P U), alpha*rho and whether
    that is below 1, from the instance's compression."""

    RANDOM_30 = {"generator": "random", "n": 30, "m": 2}

    def test_certificate(self, tmp_path):
        cfg = config(
            tmp_path,
            mdp_source={"generator": "symmetric_walk", "n": 20, "self_loop": 0.2},
            K_list=[4],
            basis_strategy="schur_dominant",
            trials=1,
            seed=5,
        )
        cert = run_experiment(cfg).records[0]["certificate"]
        assert cert is not None
        assert cert["certified"] and cert["alpha_rho"] == pytest.approx(0.9, abs=1e-9)

    def test_diverged_record_is_not_certified(self, tmp_path):
        # the golden evaluate_statuses config: trial 7 diverges
        cfg = config(
            tmp_path,
            mdp_source={"generator": "random", "n": 3, "m": 1},
            K_list=[1],
            alpha_list=[0.99],
            trials=10,
            basis_strategy="svd_top",
            tol=1e-8,
            max_iter=3000,
            store_traces=False,
        )
        diverged = [r for r in run_experiment(cfg).records if r["status"] == "diverged"]
        assert diverged
        for rec in diverged:
            assert rec["certificate"] is not None and not rec["certificate"]["certified"]

    def test_rho_solved_once_per_compression(self, tmp_path, monkeypatch):
        calls = TestInstanceQuantitiesOnce.count_calls(monkeypatch, spectral, "spectral_radius")
        cfg = config(
            tmp_path,
            mdp_source=self.RANDOM_30,
            K_list=[3, 5],
            alpha_list=[0.5, 0.9],
            basis_strategy="random_orthonormal",
            store_traces=False,
        )
        report = run_experiment(cfg)
        # per trial: one rho per K, shared by its alphas
        assert len(calls) == 2 * 2
        for rec in report.records:
            op = harness.Instance(cfg, rec["trial"]).compressed(rec["K"])
            assert rec["certificate"] == certificate_of(rec["alpha"], spectral.spectral_radius(op.A))

    def test_a_failed_rho_is_computed_again(self, tmp_path, monkeypatch):
        calls = []
        real = spectral.spectral_radius

        def failing_first(M):
            calls.append(M)
            if len(calls) == 1:
                raise EigenFailureError("injected failure")
            return real(M)

        monkeypatch.setattr(spectral, "spectral_radius", failing_first)
        cfg = config(
            tmp_path,
            mdp_source=self.RANDOM_30,
            K_list=[5],
            alpha_list=[0.9, 0.5],
            basis_strategy="random_orthonormal",
            trials=1,
            seed=3,
        )
        failed, ok = run_experiment(cfg).records
        # the record ends at the failed eigensolve, before the exact run
        assert sorted(failed) == sorted(
            ["id", "trial", "instance_seed", "provenance", "n", "K", "alpha", "strategy"]
            + ["status", "error_type", "error"]
        )
        assert (failed["status"], failed["error_type"]) == ("error", "EigenFailureError")
        assert len(calls) == 2
        op = harness.Instance(cfg, 0).compressed(5)
        assert ok["certificate"] == certificate_of(0.5, real(op.A))

    def test_no_rho_above_the_certificate_limit(self, tmp_path, monkeypatch):
        calls = TestInstanceQuantitiesOnce.count_calls(monkeypatch, spectral, "spectral_radius")
        monkeypatch.setattr(harness, "CERTIFICATE_SIZE_LIMIT", 4)
        cfg = config(
            tmp_path,
            mdp_source=self.RANDOM_30,
            K_list=[4, 5],
            basis_strategy="random_orthonormal",
            trials=1,
        )
        at_limit, above = run_experiment(cfg).records
        assert at_limit["certificate"] is not None
        assert above["certificate"] is None
        # only K = 4 solves for its rho
        assert len(calls) == 1


class TestPropositionSuite:
    def test_symmetric_class_no_divergence(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="proposition_suite",
            alpha_list=[0.5, 0.9, 0.99],
            K_list=[4],
            trials=5,
            vanish_k_max=10000,
        )
        report = run_experiment(cfg)
        assert report.summary["diverged"] == 0
        kinds = {f["kind"] for f in report.findings}
        assert "diverged" not in kinds
        sweep = [r for r in report.records if not r.get("identity_subcase")]
        assert len(sweep) == 5 * 1 * 3
        for rec in sweep:
            assert rec["status"] == "converged"
            assert rec["power_vanishes"]
            assert rec["oracle_err_inf"] <= 100 * cfg.tol

    def test_identity_subcase_ratio_exactly_one(self, tmp_path):
        cfg = config(tmp_path, kind="proposition_suite", trials=4)
        report = run_experiment(cfg)
        ids = [r for r in report.records if r.get("identity_subcase")]
        assert len(ids) == 4
        assert all(r["ratio"] == 1.0 for r in ids)

    def test_findings_are_rerunnable(self, tmp_path):
        cfg = config(
            tmp_path,
            kind="proposition_suite",
            mdp_source={"generator": "random", "n": 12, "m": 2},
            basis_strategy="random_orthonormal",
            K_list=[3],
            alpha_list=[0.9],
            trials=6,
        )
        report = run_experiment(cfg)
        by_id = {r["id"]: r for r in report.records}
        for f in report.findings:
            rec = by_id[f["record"]]
            assert rec["instance_seed"] is not None
            assert rec["strategy"] is not None
        # ratios for the nonsymmetric class are measured and enumerated
        dist = report.summary["ratio_distribution"]
        assert dist["count"] == 6


# ratios as proposition_suite sees them: nonnegative, often repeated, and
# inf where rho(P) is 0
RATIOS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2.0**-52, np.inf]),
        st.floats(min_value=0.0, max_value=1e300),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(RATIOS)
def test_quartiles_match_numpy_percentile(ratios):
    ratios = sorted(ratios)
    with np.errstate(invalid="ignore"):  # numpy's inf - inf
        want = [float(np.percentile(ratios, q)) for q in (25, 50, 75)]
    got = [harness._linear_quantile(ratios, q) for q in (0.25, 0.5, 0.75)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


class TestReportWrite:
    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        cfg = config(tmp_path)
        run_experiment(cfg)
        path = tmp_path / "out" / "report.json"
        before = path.read_bytes()
        # json.dump has written part of the object when it meets the bad value
        monkeypatch.setattr(
            ExperimentReport, "to_json_dict", lambda self: {"a": "x" * 100000, "b": object()}
        )
        with pytest.raises(TypeError):
            ExperimentReport(config=cfg).write(str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir() if "report" in p.name) == [
            "report.json"
        ]


HEADER = b"k,residual_inf,residual_2\r\n"


class TestTraceCsv:
    def _result(self, n_steps):
        residuals = 0.5 ** np.arange(1, n_steps + 1)
        return EvaluationResult(
            np.zeros(2), residuals, residuals / 2.0, n_steps, RunStatus.CONVERGED
        )

    def test_three_iterations_four_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace_csv(self._result(3), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "k,residual_inf,residual_2"

    def test_parse_back_identity(self, tmp_path):
        chain = InducedChain(StochasticMatrix(np.eye(3)), np.ones(3))
        res = exact_vi(chain, 0.9, tol=1e-8)
        path = tmp_path / "t.csv"
        emit_trace_csv(res, path)
        inf, two = read_trace_csv(path)
        assert_array_equal(inf, res.residuals_inf)
        assert_array_equal(two, res.residuals_2)

    @pytest.mark.parametrize(
        "content",
        [b"", HEADER + b"1,0.5\r\n", HEADER + b"1,abc,0.5\r\n", HEADER + b"1,\xff,0.5\r\n"],
        ids=["empty", "short-row", "non-numeric", "non-utf8"],
    )
    def test_bad_trace_is_config_error(self, tmp_path, content):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="t.csv"):
            read_trace_csv(path)

    def test_empty_trace_header_only(self, tmp_path):
        res = EvaluationResult(np.zeros(2), np.zeros(0), np.zeros(0), 0, RunStatus.MAX_ITER)
        path = tmp_path / "t.csv"
        emit_trace_csv(res, path)
        assert path.read_text().strip() == "k,residual_inf,residual_2"


class TestCli:
    def test_generate_and_evaluate(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(
            json.dumps(
                {
                    "mdp_source": {"generator": "random", "n": 6, "m": 2},
                    "seed": 3,
                    "output_dir": str(tmp_path / "mdp"),
                }
            )
        )
        assert cli_main(["generate", "--config", str(gen_cfg)]) == 0
        mdp = read_mdp(tmp_path / "mdp")
        assert mdp.n == 6 and mdp.m == 2

        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(
            json.dumps(
                {
                    "mdp_source": {"path": str(tmp_path / "mdp")},
                    "output_dir": str(tmp_path / "run"),
                    "K_list": [2],
                    "alpha_list": [0.9],
                    "basis_strategy": "random_orthonormal",
                }
            )
        )
        assert cli_main(["evaluate", "--config", str(eval_cfg)]) == 0
        data = json.loads((tmp_path / "run" / "report.json").read_text())
        assert len(data["records"]) == 1

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "mdp_source": {"generator": "symmetric_walk", "n": 10},
                    "output_dir": str(tmp_path / "x"),
                    "K_list": [2],
                    "alpha_list": [0.9],
                }
            )
        )
        out = tmp_path / "y"
        code = cli_main(
            [
                "evaluate",
                "--config",
                str(cfg),
                "--alpha",
                "0.5",
                "--k",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["config"]["alpha_list"] == [0.5]
        assert data["config"]["K_list"] == [3]

    def test_missing_config_is_exit_one(self, tmp_path):
        assert cli_main(["evaluate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_non_utf8_config_is_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff" + json.dumps({"output_dir": str(tmp_path / "out")}).encode())
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config is not UTF-8 text\n"

    @pytest.mark.parametrize(
        "text, reason",
        [("{not json", "Expecting"), ('{"seed": ' + "1" * 5000 + "}", "Exceeds the limit")],
        ids=["syntax", "integer-past-digit-limit"],
    )
    def test_invalid_json_config_is_error_line(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON ({reason}")

    def test_non_utf8_matrix_file_is_error_line(self, tmp_path, capsys):
        mdp_dir = tmp_path / "mdp"
        write_mdp(make_random_mdp(5, 1, seed=0), str(mdp_dir))
        (mdp_dir / "T0.mat").write_bytes(b"\xff" + (mdp_dir / "T0.mat").read_bytes())
        cfg = tmp_path / "c.json"
        body = {"mdp_source": {"path": str(mdp_dir)}, "output_dir": str(tmp_path / "out")}
        cfg.write_text(json.dumps(body))
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {mdp_dir / 'T0.mat'}: not UTF-8 text\n"

    def test_non_integer_meta_seed_is_error_line(self, tmp_path, capsys):
        mdp_dir = tmp_path / "mdp"
        write_mdp(make_random_mdp(5, 1, seed=0), str(mdp_dir))
        (mdp_dir / "meta.json").write_text(json.dumps({"n": 5, "m": 1, "seed": "abc"}))
        cfg = tmp_path / "c.json"
        body = {"mdp_source": {"path": str(mdp_dir)}, "output_dir": str(tmp_path / "out")}
        cfg.write_text(json.dumps(body))
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        meta = mdp_dir / "meta.json"
        assert capsys.readouterr().err == (
            f"error: {meta}: meta.json's 'seed' must be null or an integer\n"
        )
        assert not (tmp_path / "out").exists()

    def test_invalid_config_is_exit_one(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mdp_source": {"generator": "random", "n": 3, "m": 1}}))
        # missing output_dir
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "patch",
        [
            {"K_list": "ab"},
            {"seed": -1},
            {"mdp_source": {"generator": "random", "n": 10.7, "m": 1}},
            {"mdp_source": {"generator": "random", "n": True, "m": 1}},
            {"mdp_source": {"generator": "random", "n": 5, "m": 2.0}},
            {"mdp_source": {"generator": "symmetric_walk", "n": "5"}},
            {"mdp_source": {"generator": "symmetric_walk", "n": 5, "self_loop": "0.1"}},
            {"mdp_source": {"path": 5}},
            {"mdp_source": {"generator": "random", "n": 10**9, "m": 1}},
        ],
    )
    def test_bad_config_value_is_error_line(self, tmp_path, capsys, patch):
        cfg = tmp_path / "bad.json"
        body = {
            "mdp_source": {"generator": "random", "n": 5, "m": 1},
            "output_dir": str(tmp_path / "out"),
        }
        cfg.write_text(json.dumps(dict(body, **patch)))
        assert cli_main(["evaluate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", [("--alpha", "0.5"), ("--k", "3"), ("--tol", "1")])
    def test_generate_rejects_sweep_flags(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mdp_source": {"generator": "random", "n": 5, "m": 1}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["generate", "--config", str(cfg), flag, value, "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["check-compression", "generate"])
    @pytest.mark.parametrize(
        "source, extra",
        [
            ({"generator": "symmetric_walk", "n": 20, "selfloop": 0.5}, "['selfloop']"),
            ({"generator": "random", "n": 5, "m": 1, "self_loop": 0.2}, "['self_loop']"),
            ({"generator": "symmetric_walk", "n": 20, "m": 2}, "['m']"),
        ],
    )
    def test_unread_source_key_is_error_line(self, tmp_path, capsys, command, source, extra):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mdp_source": source, "output_dir": str(tmp_path / "out")}))
        assert cli_main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: mdp_source keys {extra} are not read")
        assert not (tmp_path / "out").exists()

    def test_path_with_generator_keys_is_error_line(self, tmp_path, capsys):
        mdp_dir = tmp_path / "mdp"
        write_mdp(make_random_mdp(5, 1, seed=0), str(mdp_dir))
        cfg = tmp_path / "c.json"
        source = {"path": str(mdp_dir), "generator": "random", "n": 5}
        cfg.write_text(json.dumps({"mdp_source": source, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["check-compression", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: mdp_source keys ['generator', 'n'] are not read; "
            "a 'path' source takes only ['path']\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    @pytest.mark.parametrize("top", [[1, 2], "config", 3])
    def test_non_object_config_is_error_line(self, tmp_path, capsys, command, top):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(top))
        assert cli_main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    def test_non_string_output_dir_is_error_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        body = {"mdp_source": {"generator": "random", "n": 5, "m": 1}, "output_dir": ["x"]}
        cfg.write_text(json.dumps(body))
        assert cli_main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: output_dir must be a string")
        assert not (tmp_path / "x").exists()

    def test_findings_still_exit_zero(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "mdp_source": {"generator": "random", "n": 12, "m": 1},
                    "output_dir": str(tmp_path / "p"),
                    "K_list": [3],
                    "alpha_list": [0.9],
                    "basis_strategy": "random_orthonormal",
                    "trials": 4,
                }
            )
        )
        assert cli_main(["prop-suite", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "p" / "report.json").read_text())
        assert len(data["findings"]) > 0  # radius-differs findings expected here

    def test_prop_suite_cli_rerun_identical_records(self, tmp_path):
        cfg = tmp_path / "c.json"
        body = {
            "mdp_source": {"generator": "symmetric_walk", "n": 12, "self_loop": 0.2},
            "K_list": [3],
            "alpha_list": [0.9],
            "trials": 2,
        }
        cfg.write_text(json.dumps(body))
        assert cli_main(["prop-suite", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert cli_main(["prop-suite", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        d1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        d2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert json.dumps(d1["records"], sort_keys=True) == json.dumps(
            d2["records"], sort_keys=True
        )
