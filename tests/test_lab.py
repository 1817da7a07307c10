"""Tests for the experiment harness: configs, runs, reports, plot tables."""

import csv
import json
import os

import numpy as np
import pytest

from stabilab import (
    ExperimentConfig,
    ExperimentReport,
    emit_plot_data,
    fitted_rate_slope,
    report_digest,
    run_experiment,
    validate_bound_coverage,
)
from stabilab.lab import build_algorithm, write_report_files


def base_config(**overrides):
    raw = {
        "name": "ridge-smoke",
        "algorithm": {"preset": "ridge", "lam": 1.0},
        "loss": "squared",
        "distribution": {
            "dim": 2,
            "feature_bound": 1.0,
            "teacher": [0.3, 0.0],
            "mechanism": {"type": "linear_noise", "noise_sd": 0.05},
            "label_bound": 1.0,
        },
        "n_grid": [10, 20],
        "delta": 0.1,
        "a": 2.0,
        "replacements": 2,
        "trials": 100,
        "draws": 64,
        "center_replicates": 8,
        "seed": 7,
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_round_trips_and_echoes_the_raw_dict(self):
        raw = base_config()
        config = ExperimentConfig.from_dict(raw)
        assert config.name == "ridge-smoke"
        assert config.n_grid == (10, 20)
        assert config.echo == json.loads(json.dumps(raw))
        assert config.distribution.dim == 2

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        config = ExperimentConfig.from_file(path)
        assert config.seed == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(surprise=1),
            dict(n_grid=[]),
            dict(n_grid=[20, 10]),
            dict(n_grid=[10, 10]),
            dict(n_grid=[10, 500]),
            dict(delta=0.5),
            dict(delta=0.0),
            dict(a=1.0),
            dict(replacements=0),
            dict(replacements=65),
            dict(trials=0),
            dict(trials=501),
            dict(draws=63),
            dict(draws=4098),
            dict(draws=0),
            dict(center_replicates=0),
            dict(center_replicates=4001),
            dict(coverage_n=500),
            dict(algorithm={"lam": 1.0}),
            dict(algorithm={"preset": "warp"}),
            dict(algorithm={"preset": "ridge", "lam": 1.0, "bonus": 2}),
        ],
    )
    def test_rejects_bad_top_level_values(self, overrides):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(**overrides))

    def test_rejects_missing_required_keys(self):
        for key in ("name", "algorithm", "loss", "distribution", "n_grid", "seed"):
            raw = base_config()
            del raw[key]
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "distribution",
        [
            dict(dim=2, feature_bound=1.0, teacher=[0.3, 0.0]),
            dict(
                dim=2,
                feature_bound=1.0,
                teacher=[0.3, 0.0],
                mechanism={"type": "linear_noise", "noise_sd": 0.05},
                shape="cube",
            ),
            dict(
                dim=2,
                feature_bound=1.0,
                teacher=[0.3, 0.0],
                mechanism={"type": "warp"},
            ),
            dict(
                dim=2,
                feature_bound=1.0,
                teacher=[0.3, 0.0],
                mechanism={"type": "linear_noise", "noise_sd": 0.05, "bonus": 1},
            ),
            dict(
                dim=2,
                feature_bound=1.0,
                teacher=[0.3, 0.0],
                mechanism="linear_noise",
            ),
            dict(
                dim=17,
                feature_bound=1.0,
                teacher=[0.0] * 17,
                mechanism={"type": "linear_noise", "noise_sd": 0.05},
            ),
        ],
    )
    def test_rejects_bad_distribution_sections(self, distribution):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(distribution=distribution))

    def test_classification_loss_needs_a_classification_mechanism(self):
        raw = base_config(loss="logistic", algorithm={"preset": "rerm-lp", "p": 2.0, "lam": 0.5})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(raw)
        raw["distribution"]["mechanism"] = {"type": "logistic_teacher"}
        raw["distribution"].pop("label_bound")
        config = ExperimentConfig.from_dict(raw)
        assert config.loss == "logistic"

    def test_build_algorithm_resolves_the_preset(self):
        config = ExperimentConfig.from_dict(base_config())
        algo = build_algorithm(config)
        assert algo.name == "ridge"
        assert algo.lam == 1.0


@pytest.fixture(scope="module")
def report():
    config = ExperimentConfig.from_dict(base_config(coverage_n=20))
    return run_experiment(config)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("artifacts"))
    raw = base_config(coverage_n=20, out_dir=out)
    artifact_report = run_experiment(ExperimentConfig.from_dict(raw))
    return artifact_report, out


class TestRunExperiment:
    def test_record_structure(self, report):
        assert len(report.records) == 2
        for record, n in zip(report.records, (10, 20)):
            assert record["n"] == n
            assert record["stability"]["n"] == n
            assert record["radius"] > 0
            assert len(record["center"]) == 2
            assert record["center_std_error"] > 0
            assert record["rademacher"]["mean"] >= 0
            assert record["rademacher"]["draws"] == 64
            assert record["tail"] is None
            names = [b["name"] for b in record["bounds"]]
            assert names == ["complexity", "plain-gap", "fast-rate", "rerm-fast-rate"]
            assert set(record["coefficients"]) == {
                "curvature_reported",
                "curvature_exact",
                "alpha_reported",
                "alpha_exact",
            }

    def test_alpha_is_shared_across_fields_exactly(self, report):
        for record in report.records:
            theory = record["stability"]["theory_alpha"]
            for bound in record["bounds"]:
                assert bound["constants_used"]["alpha"] == theory
            assert record["coefficients"]["alpha_reported"] == theory

    def test_ridge_curvature_conventions_are_both_recorded(self, report):
        for record in report.records:
            coeff = record["coefficients"]
            ratio = coeff["curvature_reported"] / coeff["curvature_exact"]
            assert coeff["alpha_exact"] == pytest.approx(
                coeff["alpha_reported"] * ratio, rel=1e-12
            )

    def test_bound_totals_are_exact_term_sums(self, report):
        for record in report.records:
            for bound in record["bounds"]:
                assert bound["total"] == sum(t["value"] for t in bound["terms"])

    def test_rate_summary_shows_decay(self, report):
        assert report.rate is not None
        assert report.rate["slope_alpha_theory"] == pytest.approx(-1.0, abs=1e-9)
        assert report.rate["slope_alpha_hat"] < 0.0

    def test_coverage_section_shape(self, report):
        coverage = report.coverage
        assert coverage["n"] == 20
        assert coverage["replications"] == 100
        assert len(coverage["rows"]) == 100
        assert set(coverage["rows"][0]) == {"plain_gap", "deformed_gap"}
        assert set(coverage["bounds"]) == {"plain-gap", "fast-rate"}

    def test_coverage_validation_counts_violations(self, report):
        for which in ("plain-gap", "fast-rate"):
            outcome = validate_bound_coverage(report, which)
            assert outcome["runs"] == 100
            assert outcome["nominal"] == pytest.approx(0.2)
            assert outcome["violations"] == 0

    def test_report_dict_hides_working_state(self, report):
        payload = report.to_dict()
        assert "stability_reports" not in payload
        assert payload["version"] == "report-2"
        assert payload["config"]["name"] == "ridge-smoke"

    def test_digest_ignores_wall_time(self, report):
        payload = report.to_dict()
        digest = report_digest(report)
        payload["wall_time"] = 123.456
        assert report_digest(payload) == digest


class TestDeterminism:
    def test_two_runs_have_identical_digests(self):
        config = ExperimentConfig.from_dict(base_config())
        a = run_experiment(config)
        b = run_experiment(config)
        assert report_digest(a) == report_digest(b)
        assert a.to_dict()["records"] == b.to_dict()["records"]

    def test_seed_changes_the_digest(self):
        a = run_experiment(ExperimentConfig.from_dict(base_config()))
        b = run_experiment(ExperimentConfig.from_dict(base_config(seed=8)))
        assert report_digest(a) != report_digest(b)


class TestFailureHandling:
    def test_stage_and_n_are_reported_and_partial_results_persisted(self, tmp_path):
        out = str(tmp_path / "broken")
        raw = base_config(
            algorithm={"preset": "sgd-convex", "steps": 10, "step": 2.0},
            n_grid=[10],
            out_dir=out,
        )
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises(RuntimeError) as err:
            run_experiment(config)
        assert "stage 'stability' failed at n=10" in str(err.value)
        with open(os.path.join(out, "report.json")) as fh:
            payload = json.load(fh)
        assert "failed" in payload
        assert payload["records"] == []


class TestConstantPreset:
    def test_constant_algorithm_runs_with_zero_stability(self):
        raw = base_config(
            algorithm={"preset": "constant", "vector": [0.2, -0.1]},
            trials=1,
        )
        report = run_experiment(ExperimentConfig.from_dict(raw))
        for record in report.records:
            assert record["stability"]["alpha_hat"] == 0.0
            assert record["stability"]["theory_alpha"] == 0.0
            assert record["radius"] == 0.0
            assert record["rademacher"]["mean"] == 0.0
            assert [b["name"] for b in record["bounds"]] == [
                "complexity",
                "plain-gap",
                "fast-rate",
            ]
        assert report.rate == {"slope_alpha_hat": None, "slope_alpha_theory": None}


class TestTailSection:
    def test_tail_records_a_concentration_experiment(self):
        raw = base_config(n_grid=[15], trials=100, tail=True)
        report = run_experiment(ExperimentConfig.from_dict(raw))
        tail = report.records[0]["tail"]
        assert tail["trials"] == 100
        assert tail["theoretical_rate"] == pytest.approx(0.1)
        assert 0.0 <= tail["empirical_rate"] <= 1.0


class TestArtifacts:
    def test_report_json_digest_checks_out(self, outputs):
        report, out = outputs
        with open(os.path.join(out, "report.json")) as fh:
            payload = json.load(fh)
        assert payload["digest"] == report_digest(payload)
        assert payload["digest"] == report_digest(report)

    def test_rate_csv_parses_back(self, outputs):
        report, out = outputs
        with open(os.path.join(out, "rate.csv")) as fh:
            first = fh.readline()
            assert first.startswith("# ")
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [10, 20]
        for row, record in zip(rows, report.records):
            assert float(row["alpha_hat"]) == pytest.approx(
                record["stability"]["alpha_hat"], rel=1e-15
            )
            assert float(row["alpha_theory"]) == pytest.approx(
                record["stability"]["theory_alpha"], rel=1e-15
            )

    def test_bound_vs_gap_csv_parses_back(self, outputs):
        report, out = outputs
        with open(os.path.join(out, "bound_vs_gap.csv")) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        for row, record in zip(rows, report.records):
            plain = next(b for b in record["bounds"] if b["name"] == "plain-gap")
            assert float(row["gap"]) == pytest.approx(record["gaps"]["plain"], rel=1e-12)
            assert float(row["bound_total"]) == pytest.approx(plain["total"], rel=1e-12)
            assert row["vacuous_flag"] in ("True", "False")

    def test_coverage_csv_parses_back(self, outputs):
        report, out = outputs
        with open(os.path.join(out, "coverage.csv")) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["delta"]) == pytest.approx(0.1)
            assert float(row["nominal"]) == pytest.approx(0.2)
            assert 0.0 <= float(row["empirical"]) <= 1.0

    def test_stability_cell_tables_cover_the_grid(self, outputs):
        report, out = outputs
        for n in (10, 20):
            path = os.path.join(out, f"stability_cells_n{n}.csv")
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["i", "replacement", "distance", "loss_gap"]
            assert len(rows) - 1 == n * 4

    def test_write_report_files_returns_every_path(self, outputs):
        report, out = outputs
        paths = write_report_files(report, out)
        assert set(paths) >= {"report", "rate", "bound_vs_gap", "coverage"}
        for path in paths.values():
            assert os.path.exists(path)


class TestValidateAndPlots:
    def test_validate_rejects_unknown_bounds_and_thin_coverage(self):
        report = run_experiment(ExperimentConfig.from_dict(base_config()))
        with pytest.raises(ValueError):
            validate_bound_coverage(report, "complexity")
        with pytest.raises(ValueError):
            validate_bound_coverage(report, "plain-gap")
        thin = run_experiment(
            ExperimentConfig.from_dict(base_config(coverage_n=20, trials=50))
        )
        with pytest.raises(ValueError):
            validate_bound_coverage(thin, "plain-gap")

    def test_emit_plot_data_rejects_unknown_kinds(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(base_config()))
        with pytest.raises(ValueError):
            emit_plot_data(report, "histogram", tmp_path / "x.csv")
        with pytest.raises(ValueError):
            emit_plot_data(report, "coverage", tmp_path / "x.csv")

    def test_fitted_rate_slope_needs_two_positive_points(self):
        payload = {
            "records": [
                {"n": 10, "stability": {"alpha_hat": 0.0, "theory_alpha": 0.1}}
            ]
        }
        with pytest.raises(ValueError):
            fitted_rate_slope(payload, "alpha_hat")
        payload["records"].append(
            {"n": 20, "stability": {"alpha_hat": 0.05, "theory_alpha": 0.05}}
        )
        with pytest.raises(ValueError):
            fitted_rate_slope(payload, "alpha_hat")

    def test_fitted_rate_slope_hand_value(self):
        payload = {
            "records": [
                {"n": 10, "stability": {"alpha_hat": 0.4}},
                {"n": 20, "stability": {"alpha_hat": 0.2}},
                {"n": 40, "stability": {"alpha_hat": 0.1}},
            ]
        }
        assert fitted_rate_slope(payload, "alpha_hat") == pytest.approx(-1.0, abs=1e-12)
