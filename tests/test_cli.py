"""End-to-end tests for the command line interface."""

import csv
import io
import json
import math
import os

import pytest

from stabilab import SgdSpec
from stabilab.bounds import (
    complexity_bound,
    fast_rate_bound,
    plain_gap_bound,
    rerm_gap_bound,
    sgd_gap_bound,
)
from stabilab.cli import main
from stabilab.lab import ExperimentConfig, report_digest, run_experiment


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


def plain_constants(**overrides):
    raw = {
        "family": "plain-gap",
        "lipschitz": 1.0,
        "feature_bound": 1.0,
        "loss_bound": 1.0,
        "delta": 0.1,
        "alpha": 0.01,
        "n": 100,
    }
    raw.update(overrides)
    return raw


def write_json(directory, name, payload):
    path = directory / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-config")
    return write_json(directory, "config.json", base_config())


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("cli-run")
    assert main(["experiment", "run", config_path, "--out-dir", str(out)]) == 0
    return out


class TestStabilityCommand:
    def test_json_stdout(self, config_path, capsys):
        assert main(["stability", config_path, "--n", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 10
        assert payload["alpha_hat"] >= 0.0
        assert payload["trials"] == 10 * (2 + 2)
        assert len(payload["per_index"]) == 10

    def test_csv_stdout_and_files_carry_every_cell(self, config_path, tmp_path, capsys):
        rc = main(
            ["stability", config_path, "--n", "10", "--format", "csv", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["i", "replacement", "distance", "loss_gap"]
        assert len(rows) == 10 * (2 + 2)
        with open(tmp_path / "stability.csv", newline="") as fh:
            file_header, file_rows = parse_csv(fh.read())
        assert file_header == header
        assert file_rows == rows
        with open(tmp_path / "stability.json") as fh:
            assert json.load(fh)["n"] == 10

    def test_same_seed_replays_bitwise(self, config_path, capsys):
        assert main(["stability", config_path, "--n", "10", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["stability", config_path, "--n", "10", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_override_changes_the_measurement(self, config_path, capsys):
        assert main(["stability", config_path, "--n", "10", "--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["stability", config_path, "--n", "10", "--seed", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first != second

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["stability", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["stability", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "401"])
    def test_out_of_range_n_exits_1(self, config_path, n, capsys):
        assert main(["stability", config_path, "--n", n]) == 1
        assert "error:" in capsys.readouterr().err


class TestComplexityCommand:
    def test_json_payload(self, config_path, capsys):
        assert main(["complexity", config_path, "--n", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 10
        assert payload["delta"] == 0.1
        assert payload["alpha_theory"] > 0.0
        assert payload["radius"] > 0.0
        assert payload["center_std_error"] > 0.0
        assert payload["rademacher"]["mean"] >= 0.0

    def test_csv_single_row_matches_payload(self, config_path, capsys):
        assert main(["complexity", config_path, "--n", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["complexity", config_path, "--n", "10", "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "n",
            "delta",
            "alpha_theory",
            "radius",
            "rademacher_mean",
            "rademacher_std_error",
        ]
        assert len(rows) == 1
        assert float(rows[0][3]) == payload["radius"]
        assert float(rows[0][4]) == payload["rademacher"]["mean"]


SGD_ALGORITHM = {
    "preset": "sgd-strongly-convex",
    "steps": {"mode": "multiple_of_n", "factor": 2},
    "step": "inverse_smoothness",
    "gamma": 0.5,
    "projection_radius": 2.0,
}


class TestStagesMatchTheExperiment:
    """The stability and complexity subcommands print the record's numbers."""

    @pytest.fixture(scope="class", params=["ridge", "sgd"])
    def setup(self, request, tmp_path_factory):
        raw = base_config(seed=11)
        if request.param == "sgd":
            raw["algorithm"] = SGD_ALGORITHM
        path = write_json(tmp_path_factory.mktemp("stages"), "config.json", raw)
        report = run_experiment(ExperimentConfig.from_dict(raw))
        return path, {record["n"]: record for record in report.records}

    @pytest.mark.parametrize("n", [10, 20])
    def test_stability_equals_the_record(self, setup, n, capsys):
        path, records = setup
        assert main(["stability", path, "--n", str(n)]) == 0
        assert json.loads(capsys.readouterr().out) == records[n]["stability"]

    @pytest.mark.parametrize("n", [10, 20])
    def test_complexity_equals_the_record(self, setup, n, capsys):
        path, records = setup
        assert main(["complexity", path, "--n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        record = records[n]
        assert payload["radius"] == record["radius"]
        assert payload["center_std_error"] == record["center_std_error"]
        for key in ("mean", "std_error", "draws", "seed"):
            assert payload["rademacher"][key] == record["rademacher"][key]


class TestBoundsCommand:
    def test_human_table_is_the_default(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants())
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "bound: plain-gap" in out
        assert "confidence: 0.8" in out
        assert "total" in out

    def test_json_total_matches_the_terms(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants())
        assert main(["bounds", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "plain-gap"
        total = math.fsum(term["value"] for term in payload["terms"])
        assert payload["total"] == pytest.approx(total, rel=1e-12)
        assert payload["total"] == pytest.approx(0.1562532379280837, rel=1e-12)

    def test_csv_rows_end_with_the_total(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants())
        assert main(["bounds", path, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["name", "term", "value"]
        assert rows[-1][:2] == ["plain-gap", "total"]
        term_sum = math.fsum(float(row[2]) for row in rows[:-1])
        assert float(rows[-1][2]) == pytest.approx(term_sum, rel=1e-12)

    def test_vacuous_totals_are_flagged_in_the_table(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "constants.json", plain_constants(alpha=1.0, loss_bound=0.1, n=10)
        )
        assert main(["bounds", path]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_sgd_constant_mismatch_note_is_printed(self, tmp_path, capsys):
        spec = {
            "family": "sgd-fast-rate",
            "regime": "strongly_convex",
            "steps": 200,
            "step": 0.1,
            "projection_radius": 1.0,
            "lipschitz": 1.0,
            "feature_bound": 1.0,
            "loss_bound": 1.0,
            "delta": 0.1,
            "n": 100,
            "gamma": 0.5,
            "smoothness": 2.0,
            "smooth_constant": 2.0,
        }
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "note:" in out
        assert "factor 2" in out

    @pytest.mark.parametrize("n", [100.7, True, "100"])
    def test_a_non_integer_sample_size_is_rejected(self, tmp_path, capsys, n):
        path = write_json(tmp_path, "constants.json", plain_constants(n=n))
        assert main(["bounds", path]) == 1
        captured = capsys.readouterr()
        assert "n must be an integer sample size" in captured.err
        assert captured.out == ""

    def test_an_integral_float_sample_size_is_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants(n=100.0))
        assert main(["bounds", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == pytest.approx(
            0.1562532379280837, rel=1e-12
        )

    def test_rerm_family_smoke(self, tmp_path, capsys):
        spec = {
            "family": "rerm-fast-rate",
            "lipschitz": 1.0,
            "feature_bound": 1.0,
            "loss_bound": 1.0,
            "curvature": 0.5,
            "lam": 0.1,
            "delta": 0.1,
            "n": 100,
        }
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "rerm-fast-rate"

    @pytest.mark.parametrize(
        "spec, direct",
        [
            pytest.param(
                {
                    "family": "complexity",
                    "feature_bound": 1.0,
                    "delta": 0.1,
                    "alpha": 0.01,
                    "n": 100,
                    "type_exponent": 1.5,
                },
                lambda: complexity_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, 1.5),
                id="complexity",
            ),
            pytest.param(
                plain_constants(),
                lambda: plain_gap_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100),
                id="plain-gap",
            ),
            pytest.param(
                plain_constants(family="fast-rate", deformation=3.0),
                lambda: fast_rate_bound(1.0, 1.0, 1.0, 0.1, 0.01, 100, 3.0),
                id="fast-rate",
            ),
            pytest.param(
                plain_constants(
                    family="rerm-fast-rate", alpha=None, curvature=0.5, lam=0.1, exponent=1.5
                ),
                lambda: rerm_gap_bound(1.0, 1.0, 1.0, 0.5, 0.1, 1.5, 0.1, 100),
                id="rerm-fast-rate",
            ),
            pytest.param(
                plain_constants(
                    family="sgd-fast-rate",
                    alpha=None,
                    regime="convex",
                    steps=100,
                    step=0.25,
                    smoothness=2.0,
                ),
                lambda: sgd_gap_bound(
                    SgdSpec(regime="convex", steps=100, seed=0, step=0.25),
                    1.0,
                    1.0,
                    1.0,
                    0.1,
                    100,
                    smoothness=2.0,
                ),
                id="sgd-fast-rate",
            ),
        ],
    )
    def test_every_family_total_equals_the_direct_call(self, tmp_path, spec, direct, capsys):
        # alpha=None drops the key for the families that compose their own alpha.
        spec = {key: value for key, value in spec.items() if value is not None}
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = direct()
        assert payload["name"] == expected.name == spec["family"]
        assert payload["total"] == expected.total

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"family": "mystery"},
            {"family": "plain-gap"},
            plain_constants(extra=1.0),
            {
                "family": "sgd-fast-rate",
                "regime": "convex",
                "steps": 100,
                "step": 0.25,
                "lipschitz": 1.0,
                "feature_bound": 1.0,
                "loss_bound": 1.0,
                "delta": 0.1,
                "n": 100,
            },
        ],
    )
    def test_bad_constants_exit_1(self, tmp_path, spec, capsys):
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_constants_file_exits_2(self, tmp_path):
        assert main(["bounds", str(tmp_path / "absent.json")]) == 2


class TestConcentrateCommand:
    def pinelis_spec(self, **overrides):
        raw = {
            "kind": "pinelis",
            "increment_bounds": [0.25] * 16,
            "dim": 4,
            "trials": 100,
            "epsilon": 2.0,
            "seed": 3,
        }
        raw.update(overrides)
        return raw

    def test_pinelis_json(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", self.pinelis_spec())
        assert main(["concentrate", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 100
        assert 0.0 <= payload["empirical_rate"] <= 1.0
        assert payload["theoretical_rate"] == pytest.approx(min(1.0, 2.0 * math.exp(-2.0)))

    def test_pinelis_csv_matches_payload(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", self.pinelis_spec())
        assert main(["concentrate", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["concentrate", path, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["threshold", "trials", "violations", "empirical_rate", "theoretical_rate"]
        assert len(rows) == 1
        assert float(rows[0][0]) == payload["threshold"]
        assert int(rows[0][2]) == payload["violations"]

    def test_center_kind_reports_the_radius_threshold(self, tmp_path, capsys):
        spec = {
            "kind": "center",
            "config": base_config(trials=25),
            "n": 16,
            "center_replicates": 100,
        }
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path, "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 25
        assert payload["threshold"] > 0.0
        assert payload["theoretical_rate"] == 0.1

    def test_doob_kind_emits_one_row_per_index(self, tmp_path, capsys):
        spec = {"kind": "doob", "config": base_config(), "n": 8, "suffix_draws": 256}
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path, "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 8
        assert payload["suffix_draws"] == 256
        assert len(payload["increment_norms"]) == 8
        assert payload["telescoping_residual"] == 0.0
        assert main(["concentrate", path, "--seed", "2", "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["t", "increment_norm", "std_error"]
        assert [int(row[0]) for row in rows] == list(range(1, 9))
        assert [float(row[1]) for row in rows] == payload["increment_norms"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"trials": 10},
            {"kind": "mystery"},
            {"kind": "center", "n": 16},
            {"kind": "doob"},
        ],
    )
    def test_bad_specs_exit_1(self, tmp_path, spec, capsys):
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path):
        assert main(["concentrate", str(tmp_path / "absent.json")]) == 2


class TestExperimentCommands:
    def test_run_prints_a_summary(self, config_path, capsys):
        assert main(["experiment", "run", config_path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "ridge-smoke"
        assert summary["n_grid"] == [10, 20]
        assert summary["records"] == 2
        assert len(summary["digest"]) == 64
        assert summary["wall_time"] >= 0.0
        assert "out_dir" not in summary

    def test_run_writes_the_report_files(self, run_dir):
        names = sorted(os.listdir(run_dir))
        assert names == [
            "bound_vs_gap.csv",
            "rate.csv",
            "report.json",
            "stability_cells_n10.csv",
            "stability_cells_n20.csv",
        ]

    def test_validate_round_trip(self, run_dir, capsys):
        report_path = str(run_dir / "report.json")
        assert main(["experiment", "validate", report_path]) == 0
        out = capsys.readouterr().out
        with open(report_path) as fh:
            digest = json.load(fh)["digest"]
        assert out.strip() == f"report valid; digest {digest}"

    def test_validate_detects_a_digest_mismatch(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["n"] = 999
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "digest mismatch" in capsys.readouterr().out

    def test_validate_detects_a_total_mismatch(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["bounds"][0]["total"] += 0.5
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "total != sum of terms" in capsys.readouterr().out

    def test_validate_detects_an_alpha_mismatch(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["bounds"][0]["constants_used"]["alpha"] *= 2.0
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "!= theoretical" in capsys.readouterr().out

    def test_validate_flags_stability_above_the_closed_form(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        stability = payload["records"][1]["stability"]
        stability["alpha_hat"] = stability["theory_alpha"] * 1.5
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: n=20 stability: alpha_hat")
        assert "exceeds theory_alpha" in out
        assert out.count("invalid:") == 1

    def test_validate_checks_sgd_records_on_per_index_means(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["config"]["algorithm"]["preset"] = "sgd-strongly-convex"
        stability = payload["records"][0]["stability"]
        theory = stability["theory_alpha"]
        # One realization above the closed form is allowed for SGD ...
        stability["alpha_hat"] = stability["per_index"][3]["max_over_replacements"] = 2 * theory
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "sgd.json", payload)
        assert main(["experiment", "validate", path]) == 0
        capsys.readouterr()
        # ... an index whose mean distance exceeds it is not.
        stability["per_index"][3]["mean"] = 1.1 * theory
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "sgd-mean.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "largest per-index mean distance" in capsys.readouterr().out

    def test_validate_flags_a_failure_marker(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["failed"] = "stage 'stability' failed at n=10"
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "failure marker" in capsys.readouterr().out

    def test_validate_missing_report_exits_2(self, tmp_path):
        assert main(["experiment", "validate", str(tmp_path / "absent.json")]) == 2

    def test_run_rejects_an_unknown_config_key(self, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", base_config(surprise=1))
        assert main(["experiment", "run", path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy",
        [
            {"steps": {"mode": "fixed", "factor": 10}, "step": 0.1},
            {"steps": 10, "step": {"mode": "constant", "factor": 0.1}},
            {"steps": {"mode": "multiple_of_n", "value": 2}, "step": 0.1},
        ],
    )
    def test_run_rejects_a_policy_key_its_mode_does_not_read(self, policy, tmp_path, capsys):
        algorithm = {"preset": "sgd-convex", **policy}
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        assert "takes no keys" in capsys.readouterr().err

    def test_seed_flag_fixes_the_digest(self, config_path, capsys):
        digests = []
        for seed in ("9", "9", "10"):
            assert main(["experiment", "run", config_path, "--seed", seed]) == 0
            digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert digests[0] == digests[1]
        assert digests[2] != digests[0]


class TestLosscheckCommand:
    def test_all_kinds_pass(self, capsys):
        assert main(["losscheck"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [check["kind"] for check in payload["checks"]] == [
            "hinge",
            "logistic",
            "squared",
        ]

    def test_csv_table_blanks_missing_smoothness(self, capsys):
        assert main(["losscheck", "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[:2] == ["kind", "ridge_term"]
        assert len(rows) == 3
        hinge_row = rows[0]
        assert hinge_row[0] == "hinge"
        assert hinge_row[5] == ""
        assert hinge_row[6] == "True"

    def test_single_kind_with_ridge_term(self, capsys):
        assert main(["losscheck", "--kind", "squared", "--ridge", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["checks"]) == 1
        assert payload["checks"][0]["ridge_term"] == 0.1

    def test_negative_ridge_exits_1(self, capsys):
        assert main(["losscheck", "--ridge", "-1.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_dir_receives_both_files(self, tmp_path):
        assert main(["losscheck", "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "losscheck.json") as fh:
            assert json.load(fh)["ok"] is True
        assert (tmp_path / "losscheck.csv").exists()
