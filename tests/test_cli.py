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
from stabilab.lab import (
    ExperimentConfig,
    _rate_summary,
    check_report,
    report_digest,
    run_experiment,
)


MECHANISM = {"type": "linear_noise", "noise_sd": 0.05}
DISTRIBUTION = {
    "dim": 2,
    "feature_bound": 1.0,
    "teacher": [0.3, 0.0],
    "mechanism": MECHANISM,
    "label_bound": 1.0,
}


def base_config(**overrides):
    raw = {
        "name": "ridge-smoke",
        "algorithm": {"preset": "ridge", "lam": 1.0},
        "loss": "squared",
        "distribution": DISTRIBUTION,
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


def on_sgd(edit):
    """``edit``, marked to apply to the report of a strongly convex SGD run,
    whose stability check reads each per-index mean."""
    edit.sgd = True
    return edit


def run_config(tmp_path_factory, name, raw):
    """The output directory of ``experiment run`` on the config ``raw``."""
    directory = tmp_path_factory.mktemp(name)
    path, out = write_json(directory, "config.json", raw), directory / "out"
    assert main(["experiment", "run", path, "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sgd_run_dir(tmp_path_factory):
    """A run of a small strongly convex SGD config."""
    return run_config(tmp_path_factory, "cli-sgd", base_config(algorithm=SGD_ALGORITHM))


@pytest.fixture(scope="module")
def covered_run_dir(tmp_path_factory):
    """A run whose report carries a coverage section of 100 replications."""
    return run_config(tmp_path_factory, "cli-covered", base_config(coverage_n=10))


@pytest.fixture(scope="module")
def wide_run_dir(tmp_path_factory):
    """A run whose coverage section holds 200 replications at delta 0.25, so
    the violation envelope (nominal rate 0.5) is wide."""
    raw = base_config(coverage_n=10, delta=0.25, trials=200)
    return run_config(tmp_path_factory, "cli-wide", raw)


def scale_every_alpha(payload):
    """Every stated theory_alpha and every bound's alpha, times 10 together."""
    bounds = list(payload["coverage"]["bounds"].values())
    for record in payload["records"]:
        record["stability"]["theory_alpha"] *= 10.0
        bounds += record["bounds"]
    for bound in bounds:
        if "alpha" in bound["constants_used"]:
            bound["constants_used"]["alpha"] *= 10.0


def scale_bound_values(section):
    """An edit: every term and total of the record bounds (``section`` is
    "records") or of the coverage bounds ("coverage"), times 0.1."""

    def apply(payload):
        if section == "records":
            bounds = [bound for record in payload["records"] for bound in record["bounds"]]
        else:
            bounds = list(payload["coverage"]["bounds"].values())
        for bound in bounds:
            bound["total"] *= 0.1
            for term in bound["terms"]:
                term["value"] *= 0.1

    return apply


def scale_radii(section):
    """An edit: every record's ``radius`` (``section`` is "records") or its
    Rademacher estimate's radius ("rademacher"), times 10."""

    def apply(payload):
        for record in payload["records"]:
            (record if section == "records" else record["rademacher"])["radius"] *= 10.0

    return apply


def violating_coverage(rows, violations, **fields):
    """A coverage edit: keep ``rows`` rows, the first ``violations`` of them
    above the plain-gap bound, and overwrite ``fields`` of the section."""

    def apply(payload):
        coverage = payload["coverage"]
        coverage["rows"] = coverage["rows"][:rows]
        for row in coverage["rows"][:violations]:
            row["plain_gap"] = coverage["bounds"]["plain-gap"]["total"] + 1.0
        coverage.update(fields)

    return apply


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
        for key in ("radius", "center", "center_std_error", "rademacher"):
            assert payload[key] == records[n][key]


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
                    SgdSpec(regime="convex", steps=100, step=0.25),
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
            plain_constants(lipschitz="1"),
        ],
    )
    def test_bad_constants_exit_1(self, tmp_path, spec, capsys):
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_step_count_past_the_cap_is_refused(self, tmp_path, capsys):
        spec = {
            "family": "sgd-fast-rate",
            "regime": "convex",
            "steps": 160_001,
            "step": 0.25,
            "lipschitz": 1.0,
            "feature_bound": 1.0,
            "loss_bound": 1.0,
            "smoothness": 2.0,
            "delta": 0.1,
            "n": 100,
        }
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path]) == 1
        assert "steps must lie in [0, 160000], got 160001" in capsys.readouterr().err

    def test_a_constant_that_is_not_a_number_is_named(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants(lipschitz="1"))
        assert main(["bounds", path]) == 1
        assert "lipschitz must be a number, got '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("deformation", [0.5, 1.0])
    def test_a_deformation_outside_one_to_infinity_is_named(self, tmp_path, capsys, deformation):
        spec = plain_constants(family="fast-rate", deformation=deformation)
        path = write_json(tmp_path, "constants.json", spec)
        assert main(["bounds", path, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert f"deformation must be > 1 and finite, got {deformation!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "constants, literal",
        [
            (dict(alpha=math.nan), "NaN"),
            (dict(lipschitz=math.inf), "Infinity"),
            (dict(family="fast-rate", deformation=-math.inf), "-Infinity"),
        ],
        ids=["alpha-nan", "lipschitz-infinity", "deformation-minus-infinity"],
    )
    def test_a_non_finite_constant_is_refused(self, tmp_path, capsys, constants, literal):
        path = write_json(tmp_path, "constants.json", plain_constants(**constants))
        assert main(["bounds", path]) == 1
        captured = capsys.readouterr()
        assert f"{path}: not valid JSON ({literal} is not a finite number)" in captured.err
        assert captured.out == ""

    def test_an_integer_beyond_the_float_range_is_named(self, tmp_path, capsys):
        path = write_json(tmp_path, "constants.json", plain_constants(lipschitz=10**400))
        assert main(["bounds", path]) == 1
        captured = capsys.readouterr()
        want = "lipschitz must be a finite number, got an integer beyond the float range"
        assert want in captured.err
        assert captured.out == ""

    def test_missing_constants_file_exits_2(self, tmp_path):
        assert main(["bounds", str(tmp_path / "absent.json")]) == 2


PINELIS_SPEC = {
    "kind": "pinelis",
    "increment_bounds": [0.25] * 16,
    "dim": 4,
    "trials": 100,
    "epsilon": 2.0,
    "seed": 3,
}


PINELIS_WITHOUT_A_KEY = [
    {name: value for name, value in PINELIS_SPEC.items() if name != key}
    for key in ("dim", "trials", "epsilon", "increment_bounds")
]


class TestConcentrateCommand:
    def pinelis_spec(self, **overrides):
        return {**PINELIS_SPEC, **overrides}

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
        spec = {"kind": "center", "config": base_config(trials=25), "n": 16}
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path, "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 25
        assert payload["threshold"] > 0.0
        assert payload["theoretical_rate"] == 0.1

    @pytest.mark.parametrize("kind", ["center", "doob"])
    def test_the_config_seed_drives_the_run(self, kind, tmp_path, capsys):
        outputs = {}
        for seed in (1, 999):
            raw = base_config(seed=seed, trials=25)
            spec = {"kind": kind, "config": raw, "n": 8}
            if kind == "doob":
                spec["suffix_draws"] = 256
            path = write_json(tmp_path, f"spec{seed}.json", spec)
            assert main(["concentrate", path]) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs[1] != outputs[999]
        # --seed replaces the config's seed, as it does for experiment run.
        assert main(["concentrate", str(tmp_path / "spec1.json"), "--seed", "999"]) == 0
        assert capsys.readouterr().out == outputs[999]

    def test_center_prints_the_record_tail(self, tmp_path, capsys):
        raw = base_config(trials=25, tail=True)
        path = write_json(tmp_path, "spec.json", {"kind": "center", "config": raw, "n": 20})
        for seed in (None, 3):
            flag = [] if seed is None else ["--seed", str(seed)]
            run = raw if seed is None else {**raw, "seed": seed}
            (_, record) = run_experiment(ExperimentConfig.from_dict(run)).records
            assert record["n"] == 20
            assert main(["concentrate", path, *flag]) == 0
            assert json.loads(capsys.readouterr().out) == record["tail"]

    @pytest.mark.parametrize(
        "kind, extra",
        [("center", {"seed": 3}), ("center", {"center_replicates": 100}), ("doob", {"seed": 3})],
    )
    def test_a_spec_key_that_restates_the_config_is_named(self, kind, extra, tmp_path, capsys):
        spec = {"kind": kind, "config": base_config(trials=25), "n": 8, **extra}
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert f"unknown {kind} spec keys: {sorted(extra)}" in capsys.readouterr().err

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
            *PINELIS_WITHOUT_A_KEY,
            PINELIS_SPEC | {"surprise": 1},
        ],
    )
    def test_bad_specs_exit_1(self, tmp_path, spec, capsys):
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", PINELIS_WITHOUT_A_KEY)
    def test_a_missing_pinelis_key_is_named(self, tmp_path, spec, capsys):
        (missing,) = set(PINELIS_SPEC) - set(spec)
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert f"pinelis spec needs the keys [{missing!r}]" in capsys.readouterr().err

    def test_an_unknown_pinelis_key_is_named(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", PINELIS_SPEC | {"surprise": 1})
        assert main(["concentrate", path]) == 1
        assert "unknown pinelis spec keys: ['surprise']" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path):
        assert main(["concentrate", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "center", "n": 401}, "n must lie in"),
            ({"kind": "center", "n": 20.9}, "n must be an integer"),
            ({"kind": "doob", "n": 401}, "n must lie in"),
            ({"kind": "doob", "n": 8.5}, "n must be an integer"),
            (
                {"kind": "doob", "n": 8, "suffix_draws": 4001},
                "suffix_draws must lie in [256, 4000], got 4001",
            ),
            # One increment per example, and the config's dimension cap.
            (
                PINELIS_SPEC | {"increment_bounds": [0.25] * 401},
                "increment_bounds length must lie in [1, 400], got 401",
            ),
            (PINELIS_SPEC | {"dim": 17}, "dim must lie in [1, 16], got 17"),
        ],
    )
    def test_desk_scale_caps_hold(self, tmp_path, spec, message, capsys):
        if spec["kind"] != "pinelis":
            spec = {**spec, "config": base_config(trials=25)}
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(dim=2.7), "dim must be an integer"),
            (dict(trials=100.9), "trials must be an integer"),
            (dict(seed=3.5), "seed must be an integer"),
            (dict(trials=True), "trials must be an integer"),
        ],
    )
    def test_pinelis_rejects_counts_it_would_truncate(self, tmp_path, overrides, message, capsys):
        path = write_json(tmp_path, "spec.json", self.pinelis_spec(**overrides))
        assert main(["concentrate", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(epsilon="1.0"), "epsilon must be a number"),
            (dict(epsilon=True), "epsilon must be a number"),
            (dict(smooth_constant="2"), "smooth_constant must be a number"),
            (dict(increment_bounds=["1", "2"]), "increment bound must be a number"),
            (dict(increment_bounds=1.0), "increment_bounds must be a list"),
            (dict(increment_bounds=[1.0, -math.inf]), "(-Infinity is not a finite number)"),
        ],
    )
    def test_pinelis_rejects_reals_it_would_misread(self, tmp_path, overrides, message, capsys):
        path = write_json(tmp_path, "spec.json", self.pinelis_spec(**overrides))
        assert main(["concentrate", path]) == 1
        assert message in capsys.readouterr().err

    def test_doob_rejects_a_non_integral_suffix_draw_count(self, tmp_path, capsys):
        spec = {"kind": "doob", "n": 8, "suffix_draws": 16.5, "config": base_config(trials=25)}
        path = write_json(tmp_path, "spec.json", spec)
        assert main(["concentrate", path]) == 1
        assert "suffix_draws must be an integer" in capsys.readouterr().err


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
        out = capsys.readouterr().out
        assert out.startswith("invalid: n=10 bounds complexity total: ")
        assert "!= expected" in out

    def test_validate_detects_an_alpha_mismatch(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        alpha = payload["records"][0]["stability"]["theory_alpha"]
        payload["records"][0]["bounds"][0]["constants_used"]["alpha"] *= 2.0
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        out = capsys.readouterr().out
        where = "n=10 bounds complexity constants_used alpha"
        assert out == f"invalid: {where}: {2 * alpha!r} != expected {alpha!r}\n"

    def test_validate_flags_stability_above_the_closed_form(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        stability = payload["records"][1]["stability"]
        # The largest per-index maximum and the rate follow alpha_hat, so
        # that only the gate on the closed form sees the edit.
        stability["alpha_hat"] = stability["theory_alpha"] * 1.5
        stability["per_index"][0]["max_over_replacements"] = stability["alpha_hat"]
        payload["rate"] = _rate_summary(payload["records"])
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: n=20 stability: alpha_hat")
        assert "exceeds theory_alpha" in out
        assert out.count("invalid:") == 1

    def test_validate_checks_sgd_records_on_per_index_means(self, sgd_run_dir, tmp_path, capsys):
        with open(sgd_run_dir / "report.json") as fh:
            payload = json.load(fh)
        assert check_report(payload) == []
        stability = payload["records"][0]["stability"]
        theory = stability["theory_alpha"]
        # One realization above the closed form is allowed for SGD ...
        stability["alpha_hat"] = stability["per_index"][3]["max_over_replacements"] = 2 * theory
        payload["rate"] = _rate_summary(payload["records"])
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

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (scale_every_alpha, "n=10 stability theory_alpha: "),
            (
                lambda payload: payload["config"].update(delta=0.45),
                "n=10 bounds plain-gap constants_used delta: 0.25 != expected 0.45",
            ),
            (
                lambda payload: payload["records"].pop(0),
                "records hold n = [20], not the config n_grid [10, 20]",
            ),
            (violating_coverage(120, 120), "coverage rows must have 200 entries, got 120"),
            (
                violating_coverage(200, 130, replications=500),
                "coverage replications: 500 != expected 200",
            ),
            (violating_coverage(200, 150, delta=0.49), "coverage delta: 0.49 != expected 0.25"),
            (scale_bound_values("records"), "n=10 bounds complexity total: "),
            (scale_bound_values("coverage"), "coverage bounds plain-gap total: "),
            (scale_radii("records"), "n=10 radius: "),
            (scale_radii("rademacher"), "n=10 rademacher radius: "),
            (
                lambda payload: payload["records"][0]["bounds"].pop(),
                "n=10 bounds: ['complexity', 'plain-gap', 'fast-rate'] != expected "
                "['complexity', 'plain-gap', 'fast-rate', 'rerm-fast-rate']",
            ),
            (
                lambda payload: payload["records"][0]["bounds"][1]["terms"][1].update(label="x"),
                "n=10 bounds plain-gap terms bounded-differences label: 'x' != expected "
                "'bounded-differences'",
            ),
        ],
        ids=[
            "every-alpha-times-10",
            "config-delta-edited",
            "record-deleted",
            "coverage-rows-cut",
            "coverage-replications-raised",
            "coverage-delta-edited",
            "record-bound-values-times-0.1",
            "coverage-bound-values-times-0.1",
            "radius-times-10",
            "rademacher-radius-times-10",
            "record-bound-deleted",
            "bound-term-relabelled",
        ],
    )
    def test_validate_rebuilds_the_run_from_the_config(
        self, wide_run_dir, tmp_path, tamper, message, capsys
    ):
        # Each tamper keeps the report self-consistent, its digest recomputed;
        # only the config the run is rebuilt from shows it.
        with open(wide_run_dir / "report.json") as fh:
            payload = json.load(fh)
        assert check_report(payload) == []
        tamper(payload)
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        # A measured list of the wrong length raises (stderr); the rest are problem lines.
        captured = capsys.readouterr()
        assert f"invalid: {message}" in captured.out or message in captured.err

    def test_validate_flags_a_failure_marker(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["failed"] = "stage 'stability' failed at n=10"
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "tampered.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "failure marker" in capsys.readouterr().out

    def test_validate_refuses_non_finite_literals(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["stability"]["alpha_hat"] = math.nan
        payload["records"][0]["center_std_error"] = math.inf
        payload["digest"] = report_digest(payload)
        path = write_json(tmp_path, "non-finite.json", payload)
        assert main(["experiment", "validate", path]) == 1
        captured = capsys.readouterr()
        # The reader stops at the first literal: center_std_error sorts before stability.
        assert f"{path}: not valid JSON (Infinity is not a finite number)" in captured.err
        assert captured.out == ""

    def test_validate_refuses_a_numeral_beyond_the_float_range(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["center_std_error"] = math.inf
        payload["digest"] = report_digest(payload)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
        assert main(["experiment", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}: not valid JSON (1e400 is not a finite number)" in captured.err
        assert captured.out == ""

    def test_validate_requires_the_digest_of_a_complete_report(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["records"][0]["gaps"]["plain"] -= 0.5
        payload["records"][1]["center_std_error"] *= 0.5
        del payload["digest"]
        path = write_json(tmp_path, "undigested.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert capsys.readouterr().err == "error: report needs the keys ['digest']\n"

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
        ((kind, mode_keys),) = ((k, v) for k, v in policy.items() if isinstance(v, dict))
        extra = sorted(set(mode_keys) - {"mode"})
        message = f"unknown {mode_keys['mode']} {kind} policy keys: {extra}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(seed=1.7), "seed must be an integer"),
            (dict(n_grid=[25.9, 50.5]), "n_grid entry must be an integer"),
            (dict(replacements=2.9), "replacements must be an integer"),
            (dict(tail="false"), "tail must be true or false"),
            # The output directory is --out-dir's alone, never a config key.
            (dict(out_dir="out"), "unknown config keys: ['out_dir']"),
            (dict(delta="0.2"), "delta must be a number"),
            (dict(a=True), "a must be a number"),
            (
                dict(distribution=DISTRIBUTION | {"feature_bound": "1.0"}),
                "feature_bound must be a number",
            ),
            (
                dict(distribution=DISTRIBUTION | {"label_bound": False}),
                "label_bound must be a number",
            ),
            (
                dict(distribution=DISTRIBUTION | {"teacher": ["0.3", 0.0]}),
                "teacher entry must be a number",
            ),
            (dict(distribution=DISTRIBUTION | {"teacher": 0.3}), "teacher must be a list"),
            (dict(n_grid=10), "n_grid must be a list"),
            (
                dict(distribution=DISTRIBUTION | {"mechanism": MECHANISM | {"noise_sd": "0.05"}}),
                "noise_sd must be a number",
            ),
            (
                dict(
                    distribution=DISTRIBUTION
                    | {"mechanism": {"type": "sign_flip", "flip_prob": "0.1"}}
                ),
                "flip_prob must be a number",
            ),
            (dict(algorithm={"preset": "ridge", "lam": True}), "lam must be a number"),
            (dict(algorithm={"preset": "ridge", "lam": "1.0"}), "lam must be a number"),
            (dict(algorithm={"preset": "rerm-lp", "p": "1.5", "lam": 0.5}), "p must be a number"),
            (dict(algorithm=SGD_ALGORITHM | {"gamma": "0.5"}), "gamma must be a number"),
            (
                dict(algorithm=SGD_ALGORITHM | {"projection_radius": True}),
                "projection_radius must be a number",
            ),
            (
                dict(algorithm=SGD_ALGORITHM | {"step": {"mode": "constant", "value": "0.1"}}),
                "step must be a number",
            ),
            # A non-finite real is not JSON: the reader refuses the literal by name.
            (dict(a=math.inf), "not valid JSON (Infinity is not a finite number)"),
            (dict(a=math.nan), "not valid JSON (NaN is not a finite number)"),
            (
                dict(algorithm=SGD_ALGORITHM | {"step": math.nan}),
                "not valid JSON (NaN is not a finite number)",
            ),
            (
                dict(algorithm=SGD_ALGORITHM | {"steps": {"mode": "multiple_of_n", "factor": "2"}}),
                "steps factor must be a number",
            ),
            (
                dict(algorithm=SGD_ALGORITHM | {"steps": {"mode": "multiple_of_n", "factor": -2}}),
                "steps factor must be positive and finite",
            ),
            (
                dict(algorithm=SGD_ALGORITHM | {"steps": {"mode": "n_squared", "factor": math.nan}}),
                "not valid JSON (NaN is not a finite number)",
            ),
            (
                dict(algorithm=SGD_ALGORITHM | {"steps": {"mode": "multiple_of_n", "factor": math.inf}}),
                "not valid JSON (Infinity is not a finite number)",
            ),
            (
                dict(algorithm={"preset": "sgd-nonconvex", "steps": 10, "c": 0.1}, n_grid=[1, 10]),
                "algorithm fails at n=1: nonconvex regime needs n >= 2",
            ),
            (
                dict(algorithm={"preset": "sgd-nonconvex", "steps": 10, "c": 0.1}, coverage_n=1),
                "algorithm fails at n=1: nonconvex regime needs n >= 2",
            ),
            (
                dict(algorithm={"preset": "constant", "vector": [0.1, 0.2, 0.3]}),
                "vector must have distribution.dim = 2 entries, got 3",
            ),
            (
                dict(algorithm={"preset": "constant", "vector": {"a": 1}}),
                "vector must be a list, got {'a': 1}",
            ),
            (
                dict(algorithm={"preset": "constant", "vector": [True, 0.0]}),
                "vector entry must be a number, got True",
            ),
            # One replicate has no spread: its standard error would be Infinity.
            (dict(center_replicates=1), "center_replicates must lie in [2, 4000], got 1"),
        ],
    )
    def test_run_rejects_values_it_would_truncate_or_misread(
        self, overrides, message, tmp_path, capsys
    ):
        path = write_json(tmp_path, "config.json", base_config(**overrides))
        assert main(["experiment", "run", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, missing",
        [
            ({"preset": "ridge"}, "lam"),
            ({"preset": "sgd-convex", "step": 0.1}, "steps"),
            ({"preset": "rerm-lp", "lam": 0.5}, "p"),
            ({key: value for key, value in SGD_ALGORITHM.items() if key != "gamma"}, "gamma"),
        ],
    )
    def test_run_rejects_a_preset_missing_a_parameter(self, algorithm, missing, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        preset = algorithm["preset"]
        assert f"{preset} algorithm needs the keys [{missing!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(tol=-1), "tol must be positive and finite"),
            (dict(tol=math.nan), "not valid JSON (NaN is not a finite number)"),
            (dict(max_iter=0), "max_iter must be >= 1"),
            (dict(tol="1e-9"), "tol must be a number"),
            (dict(max_iter=100.5), "max_iter must be an integer"),
        ],
    )
    def test_run_rejects_bad_rerm_solver_settings(self, settings, message, tmp_path, capsys):
        algorithm = {"preset": "rerm-lp", "p": 1.5, "lam": 0.5, **settings}
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [160_001, 10_000_000])
    def test_run_refuses_a_step_count_past_the_cap(self, steps, tmp_path, capsys):
        algorithm = {**SGD_ALGORITHM, "steps": {"mode": "fixed", "value": steps}}
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        assert f"steps must lie in [0, 160000], got {steps}" in capsys.readouterr().err

    def test_run_rejects_a_non_integral_fixed_step_count(self, tmp_path, capsys):
        algorithm = {**SGD_ALGORITHM, "steps": {"mode": "fixed", "value": 10.7}}
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        assert "steps must be an integer" in capsys.readouterr().err

    def test_thin_coverage_writes_every_file_but_the_coverage_table(self, tmp_path, capsys):
        # Below 100 replications the violation rate is neither checked nor tabled.
        path = write_json(tmp_path, "config.json", base_config(coverage_n=10, trials=50))
        out = tmp_path / "out"
        assert main(["experiment", "run", path, "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "bound_vs_gap.csv",
            "rate.csv",
            "report.json",
            "stability_cells_n10.csv",
            "stability_cells_n20.csv",
        ]
        with open(out / "report.json") as fh:
            assert json.load(fh)["coverage"]["replications"] == 50
        assert main(["experiment", "validate", str(out / "report.json")]) == 0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload["records"][0].pop("bounds"), "needs the keys ['bounds']"),
            (lambda payload: payload.pop("records"), "report needs the keys ['records']"),
            (lambda payload: payload.update(surprise=1), "unknown report keys: ['surprise']"),
            (
                lambda payload: payload["records"][0]["bounds"][0].pop("terms"),
                "n=10 bounds complexity needs the keys ['terms']",
            ),
            (
                lambda payload: payload["config"].update(algorithm=[["preset", "ridge"]]),
                "report config algorithm must be a dict, got list",
            ),
            (lambda payload: payload.update(config=[]), "report config must be a dict, got list"),
            (
                lambda payload: payload["coverage"]["bounds"].pop("plain-gap"),
                "coverage bounds needs the keys ['plain-gap']",
            ),
            (
                lambda payload: payload["records"][0].update(stability=[]),
                "n=10 stability must be a dict, got list",
            ),
            (
                lambda payload: payload["coverage"].update(replications="100"),
                "coverage replications: '100' != expected 100",
            ),
            (
                on_sgd(lambda payload: payload["records"][0]["stability"]["per_index"][0].pop("mean")),
                "n=10 stability per_index 0 needs the keys ['mean']",
            ),
            (
                on_sgd(lambda payload: payload["records"][0]["stability"].update(per_index=5)),
                "n=10 stability per_index must be a list, got 5",
            ),
            (
                lambda payload: payload["records"][0]["stability"].update(theory_alpha="0.1"),
                "n=10 stability theory_alpha: '0.1' != expected ",
            ),
            (
                lambda payload: payload["records"][0]["bounds"][0]["terms"][0].update(value="1"),
                "n=10 bounds complexity terms complexity value: '1' != expected ",
            ),
            (
                lambda payload: payload["coverage"]["rows"][0].update(plain_gap=None),
                "coverage rows 0 plain_gap must be a number, got None",
            ),
            (
                on_sgd(lambda payload: payload["records"][0]["stability"].update(per_index=[])),
                "n=10 stability per_index must have 10 entries, got 0",
            ),
            (
                on_sgd(lambda payload: payload["records"][0]["stability"]["per_index"].pop()),
                "n=10 stability per_index must have 10 entries, got 9",
            ),
            (
                lambda payload: payload["records"][0].update(n="10"),
                "record n must be an integer, got '10'",
            ),
        ],
        ids=[
            "record-without-bounds",
            "report-without-records",
            "unknown-report-key",
            "bound-without-terms",
            "algorithm-as-a-list",
            "config-as-a-list",
            "coverage-without-plain-gap",
            "stability-as-a-list",
            "replications-as-a-string",
            "sgd-per-index-entry-without-mean",
            "sgd-per-index-as-a-number",
            "theory-alpha-as-a-string",
            "term-value-as-a-string",
            "plain-gap-as-null",
            "sgd-per-index-empty",
            "sgd-per-index-one-short",
            "record-n-as-a-string",
        ],
    )
    def test_validate_names_a_malformed_report(self, request, tmp_path, edit, message, capsys):
        source = "sgd_run_dir" if getattr(edit, "sgd", False) else "covered_run_dir"
        with open(request.getfixturevalue(source) / "report.json") as fh:
            payload = json.load(fh)
        edit(payload)
        path = write_json(tmp_path, "malformed.json", payload)
        assert main(["experiment", "validate", path]) == 1
        # A key or a measured field raises (stderr); a fixed value is a problem line (stdout).
        captured = capsys.readouterr()
        assert message in captured.err or f"invalid: {message}" in captured.out

    def test_validate_reports_a_digest_that_is_not_a_string(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        payload["digest"] = 5
        path = write_json(tmp_path, "digest.json", payload)
        assert main(["experiment", "validate", path]) == 1
        assert "error: digest must be a string, got 5" in capsys.readouterr().err

    def test_validate_names_a_report_that_is_not_a_dict(self, run_dir, tmp_path, capsys):
        with open(run_dir / "report.json") as fh:
            payload = json.load(fh)
        path = write_json(tmp_path, "array.json", [payload])
        assert main(["experiment", "validate", path]) == 1
        assert "report must be a dict, got list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm",
        [[["preset", "ridge"], ["lam", 1.0]], "ridge"],
        ids=["pairs", "string"],
    )
    def test_run_rejects_an_algorithm_that_is_not_a_dict(self, algorithm, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", base_config(algorithm=algorithm))
        assert main(["experiment", "run", path]) == 1
        assert "algorithm must be a dict, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["experiment", "validate"], ["--seed", "5"]),
            (["experiment", "validate"], ["--out-dir", "zz"]),
            (["experiment", "validate"], ["--format", "csv"]),
            (["experiment", "run"], ["--format", "csv"]),
            (["bounds"], ["--seed", "5"]),
        ],
    )
    def test_a_flag_the_handler_does_not_read_exits_2(
        self, command, flag, run_dir, config_path, tmp_path, capsys
    ):
        path = {
            "validate": str(run_dir / "report.json"),
            "run": config_path,
            "bounds": write_json(tmp_path, "constants.json", plain_constants()),
        }[command[-1]]
        with pytest.raises(SystemExit) as exit_:
            main([*command, path, *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_seed_flag_fixes_the_digest(self, config_path, capsys):
        digests = []
        for seed in ("9", "9", "10"):
            assert main(["experiment", "run", config_path, "--seed", seed]) == 0
            digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert digests[0] == digests[1]
        assert digests[2] != digests[0]

    def test_seed_flag_enters_the_config_echo(self, tmp_path):
        # The report of a run at --seed 5 is the report of its config written
        # with seed 5, byte for byte but for the wall time.
        flagged = write_json(tmp_path, "c.json", base_config(seed=1))
        written = write_json(tmp_path, "c5.json", base_config(seed=5))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "run", flagged, "--seed", "5", "--out-dir", str(a)]) == 0
        assert main(["experiment", "run", written, "--out-dir", str(b)]) == 0
        texts = []
        for out in (a, b):
            lines = (out / "report.json").read_text().splitlines()
            texts.append([line for line in lines if not line.startswith('  "wall_time": ')])
        assert texts[0] == texts[1]
        assert json.loads((a / "report.json").read_text())["config"]["seed"] == 5


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


# ---------------------------------------------------------------------------
# every outside dict goes through one reader with two message forms


def without(mapping, key):
    return {name: value for name, value in mapping.items() if name != key}


def config_case(message, **overrides):
    return "run", base_config(**overrides), message


def mechanism_cases():
    yield "mechanism-missing-type", config_case(
        "mechanism needs the keys ['type']", distribution=DISTRIBUTION | {"mechanism": {}}
    )
    yield "linear_noise-missing", config_case(
        "linear_noise mechanism needs the keys ['noise_sd']",
        distribution=DISTRIBUTION | {"mechanism": {"type": "linear_noise"}},
    )
    for kind in ("linear_noise", "logistic_teacher", "sign_flip"):
        mechanism = {"type": kind, "surprise": 1}
        yield f"{kind}-unknown", config_case(
            f"unknown {kind} mechanism keys: ['surprise']",
            distribution=DISTRIBUTION | {"mechanism": mechanism},
        )


PRESET_NEEDS = {
    "constant": ["vector"],
    "ridge": ["lam"],
    "rerm-lp": ["lam", "p"],
    "sgd-nonconvex": ["c", "steps"],
    "sgd-convex": ["step", "steps"],
    "sgd-strongly-convex": ["gamma", "projection_radius", "step", "steps"],
}


def preset_cases():
    yield "algorithm-missing-preset", config_case(
        "algorithm needs the keys ['preset']", algorithm={"lam": 1.0}
    )
    for preset, needs in PRESET_NEEDS.items():
        yield f"{preset}-unknown", config_case(
            f"unknown {preset} algorithm keys: ['surprise']",
            algorithm={"preset": preset, "surprise": 1},
        )
        yield f"{preset}-missing", config_case(
            f"{preset} algorithm needs the keys {needs}", algorithm={"preset": preset}
        )


# Per policy kind: an SGD preset that reads it, and its modes with the keys they need.
POLICY_MODES = {
    "steps": (
        {"preset": "sgd-convex", "step": 0.1},
        {"fixed": ["value"], "multiple_of_n": ["factor"], "n_squared": []},
    ),
    "step": (
        {"preset": "sgd-convex", "steps": 10},
        {"constant": ["value"], "inverse_smoothness": [], "inverse_gamma_n": []},
    ),
    "c": (
        {"preset": "sgd-nonconvex", "steps": 10},
        {"constant": ["value"], "inverse_smoothness": []},
    ),
}


def policy_cases():
    for kind, (algorithm, modes) in POLICY_MODES.items():
        yield f"{kind}-missing-mode", config_case(
            f"{kind} policy needs the keys ['mode']", algorithm=algorithm | {kind: {"value": 1}}
        )
        for mode, needs in modes.items():
            policy = {"mode": mode, "surprise": 1, **{key: 1 for key in needs}}
            yield f"{kind}-{mode}-unknown", config_case(
                f"unknown {mode} {kind} policy keys: ['surprise']",
                algorithm=algorithm | {kind: policy},
            )
            if needs:
                yield f"{kind}-{mode}-missing", config_case(
                    f"{mode} {kind} policy needs the keys {needs}",
                    algorithm=algorithm | {kind: {"mode": mode}},
                )


CONCENTRATE_SPECS = {
    "pinelis": PINELIS_SPEC,
    "center": {"kind": "center", "config": base_config(), "n": 10},
    "doob": {"kind": "doob", "config": base_config(), "n": 10},
}


def concentrate_cases():
    yield "spec-missing-kind", ("concentrate", {"n": 10}, "spec needs the keys ['kind']")
    for kind, spec in CONCENTRATE_SPECS.items():
        yield f"{kind}-unknown", (
            "concentrate",
            spec | {"surprise": 1},
            f"unknown {kind} spec keys: ['surprise']",
        )
        key = "dim" if kind == "pinelis" else "n"
        yield f"{kind}-missing", (
            "concentrate",
            without(spec, key),
            f"{kind} spec needs the keys [{key!r}]",
        )


GAP_NEEDS = ["delta", "feature_bound", "lipschitz", "loss_bound", "n"]
BOUND_FAMILY_NEEDS = {
    "complexity": ["alpha", "delta", "feature_bound", "n"],
    "plain-gap": ["alpha", *GAP_NEEDS],
    "fast-rate": ["alpha", *GAP_NEEDS],
    "rerm-fast-rate": ["curvature", "delta", "feature_bound", "lam", "lipschitz", "loss_bound", "n"],
    "sgd-fast-rate": [*GAP_NEEDS, "regime", "steps"],
}


def bounds_cases():
    yield "constants-missing-family", (
        "bounds",
        {"n": 10},
        "constants file needs the keys ['family']",
    )
    for family, needs in BOUND_FAMILY_NEEDS.items():
        yield f"{family}-unknown", (
            "bounds",
            {"family": family, "surprise": 1},
            f"unknown {family} constants file keys: ['surprise']",
        )
        yield f"{family}-missing", (
            "bounds",
            {"family": family},
            f"{family} constants file needs the keys {needs}",
        )


READER_CASES = [
    ("config-unknown", config_case("unknown config keys: ['surprise']", surprise=1)),
    ("config-missing", ("run", without(base_config(), "seed"), "config needs the keys ['seed']")),
    (
        "distribution-unknown",
        config_case(
            "unknown distribution keys: ['surprise']", distribution=DISTRIBUTION | {"surprise": 1}
        ),
    ),
    (
        "distribution-missing",
        config_case(
            "distribution needs the keys ['teacher']",
            distribution=without(DISTRIBUTION, "teacher"),
        ),
    ),
    *mechanism_cases(),
    *preset_cases(),
    *policy_cases(),
    *concentrate_cases(),
    *bounds_cases(),
]

COMMANDS = {"run": ["experiment", "run"], "concentrate": ["concentrate"], "bounds": ["bounds"]}


@pytest.mark.parametrize(
    "command, payload, message",
    [case for _, case in READER_CASES],
    ids=[name for name, _ in READER_CASES],
)
def test_every_outside_dict_names_an_unknown_or_a_missing_key(
    command, payload, message, tmp_path, capsys
):
    path = write_json(tmp_path, "input.json", payload)
    assert main([*COMMANDS[command], path]) == 1
    assert message in capsys.readouterr().err
