"""check_report against honest reports of every preset, and against edits
that keep a report's digest consistent but change a field its config fixes
or its own numbers derive."""

import json

import numpy as np
import pytest

from stabilab.cli import main
from stabilab.concentration import tail_of
from stabilab.lab import ExperimentConfig, check_report, report_digest, run_experiment

PRESETS = {
    "constant": {"vector": [0.05, -0.2]},
    "ridge": {"lam": 1.0},
    "rerm-lp": {"p": 1.5, "lam": 0.5},
    "sgd-nonconvex": {
        "steps": {"mode": "multiple_of_n", "factor": 2},
        "c": "inverse_smoothness",
        "projection_radius": 2.0,
    },
    "sgd-convex": {"steps": {"mode": "multiple_of_n", "factor": 2}, "step": "inverse_smoothness"},
    "sgd-strongly-convex": {
        "steps": {"mode": "multiple_of_n", "factor": 2},
        "step": "inverse_smoothness",
        "gamma": 0.5,
        "projection_radius": 2.0,
    },
}


def config(preset="ridge", **overrides):
    """A two-n config of ``preset`` whose tail and coverage run 100 trials,
    enough for both violation envelopes to apply."""
    raw = {
        "name": f"check-{preset}",
        "algorithm": {"preset": preset, **PRESETS[preset]},
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
        "replacements": 2,
        "trials": 100,
        "draws": 64,
        "center_replicates": 8,
        "coverage_n": 10,
        "tail": True,
        "seed": 7,
    }
    return {**raw, **overrides}


def written(raw) -> dict:
    """The report of ``raw`` as ``experiment run`` writes it, digest included."""
    report = run_experiment(ExperimentConfig.from_dict(raw))
    return json.loads(json.dumps({**report.to_dict(), "digest": report_digest(report)}))


@pytest.mark.parametrize("tail", [True, False], ids=["tail", "no-tail"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_honest_reports_check_out(preset, tail):
    assert check_report(written(config(preset, tail=tail))) == []


def test_a_constant_tail_holds_every_trial_in_its_ball():
    # alpha is 0, so the ball has radius 0: a center rounded by averaging
    # identical fits would put every trial outside it.
    payload = written(config("constant"))
    for record in payload["records"]:
        assert record["radius"] == 0.0
        assert record["tail"]["violations"] == 0
    fits = np.full((800, 2), 0.05)
    assert fits.mean(axis=0)[0] != 0.05
    assert tail_of(fits, fits[:200], 10, 0.1, 0.0, seed=0).violations == 0


def every_record(edit):
    def apply(payload):
        for record in payload["records"]:
            edit(record)

    return apply


def first_record(edit):
    def apply(payload):
        edit(payload["records"][0])

    return apply


def double_alpha_exact(record):
    record["coefficients"]["alpha_exact"] *= 2.0


def halve_alpha_hat(record):
    record["stability"]["alpha_hat"] *= 0.5


def scale_per_index_maxima(record):
    for entry in record["stability"]["per_index"]:
        entry["max_over_replacements"] *= 0.1


def mean_above_its_maximum(record):
    entry = record["stability"]["per_index"][0]
    entry["mean"] = 1.5 * entry["max_over_replacements"]


def every_trial_violating(record):
    record["tail"].update(violations=100, empirical_rate=1.0)


# Each edit, and the start of the problem line naming the field it edits.
EDITS = {
    "alpha-exact-times-2": (
        first_record(double_alpha_exact),
        "n=10 coefficients alpha_exact: ",
    ),
    "tail-threshold-times-2": (
        first_record(lambda r: r["tail"].update(threshold=2 * r["tail"]["threshold"])),
        "n=10 tail threshold: ",
    ),
    "tail-theoretical-rate": (
        first_record(lambda r: r["tail"].update(theoretical_rate=0.01)),
        "n=10 tail theoretical_rate: 0.01 != expected 0.1",
    ),
    "tail-trials": (
        first_record(lambda r: r["tail"].update(trials=10)),
        "n=10 tail trials: 10 != expected 100",
    ),
    "tail-seed": (
        first_record(lambda r: r["tail"].update(seed=1)),
        "n=10 tail seed: 1 != expected ",
    ),
    "plain-gap-vacuous-flipped": (
        first_record(lambda r: r["bounds"][1].update(vacuous=not r["bounds"][1]["vacuous"])),
        "n=10 bounds plain-gap vacuous: ",
    ),
    "plain-gap-confidence": (
        first_record(lambda r: r["bounds"][1].update(confidence=0.99)),
        "n=10 bounds plain-gap confidence: 0.99 != expected ",
    ),
    "plain-gap-note-added": (
        first_record(lambda r: r["bounds"][1]["notes"].append("checked")),
        "n=10 bounds plain-gap notes: ",
    ),
    "fast-rate-deformation": (
        first_record(lambda r: r["bounds"][2].update(deformation=5)),
        "n=10 bounds fast-rate deformation: 5 != expected 2.0",
    ),
    "rademacher-draws": (
        first_record(lambda r: r["rademacher"].update(draws=8)),
        "n=10 rademacher draws: 8 != expected 64",
    ),
    "rademacher-delta": (
        first_record(lambda r: r["rademacher"].update(delta=0.01)),
        "n=10 rademacher delta: 0.01 != expected 0.1",
    ),
    "rademacher-seed": (
        first_record(lambda r: r["rademacher"].update(seed=1)),
        "n=10 rademacher seed: 1 != expected ",
    ),
    "stability-seed": (
        first_record(lambda r: r["stability"].update(seed=1)),
        "n=10 stability seed: 1 != expected ",
    ),
    "stability-n": (
        first_record(lambda r: r["stability"].update(n=7)),
        "n=10 stability n: 7 != expected 10",
    ),
    "rate-slope-alpha-hat": (
        lambda payload: payload["rate"].update(slope_alpha_hat=-1.0),
        "rate slope_alpha_hat: -1.0 != expected ",
    ),
    "rate-slope-alpha-theory": (
        lambda payload: payload["rate"].update(slope_alpha_theory=0),
        "rate slope_alpha_theory: 0 != expected ",
    ),
    # The fields a record derives from its own numbers. alpha_hat is
    # expected to be the largest per-index maximum, so an edit of either
    # side shows on the alpha_hat line.
    "every-alpha-hat-times-0.5": (
        every_record(halve_alpha_hat),
        "n=10 stability alpha_hat: ",
    ),
    "every-per-index-maximum-times-0.1": (
        every_record(scale_per_index_maxima),
        "n=10 stability alpha_hat: ",
    ),
    "stability-trials-times-2": (
        first_record(lambda r: r["stability"].update(trials=2 * r["stability"]["trials"])),
        "n=10 stability trials: 80 != expected 40",
    ),
    "per-index-mean-above-its-maximum": (
        first_record(mean_above_its_maximum),
        "n=10 stability per_index 0 mean: ",
    ),
    "every-tail-trial-violating": (
        every_record(every_trial_violating),
        "n=10 tail: 100 violations exceed envelope 19.0 at nominal 0.1",
    ),
    "tail-empirical-rate-without-violations": (
        first_record(lambda r: r["tail"].update(empirical_rate=0.9, violations=0)),
        "n=10 tail empirical_rate: 0.9 != expected 0.0",
    ),
}


@pytest.fixture(scope="module")
def ridge_report():
    return written(config())


@pytest.mark.parametrize("name", list(EDITS))
def test_validate_catches_a_digest_consistent_edit(name, ridge_report, tmp_path, capsys):
    edit, line = EDITS[name]
    payload = json.loads(json.dumps(ridge_report))
    assert check_report(payload) == []
    edit(payload)
    payload["digest"] = report_digest(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    assert main(["experiment", "validate", str(path)]) == 1
    assert f"invalid: {line}" in capsys.readouterr().out
