"""The stacked replicate path and a record's fit plan against their serial
oracles, for every preset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import learners, lab
from stabilab.complexity import estimate_center
from stabilab.concentration import center_concentration_experiment, doob_decomposition
from stabilab.datagen import draw_sample, fit_replicates
from stabilab.lab import (
    ExperimentConfig,
    _run_coverage,
    build_algorithm,
    report_digest,
    run_experiment,
    sample_stage,
)

from replicate_oracle import (
    serial_center,
    serial_coverage_rows,
    serial_doob,
    serial_fits,
    serial_plan,
    serial_trials,
)

PRESETS = ["constant", "ridge", "rerm-lp", "sgd-nonconvex", "sgd-convex", "sgd-strongly-convex"]


def replicate_config(preset, kind, law, d, lam, n, trials, seed, **overrides):
    """A config for ``preset`` on d dimensions, with coverage at n over
    ``trials`` replications; ``overrides`` replace its top-level keys."""
    steps = {"mode": "multiple_of_n", "factor": 2}
    # rerm-lp at p = 2 and a loose tolerance keeps the 256-draw Doob check
    # fast; its fits take the same replicate path at any p or tolerance.
    algorithm = {
        "constant": {"vector": [0.25] * d},
        "ridge": {"lam": lam},
        "rerm-lp": {"p": 2.0, "lam": lam, "tol": 1e-4},
        "sgd-nonconvex": {"steps": steps, "c": "inverse_smoothness", "projection_radius": 2.0},
        "sgd-convex": {"steps": steps, "step": "inverse_smoothness"},
        "sgd-strongly-convex": {
            "steps": steps,
            "step": "inverse_smoothness",
            "gamma": lam,
            "projection_radius": 2.0,
        },
    }[preset]
    teacher = [0.0] * d
    if kind == "squared":
        teacher[0] = 0.3
        mechanism = {"type": "linear_noise", "noise_sd": 0.05}
    else:
        teacher[0] = 1.0
        mechanism = {"type": "logistic_teacher"}
    return ExperimentConfig.from_dict(
        {
            "name": "replicates",
            "algorithm": {"preset": preset, **algorithm},
            "loss": kind,
            "distribution": {
                "dim": d,
                "feature_bound": 1.0,
                "feature_law": law,
                "teacher": teacher,
                "mechanism": mechanism,
            },
            "n_grid": [n],
            "trials": trials,
            "coverage_n": n,
            "seed": seed,
            **overrides,
        }
    )


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=10)
@given(
    kind=st.sampled_from(["squared", "logistic"]),
    law=st.sampled_from(["sphere", "ball"]),
    d=st.integers(1, 3),
    lam=st.floats(0.1, 2.0),
    n=st.integers(2, 12),
    count=st.integers(1, 5),
    alpha=st.floats(1e-3, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_replicate_path_equals_the_serial_loops(preset, kind, law, d, lam, n, count, alpha, seed):
    if preset == "ridge":
        kind = "squared"
    config = replicate_config(preset, kind, law, d, lam, n, count, seed)
    algorithm = build_algorithm(config)
    dist = config.distribution

    # A center averages m >= 2 refits, so that their spread is its standard error.
    center = estimate_center(algorithm, dist, n, m=count + 1, seed=seed)
    vector, std_error = serial_center(algorithm, dist, n, count + 1, seed)
    assert np.array_equal(center.vector, vector)
    assert np.array_equal(center.std_error, std_error)

    fits, X, y = fit_replicates(algorithm, dist, n, count, seed, "trial")
    trial_fits, samples = serial_fits(algorithm, dist, n, count, seed, "trial")
    assert np.array_equal(fits, trial_fits)
    assert np.array_equal(X, [s.features for s in samples])
    assert np.array_equal(y, [s.labels for s in samples])
    experiment = center_concentration_experiment(
        algorithm, dist, n, trials=count, delta=0.25, alpha=alpha, seed=seed
    )
    _, violations = serial_trials(algorithm, dist, n, count, 0.25, alpha, seed)
    assert experiment.violations == violations

    rows = _run_coverage(config, algorithm)["rows"]
    got = np.array([(row["plain_gap"], row["deformed_gap"]) for row in rows])
    assert np.array_equal(got, serial_coverage_rows(config, algorithm))


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=2)
@given(
    kind=st.sampled_from(["squared", "logistic"]),
    d=st.integers(1, 3),
    lam=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_doob_decomposition_equals_the_serial_loop(preset, kind, d, lam, seed):
    # n = 2 runs t = 0, with no fixed prefix, and t = 1, with one fixed example.
    if preset == "ridge":
        kind = "squared"
    config = replicate_config(preset, kind, "sphere", d, lam, 2, 1, seed)
    algorithm = build_algorithm(config)
    sample = draw_sample(config.distribution, 2, seed)
    doob = doob_decomposition(algorithm, sample, config.distribution, suffix_draws=256, seed=seed)
    means, errors = serial_doob(algorithm, sample, config.distribution, 256, seed)
    assert np.array_equal(doob.conditional_means, means)
    assert np.array_equal(doob.std_errors, errors)


def plan_config(preset, seed, **overrides):
    kind = "squared" if preset == "ridge" else "logistic"
    settings = dict(n_grid=[5, 8], replacements=1, draws=8, center_replicates=4)
    return replicate_config(preset, kind, "sphere", 2, 0.5, 6, 3, seed, **{**settings, **overrides})


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("coverage_n", [None, 6])
@pytest.mark.parametrize(
    "tail, center_replicates",
    # With a tail, 12 center replicates fill one call; 4 more center
    # replicates share the next with the 3 trials, 10 do not.
    [(False, 4), (True, 4), (True, 10)],
)
def test_a_record_plan_equals_its_groups_fitted_alone(
    preset, coverage_n, tail, center_replicates, monkeypatch
):
    config = plan_config(
        preset, 31, coverage_n=coverage_n, tail=tail, center_replicates=center_replicates
    )
    packed = report_digest(run_experiment(config))
    plans = []

    def alone(*args):
        plans.append(args[3])
        return serial_plan(*args)

    monkeypatch.setattr(lab, "fit_plan", alone)
    assert report_digest(run_experiment(config)) == packed
    assert len(plans) == len(config.n_grid)
    assert [len(groups) for groups in plans] == [5 if tail else 3] * len(config.n_grid)


@pytest.mark.parametrize("tail", [False, True])
def test_a_stochastic_record_makes_few_kernel_calls(tail, monkeypatch):
    # Per n: one call for the base fit, the record fit, the center and the
    # trials, one for the tail's center (4 * trials), and one for the twins.
    config = plan_config("sgd-strongly-convex", 5, coverage_n=None, tail=tail)
    samples = {n: sample_stage(config, n) for n in config.n_grid}
    kernel, fit_many = learners._sgd_kernel, learners._Preset.fit_many
    kernel_calls, fresh = [], []

    def counted_kernel(loss, spec, seeds, features, *args):
        kernel_calls.append(features.shape[-2])
        return kernel(loss, spec, seeds, features, *args)

    def counted_fit_many(self, features, labels, seeds):
        S = samples[features.shape[1]].features
        fresh.append(int(np.sum(~np.all(features == S, axis=(1, 2)))))
        return fit_many(self, features, labels, seeds)

    monkeypatch.setattr(learners, "_sgd_kernel", counted_kernel)
    monkeypatch.setattr(learners._Preset, "fit_many", counted_fit_many)
    run_experiment(config)
    per_n = 3 if tail else 2
    assert kernel_calls == [n for n in config.n_grid for _ in range(per_n)]
    largest = max(4 * config.trials, config.center_replicates) if tail else config.center_replicates
    assert len(fresh) == (per_n - 1) * len(config.n_grid)
    assert max(fresh) == largest
