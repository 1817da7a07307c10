"""The stacked replicate path against its serial oracle, for every preset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab.complexity import estimate_center
from stabilab.concentration import center_concentration_experiment, doob_decomposition
from stabilab.datagen import draw_sample, fit_replicates
from stabilab.lab import ExperimentConfig, _run_coverage, build_algorithm

from replicate_oracle import (
    serial_center,
    serial_coverage_rows,
    serial_doob,
    serial_fits,
    serial_trials,
)

PRESETS = ["constant", "ridge", "rerm-lp", "sgd-nonconvex", "sgd-convex", "sgd-strongly-convex"]


def replicate_config(preset, kind, law, d, lam, n, trials, seed):
    """A config for ``preset`` on d dimensions, with coverage at n over ``trials`` replications."""
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

    center = estimate_center(algorithm, dist, n, m=count, seed=seed)
    vector, std_error = serial_center(algorithm, dist, n, count, seed)
    assert np.array_equal(center.vector, vector)
    assert (center.std_error is None) == (std_error is None)
    assert std_error is None or np.array_equal(center.std_error, std_error)

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
