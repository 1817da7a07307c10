"""The stacked replicate path and a record's fit plan against their serial
oracles, for every preset."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import datagen, learners, lab
from stabilab.concentration import center_concentration_experiment, doob_decomposition
from stabilab.datagen import FitGroup, _draw_group, draw_sample, plan_blocks
from stabilab.lab import (
    MAX_CENTER_REPLICATES,
    MAX_DIM,
    MAX_N,
    MAX_TRIALS,
    ExperimentConfig,
    _run_coverage,
    build_algorithm,
    complexity_stage,
    record_fits,
    report_digest,
    run_experiment,
    sample_stage,
    stage_seeds,
)
from stabilab.seeding import child_seed, stream_key

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


def spy_stacks(monkeypatch) -> list:
    """(rows, floats of features and labels) of every ``fit_many`` stack, as it is called."""
    stacks, fit_many = [], learners._Preset.fit_many

    def spied(self, features, labels, seeds):
        stacks.append((len(features), np.size(features) + np.size(labels)))
        return fit_many(self, features, labels, seeds)

    monkeypatch.setattr(learners._Preset, "fit_many", spied)
    return stacks


def spy_kernel(monkeypatch) -> list:
    """(runs, index-stream entries, whether twins) of every ``_sgd_kernel`` call."""
    calls, kernel = [], learners._sgd_kernel

    def spied(loss, spec, seeds, features, labels, twin=None):
        calls.append((len(seeds), len(seeds) * spec.steps, twin is not None))
        return kernel(loss, spec, seeds, features, labels, twin)

    monkeypatch.setattr(learners, "_sgd_kernel", spied)
    return calls


def within(stacks, budget) -> bool:
    return all(floats <= budget or rows == 1 for rows, floats in stacks)


def blocked_fits(algorithm, dist, n, group):
    """(fits, features, labels) of one replicate group through the calls of
    ``plan_blocks``, each call's stack copied before the next redraws it."""
    blocks = [(H, X.copy(), y.copy()) for _, X, y, H in plan_blocks(algorithm, dist, n, [group])]
    return [np.concatenate(parts) for parts in zip(*blocks)]


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
    rows_per_call=st.sampled_from([1, 2, 3, None]),
)
def test_replicate_path_equals_the_serial_loops(
    preset, kind, law, d, lam, n, count, alpha, seed, rows_per_call
):
    # The stack budget cuts every group into calls of rows_per_call rows;
    # None keeps the default budget, which fits each group in one call.
    budget = datagen._STACK_FLOATS if rows_per_call is None else rows_per_call * n * (d + 1)
    with mock.patch.object(datagen, "_STACK_FLOATS", budget):
        if preset == "ridge":
            kind = "squared"
        config = replicate_config(preset, kind, law, d, lam, n, count, seed)
        algorithm = build_algorithm(config)
        dist = config.distribution

        # A center averages m >= 2 refits, so that their spread is its standard error.
        centered = dataclasses.replace(config, center_replicates=count + 1)
        seeds = stage_seeds(config, n)
        replicates = record_fits(centered, algorithm, n, ["center"], seeds)["center"]
        sample = sample_stage(config, n)
        complexity = complexity_stage(centered, sample, alpha, replicates, seeds["sigma"])
        vector, std_error = serial_center(algorithm, dist, n, count + 1, seeds["center"])
        assert np.array_equal(complexity["center"], vector)
        assert complexity["center_std_error"] == float(np.linalg.norm(std_error))

        fits, X, y = blocked_fits(algorithm, dist, n, FitGroup("trial", seed, count))
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
    # With a tail, a complexity center of 4 or 10 replicates beside the
    # tail's 12 center replicates and 3 trials.
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


# Stack budgets, in floats of features and labels: one row per call; 240,
# which cuts the tail center partway at both n (16 rows a call at n = 5 and
# 10 at n = 8, after 6 rows of base, record and center fits); and more than
# any plan holds.
BUDGETS = [1, 240, 1 << 30]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("budget", BUDGETS)
def test_a_record_does_not_depend_on_the_stack_budget(preset, budget, monkeypatch):
    config = plan_config(preset, 31, coverage_n=6, tail=True)
    with monkeypatch.context() as patch:
        patch.setattr(lab, "fit_plan", serial_plan)
        alone = report_digest(run_experiment(config))
    # The budget cuts the plan's stacks and the SGD kernel calls, the twins' too.
    monkeypatch.setattr(datagen, "_STACK_FLOATS", budget)
    monkeypatch.setattr(learners, "_STACK_FLOATS", budget)
    stacks, kernel_calls = spy_stacks(monkeypatch), spy_kernel(monkeypatch)
    assert report_digest(run_experiment(config)) == alone
    assert within(stacks, budget)
    assert within([(runs, entries) for runs, entries, _ in kernel_calls], budget)
    if preset.startswith("sgd") and budget < BUDGETS[-1]:
        # 15 and 24 twin cells of 10 and 16 steps: one call at n = 5 and
        # two at n = 8 at 240 floats, one call a cell at 1.
        twin_calls = sum(twin for _, _, twin in kernel_calls)
        assert twin_calls == (3 if budget == 240 else 15 + 24)


def test_a_failed_call_names_its_groups(monkeypatch):
    config = plan_config("ridge", 31)
    algorithm = build_algorithm(config)

    def failed(*args):
        raise ValueError("no fit")

    monkeypatch.setattr(algorithm, "fit_many", failed)
    groups = [FitGroup("center", 1, 2), FitGroup("trial", 2, 3)]
    with pytest.raises(RuntimeError, match="^center, trial fits failed: no fit$"):
        next(plan_blocks(algorithm, config.distribution, 5, groups))


@pytest.mark.parametrize("tail", [False, True])
def test_a_stochastic_record_makes_few_kernel_calls(tail, monkeypatch):
    # Per n: ceil(rows / cap) calls for the record's groups, rows = base,
    # record, center and (with tail) the tail center and trials, then one
    # call for the twins. The default budget takes each n's rows in one
    # call; 150 floats is 10 rows a call at n = 5 and 6 at n = 8.
    config = plan_config("sgd-strongly-convex", 5, coverage_n=None, tail=tail)
    d = config.distribution.dim
    rows = 2 + config.center_replicates + (5 * config.trials if tail else 0)
    kernel = learners._sgd_kernel
    for budget in (datagen._STACK_FLOATS, 150):
        kernel_calls = []

        def counted_kernel(loss, spec, seeds, features, *args):
            kernel_calls.append(features.shape[-2])
            return kernel(loss, spec, seeds, features, *args)

        with monkeypatch.context() as patch:
            patch.setattr(datagen, "_STACK_FLOATS", budget)
            patch.setattr(learners, "_sgd_kernel", counted_kernel)
            stacks = spy_stacks(patch)
            run_experiment(config)
        calls = {n: math.ceil(rows / max(1, budget // (n * (d + 1)))) for n in config.n_grid}
        assert kernel_calls == [n for n in config.n_grid for _ in range(calls[n] + 1)]
        assert len(stacks) == sum(calls.values())
        assert sum(r for r, _ in stacks) == rows * len(config.n_grid)
        assert within(stacks, budget)
    assert calls == ({5: 1, 8: 1} if not tail else {5: 3, 8: 4})


def test_the_largest_stack_at_the_caps_fits_the_budget():
    # A record with the tail, and the coverage rows, at MAX_N, MAX_DIM,
    # MAX_CENTER_REPLICATES and MAX_TRIALS: 7,002 rows of 400 x 17 floats,
    # about 381 MB if drawn at once, cut into calls of 154 rows.
    counts = [None, None, MAX_CENTER_REPLICATES, 4 * MAX_TRIALS, MAX_TRIALS, MAX_TRIALS]
    groups = [FitGroup(f"g{i}", i, count) for i, count in enumerate(counts)]
    calls = datagen._cut(groups, max(1, datagen._STACK_FLOATS // (MAX_N * (MAX_DIM + 1))))
    sizes = [parts[-1][2].stop for parts in calls]
    assert max(sizes) == 154 and len(calls) == math.ceil(7002 / 154)
    assert max(sizes) * MAX_N * (MAX_DIM + 1) * 8 <= 8 << 20
    laid_out = [(i, j) for parts in calls for i, rows, _ in parts for j in range(rows.stop)[rows]]
    assert laid_out == [(i, j) for i, group in enumerate(groups) for j in range(group.rows)]


@pytest.mark.parametrize("seed", [20250815, np.int64(2**63 - 1)])
@pytest.mark.parametrize("rows", [slice(0, 9), slice(0, 1), slice(4, 7), slice(8, 9), slice(3, 3)])
def test_a_group_draws_and_fits_on_the_per_replicate_keys(seed, rows, monkeypatch):
    # The group hashes its (seed, label) prefixes once; every key and fit
    # seed must still be the one its replicate index names alone.
    keys = []
    monkeypatch.setattr(datagen, "_sample_stack", lambda spec, n, k, out: keys.extend(k))
    replicates = range(9)[rows]
    X, y = np.empty((len(replicates), 5, 2)), np.empty((len(replicates), 5))
    stochastic = SimpleNamespace(stochastic=True)
    fit_seeds = _draw_group(stochastic, None, FitGroup("trial", seed, 9), rows, X, y)
    for index in (int, np.int64):
        assert keys == [stream_key(seed, "trial-sample", index(j)) for j in replicates]
        assert fit_seeds == [child_seed(seed, "trial-fit", index(j)) for j in replicates]


def test_a_plan_holds_one_stack_at_a_time(monkeypatch):
    # 402 rows of 400 x 17 floats, 21.9 MB at once, go through three calls
    # of at most 8 MiB; the traced peak holds one of them, the fits and the
    # sampler's blocks.
    config = replicate_config(
        "constant", "squared", "sphere", MAX_DIM, 0.5, MAX_N, 1, 7, center_replicates=400
    )
    algorithm = build_algorithm(config)
    sample, seeds = sample_stage(config, MAX_N), stage_seeds(config, MAX_N)
    stacks = spy_stacks(monkeypatch)
    tracemalloc.start()
    try:
        record_fits(config, algorithm, MAX_N, ["base", "record", "center"], seeds, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rows for rows, _ in stacks] == [154, 154, 94]
    assert within(stacks, datagen._STACK_FLOATS)
    assert peak < 12 << 20
