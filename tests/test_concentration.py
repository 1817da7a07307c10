"""Tests for the martingale and concentration experiments."""

import math

import numpy as np
import pytest

from stabilab import (
    DistributionSpec,
    LinearNoise,
    TailExperiment,
    center_concentration_experiment,
    doob_decomposition,
    draw_sample,
    make_algorithm,
    pinelis_tail_experiment,
    theoretical_alpha,
)


def regression_spec(dim=2, teacher_scale=0.3, noise_sd=0.05):
    teacher = np.zeros(dim)
    teacher[0] = teacher_scale
    return DistributionSpec(
        dim=dim,
        feature_bound=1.0,
        teacher=teacher,
        mechanism=LinearNoise(noise_sd=noise_sd),
        label_bound=1.0,
    )


class TestTailExperiment:
    def test_to_dict_round_trip(self):
        exp = TailExperiment(
            threshold=1.0,
            trials=200,
            violations=10,
            empirical_rate=0.05,
            theoretical_rate=0.1,
            seed=3,
        )
        data = exp.to_dict()
        assert data == {
            "threshold": 1.0,
            "trials": 200,
            "violations": 10,
            "empirical_rate": 0.05,
            "theoretical_rate": 0.1,
            "seed": 3,
        }

    @pytest.mark.parametrize("trials, violations", [(0, 0), (10, -1), (10, 11)])
    def test_rejects_inconsistent_counts(self, trials, violations):
        with pytest.raises(ValueError):
            TailExperiment(
                threshold=1.0,
                trials=trials,
                violations=violations,
                empirical_rate=0.0,
                theoretical_rate=0.5,
                seed=0,
            )


class TestPinelis:
    def test_zero_epsilon_fires_every_trial(self):
        exp = pinelis_tail_experiment([0.5, 0.5], dim=2, trials=100, epsilon=0.0)
        assert exp.empirical_rate == 1.0
        assert exp.theoretical_rate == 1.0

    def test_single_step_walk_hits_its_own_norm(self):
        # One increment of size b: ||S_1|| = b surely and c = b, so any
        # epsilon <= 1 is violated by every path and epsilon > 1 by none.
        low = pinelis_tail_experiment([0.7], dim=1, trials=100, epsilon=0.999)
        high = pinelis_tail_experiment([0.7], dim=1, trials=100, epsilon=1.001)
        assert low.empirical_rate == 1.0
        assert high.empirical_rate == 0.0

    def test_empirical_rate_is_dominated_on_a_desk_configuration(self):
        for epsilon in (1.0, 2.0, 3.0):
            exp = pinelis_tail_experiment(
                np.full(64, 0.25), dim=4, trials=2000, epsilon=epsilon, seed=7
            )
            p = exp.empirical_rate
            envelope = exp.theoretical_rate + 3.0 * math.sqrt(p * (1.0 - p) / exp.trials)
            assert exp.empirical_rate <= envelope + 1e-12

    def test_counts_the_prefix_maximum_not_the_endpoint(self):
        # With increments (1, 1) in one dimension, half of all paths return
        # to 0 at the end but every path reaches ||S_1|| = 1; epsilon chosen
        # so c * epsilon = 1 must therefore fire on every trial.
        exp = pinelis_tail_experiment(
            [1.0, 1.0], dim=1, trials=200, epsilon=1.0 / math.sqrt(2.0), seed=1
        )
        assert exp.empirical_rate == 1.0

    def test_theoretical_rate_uses_the_smooth_constant(self):
        a = pinelis_tail_experiment([1.0], dim=1, trials=100, epsilon=3.0)
        b = pinelis_tail_experiment([1.0], dim=1, trials=100, epsilon=3.0, smooth_constant=2.0)
        assert a.theoretical_rate == pytest.approx(2.0 * math.exp(-4.5))
        assert b.theoretical_rate == pytest.approx(2.0 * math.exp(-9.0 / 8.0))

    def test_replays_for_a_fixed_seed(self):
        a = pinelis_tail_experiment([0.5] * 8, dim=2, trials=300, epsilon=1.5, seed=9)
        b = pinelis_tail_experiment([0.5] * 8, dim=2, trials=300, epsilon=1.5, seed=9)
        assert a.violations == b.violations

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(increment_bounds=[], dim=1, trials=100, epsilon=1.0),
            dict(increment_bounds=[0.0], dim=1, trials=100, epsilon=1.0),
            dict(increment_bounds=[np.inf], dim=1, trials=100, epsilon=1.0),
            dict(increment_bounds=[1.0], dim=0, trials=100, epsilon=1.0),
            dict(increment_bounds=[1.0], dim=1, trials=99, epsilon=1.0),
            dict(increment_bounds=[1.0], dim=1, trials=100, epsilon=-1.0),
            dict(increment_bounds=[1.0], dim=1, trials=100, epsilon=1.0, smooth_constant=0.0),
        ],
    )
    def test_rejects_bad_requests(self, kwargs):
        with pytest.raises(ValueError):
            pinelis_tail_experiment(**kwargs)


class TestDoob:
    def test_constant_algorithm_has_zero_increments(self):
        algo = make_algorithm("constant", "squared", 1.0, vector=[0.2, -0.1])
        spec = regression_spec()
        sample = draw_sample(spec, 5, seed=1)
        doob = doob_decomposition(algo, sample, spec, suffix_draws=256, seed=2)
        assert doob.conditional_means.shape == (6, 2)
        assert np.max(np.abs(doob.increments)) < 1e-14
        assert max(doob.increment_norms()) < 1e-14
        assert doob.telescoping_residual() < 1e-14

    def test_telescoping_is_exact_by_construction(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec()
        sample = draw_sample(spec, 6, seed=3)
        doob = doob_decomposition(algo, sample, spec, suffix_draws=256, seed=4)
        assert doob.telescoping_residual() == 0.0
        assert doob.conditional_means[-1] == pytest.approx(
            algo.fit(sample), abs=1e-15
        )

    def test_increments_respect_the_stability_coefficient(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=1.0)
        spec = regression_spec()
        n = 8
        sample = draw_sample(spec, n, seed=5)
        doob = doob_decomposition(algo, sample, spec, suffix_draws=512, seed=6)
        alpha = theoretical_alpha(algo, n)
        slack = alpha + 3.0 * float(np.sqrt(np.sum(doob.std_errors**2)))
        for norm in doob.increment_norms():
            assert norm <= slack

    def test_replays_for_a_fixed_seed(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec()
        sample = draw_sample(spec, 4, seed=9)
        a = doob_decomposition(algo, sample, spec, suffix_draws=256, seed=10)
        b = doob_decomposition(algo, sample, spec, suffix_draws=256, seed=10)
        assert np.array_equal(a.conditional_means, b.conditional_means)

    def test_rejects_oversized_or_undersampled_requests(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec()
        with pytest.raises(ValueError):
            doob_decomposition(algo, draw_sample(spec, 17, seed=0), spec, suffix_draws=256)
        with pytest.raises(ValueError):
            doob_decomposition(algo, draw_sample(spec, 4, seed=0), spec, suffix_draws=255)
        other = regression_spec(dim=3)
        with pytest.raises(ValueError):
            doob_decomposition(algo, draw_sample(other, 4, seed=0), spec, suffix_draws=256)


class TestCenterConcentration:
    def test_ridge_never_escapes_at_desk_scale(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=1.0)
        spec = regression_spec()
        n = 50
        alpha = theoretical_alpha(algo, n)
        exp = center_concentration_experiment(
            algo, spec, n=n, trials=100, delta=0.1, alpha=alpha, seed=11
        )
        assert exp.theoretical_rate == 0.1
        assert exp.trials == 100
        assert exp.violations == 0
        assert exp.threshold == pytest.approx(
            alpha * math.sqrt(2.0 * n * math.log(20.0))
        )

    def test_tiny_alpha_forces_violations(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=1.0)
        spec = regression_spec()
        exp = center_concentration_experiment(
            algo, spec, n=30, trials=50, delta=0.1, alpha=1e-9, seed=12
        )
        assert exp.empirical_rate == 1.0

    def test_replays_for_a_fixed_seed(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=1.0)
        spec = regression_spec()
        a = center_concentration_experiment(
            algo, spec, n=30, trials=50, delta=0.2, alpha=1e-4, seed=13
        )
        b = center_concentration_experiment(
            algo, spec, n=30, trials=50, delta=0.2, alpha=1e-4, seed=13
        )
        assert a.violations == b.violations

    def test_center_replicate_floor_is_enforced(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=1.0)
        spec = regression_spec()
        with pytest.raises(ValueError):
            center_concentration_experiment(
                algo,
                spec,
                n=30,
                trials=50,
                delta=0.1,
                alpha=1e-3,
                center_replicates=100,
            )
        with pytest.raises(ValueError):
            center_concentration_experiment(
                algo, spec, n=30, trials=0, delta=0.1, alpha=1e-3
            )
        with pytest.raises(ValueError):
            center_concentration_experiment(
                algo, spec, n=30, trials=50, delta=1.5, alpha=1e-3
            )
