"""Tests for confidence balls and their Rademacher complexity."""

import math

import numpy as np
import pytest

from stabilab import (
    AlgorithmicBall,
    ball_radius,
    ball_rademacher,
    brute_force_rademacher,
)
from stabilab.complexity import _antithetic_signs, ball_draw_values, finite_class_draw_values
from stabilab.datagen import FitGroup, fit_plan
from stabilab.lab import (
    ExperimentConfig,
    build_algorithm,
    complexity_stage,
    record_fits,
    sample_stage,
    stage_seeds,
)
from stabilab.stability import theoretical_alpha


def sphere_features(rng, n, d, bound=1.0):
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1)[:, None] * bound


class TestBallRadius:
    def test_frozen_value(self):
        assert ball_radius(1.0, 0.01, 100, 0.2) == pytest.approx(
            0.21459660262893472, rel=1e-15
        )

    def test_zero_alpha_gives_zero_radius(self):
        assert ball_radius(1.0, 0.0, 50, 0.1) == 0.0

    def test_linearity_in_alpha_and_smooth_constant(self):
        base = ball_radius(1.0, 0.01, 100, 0.2)
        assert ball_radius(1.0, 0.02, 100, 0.2) == pytest.approx(2.0 * base)
        assert ball_radius(3.0, 0.01, 100, 0.2) == pytest.approx(3.0 * base)

    def test_grows_like_sqrt_n(self):
        a = ball_radius(1.0, 0.01, 100, 0.2)
        b = ball_radius(1.0, 0.01, 400, 0.2)
        assert b == pytest.approx(2.0 * a)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.01, 100, 0.0),
            (1.0, 0.01, 100, 1.0),
            (1.0, 0.01, 0, 0.2),
            (1.0, -0.01, 100, 0.2),
            (0.0, 0.01, 100, 0.2),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            ball_radius(*args)


class TestAlgorithmicBall:
    def test_center_is_frozen(self):
        ball = AlgorithmicBall(center=[0.1, 0.2], radius=0.5, n=10, delta=0.1)
        with pytest.raises(ValueError):
            ball.center[0] = 9.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(center=[[0.1]], radius=0.5, n=10, delta=0.1),
            dict(center=[np.nan], radius=0.5, n=10, delta=0.1),
            dict(center=[0.1], radius=-0.5, n=10, delta=0.1),
            dict(center=[0.1], radius=np.inf, n=10, delta=0.1),
            dict(center=[0.1], radius=0.5, n=0, delta=0.1),
            dict(center=[0.1], radius=0.5, n=10, delta=1.5),
        ],
    )
    def test_rejects_bad_balls(self, kwargs):
        with pytest.raises(ValueError):
            AlgorithmicBall(**kwargs)


class TestDrawValues:
    def test_two_point_hand_value(self):
        # n = 2, d = 1, x = (1, 1): u = s1 + s2, so the supremum over the
        # ball c = 0.5, r = 0.25 is (0.5 u + 0.25 |u|) / 2 per draw.
        ball = AlgorithmicBall(center=[0.5], radius=0.25, n=2, delta=0.1)
        X = np.array([[1.0], [1.0]])
        signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        vals = ball_draw_values(ball, X, signs)
        assert vals == pytest.approx([0.75, 0.0, 0.0, -0.25], abs=1e-15)

    def test_finite_class_two_point_hand_value(self):
        H = np.array([[0.25], [0.75]])
        X = np.array([[1.0], [1.0]])
        signs = np.array([[1.0, 1.0], [-1.0, -1.0]])
        vals = finite_class_draw_values(H, X, signs)
        assert vals == pytest.approx([0.75, -0.25], abs=1e-15)

    def test_finite_subset_never_exceeds_the_ball(self):
        rng = np.random.default_rng(5)
        d, n = 3, 6
        center = rng.standard_normal(d) * 0.2
        radius = 0.4
        ball = AlgorithmicBall(center=center, radius=radius, n=n, delta=0.1)
        X = sphere_features(rng, n, d)
        dirs = rng.standard_normal((40, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        H = center[None, :] + radius * rng.random(40)[:, None] * dirs
        signs = np.where(rng.random((64, n)) < 0.5, -1.0, 1.0)
        ball_vals = ball_draw_values(ball, X, signs)
        finite_vals = finite_class_draw_values(H, X, signs)
        assert np.all(finite_vals <= ball_vals + 1e-12)

    def test_shape_validation(self):
        ball = AlgorithmicBall(center=[0.1], radius=0.5, n=2, delta=0.1)
        X = np.array([[1.0], [1.0]])
        with pytest.raises(ValueError):
            ball_draw_values(ball, X, np.ones((4, 3)))
        with pytest.raises(ValueError):
            ball_draw_values(ball, np.ones((2, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            finite_class_draw_values(np.ones((3, 2)), X, np.ones((4, 2)))


class TestBallRademacher:
    def test_orthonormal_design_has_an_exact_value(self):
        # With antithetic pairing the center term cancels exactly, so the
        # estimate is (r / n) * mean ||u||. On the identity design u is a
        # sign vector, ||u|| = sqrt(2) for every draw, and the estimate is
        # r * sqrt(2) / 2 with zero spread across pairs.
        ball = AlgorithmicBall(center=[0.5, -0.3], radius=0.25, n=2, delta=0.1)
        X = np.eye(2)
        est = ball_rademacher(ball, X, draws=64, seed=3)
        assert est.mean == pytest.approx(0.25 * math.sqrt(2.0) / 2.0, abs=1e-15)
        assert est.std_error < 1e-15

    def test_estimate_is_never_negative_and_replays(self):
        rng = np.random.default_rng(7)
        X = sphere_features(rng, 10, 4)
        ball = AlgorithmicBall(center=rng.standard_normal(4), radius=0.3, n=10, delta=0.1)
        a = ball_rademacher(ball, X, draws=256, seed=11)
        b = ball_rademacher(ball, X, draws=256, seed=11)
        assert a.mean >= 0.0
        assert a.mean == b.mean and a.std_error == b.std_error
        c = ball_rademacher(ball, X, draws=256, seed=12)
        assert a.mean != c.mean

    def test_translation_of_the_center_does_not_move_the_mean(self):
        rng = np.random.default_rng(9)
        X = sphere_features(rng, 8, 3)
        a = ball_rademacher(
            AlgorithmicBall(center=np.zeros(3), radius=0.3, n=8, delta=0.1),
            X,
            draws=128,
            seed=4,
        )
        b = ball_rademacher(
            AlgorithmicBall(center=rng.standard_normal(3), radius=0.3, n=8, delta=0.1),
            X,
            draws=128,
            seed=4,
        )
        assert a.mean == pytest.approx(b.mean, abs=1e-15)

    def test_mean_is_linear_in_the_radius(self):
        rng = np.random.default_rng(13)
        X = sphere_features(rng, 8, 3)
        a = ball_rademacher(
            AlgorithmicBall(center=np.zeros(3), radius=0.2, n=8, delta=0.1),
            X,
            draws=128,
            seed=6,
        )
        b = ball_rademacher(
            AlgorithmicBall(center=np.zeros(3), radius=0.4, n=8, delta=0.1),
            X,
            draws=128,
            seed=6,
        )
        assert b.mean == pytest.approx(2.0 * a.mean, rel=1e-12)

    @pytest.mark.parametrize("n, pairs", [(5, 1), (37, 64), (400, 300)])
    def test_pairs_summed_once_match_the_full_antithetic_matrix(self, n, pairs):
        # Each pair's sign sums are taken once and negated for -sigma; the
        # estimate must equal the one over all 2 * pairs rows, bit for bit.
        rng = np.random.default_rng(n)
        X = sphere_features(rng, n, 4)
        ball = AlgorithmicBall(center=rng.standard_normal(4), radius=0.3, n=n, delta=0.1)
        H = rng.standard_normal((7, 4))
        sigma = _antithetic_signs(19, pairs, n)
        signs = np.empty((2 * pairs, n))
        signs[0::2], signs[1::2] = sigma, -sigma
        for values, est in (
            (ball_draw_values(ball, X, signs), ball_rademacher(ball, X, 2 * pairs, seed=19)),
            (
                finite_class_draw_values(H, X, signs),
                brute_force_rademacher(H, X, exhaustive=False, seed=19, draws=2 * pairs),
            ),
        ):
            pair_means = 0.5 * (values[0::2] + values[1::2])
            assert est.mean == float(pair_means.mean())
            se = 0.0 if pairs == 1 else float(pair_means.std(ddof=1) / math.sqrt(pairs))
            assert est.std_error == se

    @pytest.mark.parametrize("draws", [0, 1, 3, 7])
    def test_rejects_odd_or_tiny_draw_counts(self, draws):
        ball = AlgorithmicBall(center=[0.1], radius=0.5, n=2, delta=0.1)
        with pytest.raises(ValueError):
            ball_rademacher(ball, np.ones((2, 1)), draws=draws)


class TestBruteForce:
    def test_exhaustive_two_point_hand_value(self):
        # Hypotheses {0.25, 0.75} on x = (1, 1): per sign pattern the best
        # value of (h * (s1 + s2)) / 2 is 0.75 for (+,+), 0.25 * 0 = 0 for
        # the mixed patterns, and -0.25 for (-,-); the mean is 0.125.
        H = np.array([[0.25], [0.75]])
        X = np.array([[1.0], [1.0]])
        est = brute_force_rademacher(H, X, exhaustive=True)
        assert est.mean == pytest.approx(0.125, abs=1e-15)
        assert est.std_error == 0.0
        assert est.draws == 4

    def test_exhaustive_matches_monte_carlo_within_error(self):
        rng = np.random.default_rng(15)
        n, d = 8, 3
        X = sphere_features(rng, n, d)
        H = rng.standard_normal((20, d)) * 0.5
        exact = brute_force_rademacher(H, X, exhaustive=True)
        mc = brute_force_rademacher(H, X, exhaustive=False, seed=2, draws=4096)
        assert abs(mc.mean - exact.mean) <= 4.0 * mc.std_error + 1e-12

    def test_singleton_class_cancels_to_exact_zero(self):
        # The supremum over one hypothesis is linear in the signs, so the
        # antithetic pairs cancel it exactly; a zero-radius ball is the
        # same problem and must agree bitwise on the shared sign streams.
        rng = np.random.default_rng(17)
        n, d = 6, 3
        X = sphere_features(rng, n, d)
        center = rng.standard_normal(d)
        ball = AlgorithmicBall(center=center, radius=0.0, n=n, delta=0.1)
        a = ball_rademacher(ball, X, draws=64, seed=21)
        b = brute_force_rademacher(center[None, :], X, exhaustive=False, seed=21, draws=64)
        assert a.mean == 0.0
        assert b.mean == 0.0
        assert a.std_error == b.std_error == 0.0

    def test_exhaustive_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_rademacher(np.ones((1, 1)), np.ones((21, 1)), exhaustive=True)

    def test_rejects_empty_hypothesis_set(self):
        with pytest.raises(ValueError):
            brute_force_rademacher(np.ones((0, 2)), np.ones((4, 2)), exhaustive=True)


class TestComplexityStageCenter:
    """The record's center: the mean of ``center_replicates`` refits, with
    the norm of its per-coordinate standard error."""

    def config(self, **overrides):
        raw = {
            "name": "center",
            "algorithm": {"preset": "ridge", "lam": 0.5},
            "loss": "squared",
            "distribution": {
                "dim": 2,
                "feature_bound": 1.0,
                "teacher": [0.3, 0.0],
                "mechanism": {"type": "linear_noise", "noise_sd": 0.05},
                "label_bound": 1.0,
            },
            "n_grid": [20],
            "draws": 16,
            "center_replicates": 16,
            "seed": 3,
        }
        return ExperimentConfig.from_dict({**raw, **overrides})

    def center(self, config, n):
        algorithm = build_algorithm(config)
        seeds = stage_seeds(config, n)
        replicates = record_fits(config, algorithm, n, ["center"], seeds)["center"]
        alpha = theoretical_alpha(algorithm, n)
        return complexity_stage(config, sample_stage(config, n), alpha, replicates, seeds["sigma"])

    def test_replays_and_reports_spread(self):
        config = self.config()
        a, b = self.center(config, 20), self.center(config, 20)
        assert a["center"] == b["center"]
        assert a["center_std_error"] == b["center_std_error"] > 0
        (fits,) = fit_plan(
            build_algorithm(config),
            config.distribution,
            20,
            [FitGroup("center", stage_seeds(config, 20)["center"], 16)],
        )
        assert np.all(fits.std(axis=0, ddof=1) > 0)

    def test_center_approaches_the_ridge_population_solution(self):
        # On the sphere E[x x^T] = B^2/d I, so the population ridge solution
        # is teacher * (B^2/d) / (B^2/d + lam).
        config = self.config(n_grid=[200], center_replicates=64, seed=5)
        est = self.center(config, 200)
        shrink = 0.5 / (0.5 + 0.5)
        target = np.array([0.3 * shrink, 0.0])
        assert np.linalg.norm(np.array(est["center"]) - target) <= 6.0 * est["center_std_error"]

    def test_a_single_replicate_raises(self):
        # One refit has no spread, so the center would have no standard error.
        with pytest.raises(ValueError, match=r"center_replicates must lie in \[2, 4000\], got 1"):
            self.config(center_replicates=1)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="center_replicates must lie in"):
            self.config(center_replicates=0)
        with pytest.raises(ValueError, match="n_grid entry must lie in"):
            self.config(n_grid=[0])
        algorithm = build_algorithm(self.config())
        with pytest.raises(ValueError, match="n must be >= 1"):
            fit_plan(algorithm, self.config().distribution, 0, [FitGroup("center", 0, 4)])
