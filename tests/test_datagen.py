"""Tests for synthetic distributions and population-risk evaluation."""

import math

import numpy as np
import pytest

from stabilab import (
    DistributionSpec,
    LinearNoise,
    LogisticTeacher,
    SignFlip,
    draw_sample,
    make_loss,
    true_risk,
)
from stabilab.datagen import draw_examples, draw_samples


def linear_spec(dim=3, feature_bound=1.0, teacher_scale=0.4, noise_sd=0.05, law="sphere"):
    teacher = np.zeros(dim)
    teacher[0] = teacher_scale
    return DistributionSpec(
        dim=dim,
        feature_bound=feature_bound,
        teacher=teacher,
        mechanism=LinearNoise(noise_sd=noise_sd),
        label_bound=1.0,
        feature_law=law,
    )


class TestMechanisms:
    @pytest.mark.parametrize("noise_sd", [-0.1, np.inf, np.nan])
    def test_linear_noise_rejects_bad_sd(self, noise_sd):
        with pytest.raises(ValueError):
            LinearNoise(noise_sd=noise_sd)

    def test_linear_noise_zero_sd_returns_margins(self):
        rng = np.random.default_rng(0)
        margins = np.array([0.3, -0.2, 0.0])
        out = LinearNoise(noise_sd=0.0).labels(rng, margins)
        assert np.array_equal(out, margins)
        out[0] = 9.0
        assert margins[0] == 0.3

    @pytest.mark.parametrize("flip_prob", [-0.1, 0.5, 0.9])
    def test_sign_flip_rejects_bad_probability(self, flip_prob):
        with pytest.raises(ValueError):
            SignFlip(flip_prob=flip_prob)

    def test_sign_flip_zero_probability_is_deterministic(self):
        rng = np.random.default_rng(0)
        margins = np.array([0.3, -0.2, 0.0])
        out = SignFlip(flip_prob=0.0).labels(rng, margins)
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_sign_flip_flips_about_the_stated_fraction(self):
        rng = np.random.default_rng(1)
        margins = np.ones(20000)
        out = SignFlip(flip_prob=0.25).labels(rng, margins)
        flipped = np.mean(out < 0)
        assert abs(flipped - 0.25) < 0.01

    def test_logistic_teacher_emits_signs_with_margin_dependent_bias(self):
        rng = np.random.default_rng(2)
        strong = LogisticTeacher().labels(rng, np.full(5000, 3.0))
        weak = LogisticTeacher().labels(rng, np.zeros(5000))
        assert set(np.unique(strong)) <= {-1.0, 1.0}
        assert np.mean(strong > 0) > 0.9
        assert abs(np.mean(weak > 0) - 0.5) < 0.03

    def test_classification_flags(self):
        assert not LinearNoise(0.1).classification()
        assert LogisticTeacher().classification()
        assert SignFlip().classification()


class TestDistributionSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0, feature_bound=1.0, teacher=[], mechanism=SignFlip()),
            dict(dim=2, feature_bound=0.0, teacher=[1.0, 0.0], mechanism=SignFlip()),
            dict(dim=2, feature_bound=1.0, teacher=[1.0], mechanism=SignFlip()),
            dict(dim=2, feature_bound=1.0, teacher=[np.inf, 0.0], mechanism=SignFlip()),
            dict(
                dim=2,
                feature_bound=1.0,
                teacher=[1.0, 0.0],
                mechanism=SignFlip(),
                feature_law="cube",
            ),
            dict(dim=2, feature_bound=1.0, teacher=[1.0, 0.0], mechanism=object()),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            DistributionSpec(**kwargs)

    def test_classification_forces_unit_label_bound(self):
        with pytest.raises(ValueError):
            DistributionSpec(
                dim=2,
                feature_bound=1.0,
                teacher=[1.0, 0.0],
                mechanism=SignFlip(),
                label_bound=2.0,
            )

    def test_linear_noise_needs_headroom_below_the_label_bound(self):
        with pytest.raises(ValueError):
            DistributionSpec(
                dim=2,
                feature_bound=1.0,
                teacher=[1.5, 0.0],
                mechanism=LinearNoise(0.0),
                label_bound=1.0,
            )
        with pytest.raises(ValueError):
            DistributionSpec(
                dim=2,
                feature_bound=1.0,
                teacher=[1.0, 0.0],
                mechanism=LinearNoise(0.05),
                label_bound=1.0,
            )

    def test_teacher_array_is_frozen(self):
        spec = linear_spec()
        with pytest.raises(ValueError):
            spec.teacher[0] = 2.0


class TestDrawSample:
    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            draw_sample(linear_spec(), 0, seed=0)

    def test_same_seed_reproduces_bitwise(self):
        spec = linear_spec()
        a = draw_sample(spec, 30, seed=5)
        b = draw_sample(spec, 30, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = draw_sample(spec, 30, seed=6)
        assert not np.array_equal(a.features, c.features)

    def test_sphere_features_sit_on_the_sphere(self):
        spec = linear_spec(feature_bound=1.5)
        s = draw_sample(spec, 200, seed=1)
        norms = np.linalg.norm(s.features, axis=1)
        assert np.max(np.abs(norms - 1.5)) < 1e-12

    def test_ball_features_fill_the_ball(self):
        spec = linear_spec(feature_bound=1.5, law="ball")
        s = draw_sample(spec, 500, seed=1)
        norms = np.linalg.norm(s.features, axis=1)
        assert np.all(norms <= 1.5 + 1e-12)
        assert np.min(norms) < 1.0

    def test_classification_labels_are_signs(self):
        spec = DistributionSpec(
            dim=3, feature_bound=1.0, teacher=[0.5, 0.0, 0.0], mechanism=LogisticTeacher()
        )
        s = draw_sample(spec, 100, seed=3)
        assert set(np.unique(s.labels)) <= {-1.0, 1.0}

    def test_real_labels_stay_within_the_bound(self):
        spec = linear_spec(teacher_scale=0.4, noise_sd=0.05)
        s = draw_sample(spec, 400, seed=4)
        assert np.all(np.abs(s.labels) <= 1.0)


STACK_SPECS = pytest.mark.parametrize(
    "spec",
    [
        linear_spec(dim=4),
        linear_spec(dim=2, law="ball"),
        DistributionSpec(
            dim=3, feature_bound=2.0, teacher=[0.5, 0.0, 0.1], mechanism=SignFlip(0.2)
        ),
    ],
    ids=["linear", "ball", "sign-flip"],
)


class TestDrawExamples:
    @STACK_SPECS
    def test_each_row_is_the_one_example_sample_of_its_seed(self, spec):
        seeds = [11, 5, 11, 2**62 + 3]
        X, y = draw_examples(spec, seeds)
        assert X.shape == (4, spec.dim) and y.shape == (4,)
        for row, label, seed in zip(X, y, seeds):
            one = draw_sample(spec, 1, seed)
            assert np.array_equal(row, one.features[0])
            assert label == one.labels[0]

    def test_non_finite_rows_raise(self):
        class NanLabels:
            noise_sd = 0.0

            def labels(self, rng, margins):
                return np.full(margins.shape[0], np.nan)

            def classification(self):
                return False

        spec = DistributionSpec(
            dim=2, feature_bound=1.0, teacher=[0.1, 0.0], mechanism=NanLabels()
        )
        with pytest.raises(ValueError, match="finite"):
            draw_examples(spec, [1, 2])
        with pytest.raises(ValueError, match="finite"):
            draw_samples(spec, 3, [1, 2])


class TestDrawSamples:
    @STACK_SPECS
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_each_row_is_the_sample_of_its_seed(self, spec, n):
        seeds = [11, 5, 11, 2**62 + 3, np.int64(9)]
        X, y = draw_samples(spec, n, seeds)
        assert X.shape == (5, n, spec.dim) and y.shape == (5, n)
        for row_x, row_y, seed in zip(X, y, seeds):
            sample = draw_sample(spec, n, seed)
            assert np.array_equal(row_x, sample.features)
            assert np.array_equal(row_y, sample.labels)

    def test_no_seeds_give_an_empty_stack(self):
        X, y = draw_samples(linear_spec(dim=4), 9, [])
        assert X.shape == (0, 9, 4) and y.shape == (0, 9)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            draw_samples(linear_spec(), 0, [1])


class TestTrueRisk:
    def test_closed_form_hand_value(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.01)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        est = true_risk(loss, [0.0, 0.0], spec)
        assert est.exact
        assert est.std_error == 0.0
        assert est.value == pytest.approx(0.25 / 2.0 + 0.0001, abs=1e-15)

    def test_closed_form_includes_the_ridge_term(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.0)
        plain = make_loss("squared", 1.0, 1.0, 1.0)
        ridged = make_loss("squared", 1.0, 1.0, 1.0, 0.25)
        h = [0.2, -0.4]
        gap = true_risk(ridged, h, spec).value - true_risk(plain, h, spec).value
        assert gap == pytest.approx(0.25 * 0.2, abs=1e-15)

    def test_closed_form_agrees_with_the_sampler(self):
        spec = linear_spec(dim=3, teacher_scale=0.3, noise_sd=0.05)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        h = np.array([0.1, -0.2, 0.05])
        exact = true_risk(loss, h, spec).value
        s = draw_sample(spec, 4096, seed=12)
        vals = loss.values_raw(h, s.features, s.labels)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 4.0 * se

    def test_monte_carlo_path_reports_spread_and_replays(self):
        spec = linear_spec(dim=3, teacher_scale=0.3, noise_sd=0.05, law="ball")
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        h = np.array([0.1, -0.2, 0.05])
        a = true_risk(loss, h, spec, draws=512, seed=8)
        b = true_risk(loss, h, spec, draws=512, seed=8)
        assert not a.exact
        assert a.std_error > 0
        assert a.value == b.value and a.std_error == b.std_error

    def test_monte_carlo_needs_at_least_two_draws(self):
        spec = linear_spec(law="ball")
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            true_risk(loss, np.zeros(3), spec, draws=1)

    def test_dimension_mismatch_is_rejected(self):
        spec = linear_spec(dim=3)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            true_risk(loss, np.zeros(2), spec)
