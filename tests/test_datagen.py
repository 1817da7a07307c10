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
)
from stabilab import datagen
from stabilab.datagen import draw_samples, true_risks
from stabilab.exceptions import DomainError
from stabilab.seeding import substream

from stream_oracle import serial_draw, serial_draw_samples


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
        before = rng.bit_generator.state
        raw = np.full(3, 7.0)
        LinearNoise(noise_sd=0.0).draw_raw(rng, raw)
        assert rng.bit_generator.state == before
        assert np.array_equal(raw, [7.0, 7.0, 7.0])
        margins = np.array([0.3, -0.2, 0.0])
        assert np.array_equal(LinearNoise(noise_sd=0.0).labels_from(margins, raw), margins)

    def test_linear_noise_adds_scaled_normals(self):
        rng = np.random.default_rng(3)
        raw = np.empty(4)
        LinearNoise(noise_sd=0.5).draw_raw(rng, raw)
        assert np.array_equal(raw, np.random.default_rng(3).standard_normal(4))
        margins = np.array([0.3, -0.2, 0.0, 0.1])
        out = LinearNoise(noise_sd=0.5).labels_from(margins, raw)
        assert np.array_equal(out, margins + 0.5 * raw)

    @pytest.mark.parametrize("flip_prob", [-0.1, 0.5, 0.9])
    def test_sign_flip_rejects_bad_probability(self, flip_prob):
        with pytest.raises(ValueError):
            SignFlip(flip_prob=flip_prob)

    def test_sign_flip_zero_probability_is_deterministic(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        raw = np.full(3, 0.0)
        SignFlip(flip_prob=0.0).draw_raw(rng, raw)
        assert rng.bit_generator.state == before
        out = SignFlip(flip_prob=0.0).labels_from(np.array([0.3, -0.2, 0.0]), raw)
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_sign_flip_flips_about_the_stated_fraction(self):
        rng = np.random.default_rng(1)
        raw = np.empty(20000)
        SignFlip(flip_prob=0.25).draw_raw(rng, raw)
        out = SignFlip(flip_prob=0.25).labels_from(np.ones(20000), raw)
        flipped = np.mean(out < 0)
        assert abs(flipped - 0.25) < 0.01

    def test_logistic_teacher_emits_signs_with_margin_dependent_bias(self):
        rng = np.random.default_rng(2)
        raw = np.empty(5000)
        LogisticTeacher().draw_raw(rng, raw)
        strong = LogisticTeacher().labels_from(np.full(5000, 3.0), raw)
        LogisticTeacher().draw_raw(rng, raw)
        weak = LogisticTeacher().labels_from(np.zeros(5000), raw)
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

    def test_non_finite_rows_raise(self):
        class NanLabels:
            noise_sd = 0.0

            def draw_raw(self, rng, out):
                pass

            def labels_from(self, margins, raw):
                return np.full(margins.shape, np.nan)

            def classification(self):
                return False

        spec = DistributionSpec(
            dim=2, feature_bound=1.0, teacher=[0.1, 0.0], mechanism=NanLabels()
        )
        with pytest.raises(ValueError, match="finite"):
            draw_samples(spec, 1, [1, 2])
        with pytest.raises(ValueError, match="finite"):
            draw_samples(spec, 3, [1, 2])


class TestTrueRisk:
    def test_closed_form_hand_value(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.01)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        values = true_risks(loss, [[0.0, 0.0]], spec, 4096, [0])
        assert values[0] == pytest.approx(0.25 / 2.0 + 0.0001, abs=1e-15)

    def test_closed_form_includes_the_ridge_term(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.0)
        plain = make_loss("squared", 1.0, 1.0, 1.0)
        ridged = make_loss("squared", 1.0, 1.0, 1.0, 0.25)
        h = [0.2, -0.4]
        (ridged_risk,) = true_risks(ridged, [h], spec, 4096, [0])
        (plain_risk,) = true_risks(plain, [h], spec, 4096, [0])
        gap = ridged_risk - plain_risk
        assert gap == pytest.approx(0.25 * 0.2, abs=1e-15)

    def test_closed_form_agrees_with_the_sampler(self):
        spec = linear_spec(dim=3, teacher_scale=0.3, noise_sd=0.05)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        h = np.array([0.1, -0.2, 0.05])
        (exact,) = true_risks(loss, [h], spec, 4096, [0])
        s = draw_sample(spec, 4096, seed=12)
        vals = loss.values_raw(h, s.features, s.labels)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 4.0 * se

    def test_monte_carlo_path_replays(self):
        spec = linear_spec(dim=3, teacher_scale=0.3, noise_sd=0.05, law="ball")
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        h = np.array([0.1, -0.2, 0.05])
        (a_value,) = true_risks(loss, [h], spec, 512, [8])
        (b_value,) = true_risks(loss, [h], spec, 512, [8])
        (other,) = true_risks(loss, [h], spec, 512, [9])
        assert a_value == b_value
        assert other != a_value  # the ball law has no closed form: the seed moves it

    def test_monte_carlo_needs_at_least_two_draws(self):
        spec = linear_spec(law="ball")
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            true_risks(loss, np.zeros((1, 3)), spec, 1, [0])

    def test_dimension_mismatch_is_rejected(self):
        spec = linear_spec(dim=3)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            true_risks(loss, np.zeros((1, 2)), spec, 4096, [0])


# ---------------------------------------------------------------------------
# the one sampler against the frozen per-row oracle

SERIAL_MECHANISMS = pytest.mark.parametrize(
    "mechanism",
    [LinearNoise(0.0), LinearNoise(0.02), LogisticTeacher(), SignFlip(0.0), SignFlip(0.2)],
    ids=["noise-0", "noise-0.02", "logistic", "flip-0", "flip-0.2"],
)
LAWS = pytest.mark.parametrize("law", ["sphere", "ball"])
SEEDS = [11, 5, 11, 2**63 - 1, np.int64(9), 0, 20250815]


def oracle_spec(mechanism, law, dim=3):
    teacher = np.zeros(dim)
    teacher[0], teacher[-1] = 0.1, -0.05
    return DistributionSpec(
        dim=dim,
        feature_bound=1.5,
        teacher=teacher,
        mechanism=mechanism,
        label_bound=1.0 if mechanism.classification() else 0.5,
        feature_law=law,
    )


def assert_same_stack(got, want):
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSamplerAgainstSerialOracle:
    @SERIAL_MECHANISMS
    @LAWS
    @pytest.mark.parametrize("n", [1, 7])
    def test_every_entry_point_matches_the_serial_sampler(self, mechanism, law, n):
        spec = oracle_spec(mechanism, law)
        want = serial_draw_samples(spec, n, SEEDS)
        assert_same_stack(draw_samples(spec, n, SEEDS), want)
        for c, seed in enumerate(SEEDS):
            sample = draw_sample(spec, n, seed)
            assert_same_stack((sample.features, sample.labels), (want[0][c], want[1][c]))

    @LAWS
    def test_a_stack_of_several_blocks_matches(self, law):
        # 400 examples a sample: 10 samples a block, so 25 samples fill three.
        spec = oracle_spec(LogisticTeacher(), law, dim=8)
        seeds = list(range(25))
        assert_same_stack(draw_samples(spec, 400, seeds), serial_draw_samples(spec, 400, seeds))

    @SERIAL_MECHANISMS
    @LAWS
    @pytest.mark.parametrize("n", [1, 5])
    def test_small_blocks_match(self, monkeypatch, mechanism, law, n):
        monkeypatch.setattr(datagen, "_BLOCK_EXAMPLES", 12)
        spec = oracle_spec(mechanism, law)
        seeds = list(range(30))
        assert_same_stack(draw_samples(spec, n, seeds), serial_draw_samples(spec, n, seeds))

    @SERIAL_MECHANISMS
    @LAWS
    @pytest.mark.parametrize("n", [1, 6])
    def test_near_zero_norm_rows_are_redrawn_in_stream_order(self, monkeypatch, mechanism, law, n):
        # Raise the threshold so that many rows redraw (a 2-d standard
        # normal has norm below 1 with probability 0.39); the oracle redraws
        # on the same threshold, in the per-row order.
        monkeypatch.setattr(datagen, "_MIN_NORM", 1.0)
        monkeypatch.setattr(datagen, "_BLOCK_EXAMPLES", 8)
        spec = oracle_spec(mechanism, law, dim=2)
        seeds = list(range(20))
        want = serial_draw_samples(spec, n, seeds, min_norm=1.0)
        assert not np.array_equal(want[0], serial_draw_samples(spec, n, seeds)[0])
        assert_same_stack(draw_samples(spec, n, seeds), want)

    @pytest.mark.parametrize(
        "mechanism, law, kind",
        [
            (LinearNoise(0.02), "ball", "squared"),
            (LinearNoise(0.0), "ball", "squared"),
            (LogisticTeacher(), "sphere", "logistic"),
            (SignFlip(0.0), "ball", "hinge"),
            (SignFlip(0.2), "sphere", "logistic"),
        ],
    )
    def test_monte_carlo_risk_matches_the_serial_sampler(self, mechanism, law, kind):
        spec = oracle_spec(mechanism, law)
        loss = make_loss(kind, 1.5, 1.0, spec.label_bound)
        h = np.array([0.3, -0.2, 0.1])
        values = true_risks(loss, [h], spec, 777, [31])
        X, y = serial_draw(spec, substream(31, "risk-mc"), 777)
        assert values[0] == float(loss.values_raw(h, X, y).mean())


# ---------------------------------------------------------------------------
# the stacked risk against one-row stacks


def ball_hypotheses(count, dim, radius, seed):
    """``count`` hypotheses strictly inside the radius ball, zero included."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((count, dim))
    H *= radius * rng.random((count, 1)) / np.linalg.norm(H, axis=1, keepdims=True)
    H[0] = 0.0
    return H


def assert_rows_equal_one_row_risks(loss, H, spec, draws, seeds):
    """true_risks on the stack equals it on each row alone, bit for bit."""
    values = true_risks(loss, H, spec, draws, seeds)
    assert values.shape == (len(H),)
    for c, (h, seed) in enumerate(zip(H, seeds)):
        assert values[c] == true_risks(loss, h[None], spec, draws, [seed])[0]
    return values


class TestStackedRisk:
    @pytest.mark.parametrize("ridge", [0.0, 0.25])
    @pytest.mark.parametrize("dim", [1, 3, 8, 16])
    @pytest.mark.parametrize("count", [1, 37])
    def test_closed_form_rows_equal_the_scalar_formula(self, ridge, dim, count):
        spec = linear_spec(dim=dim, teacher_scale=0.3, noise_sd=0.05)
        loss = make_loss("squared", 1.0, 1.0, 1.0, ridge)
        H = ball_hypotheses(count, dim, 1.0, seed=dim)
        values = assert_rows_equal_one_row_risks(loss, H, spec, 4096, range(count))
        for value, h in zip(values, H):
            gap = h - spec.teacher
            want = float(gap @ gap) * spec.feature_bound**2 / spec.dim + 0.05**2
            if ridge:
                want += ridge * float(h @ h)
            assert value == want

    @pytest.mark.parametrize(
        "mechanism, law, kind, ridge",
        [
            (LinearNoise(0.02), "ball", "squared", 0.0),
            (LinearNoise(0.02), "ball", "squared", 0.25),
            (LogisticTeacher(), "sphere", "logistic", 0.0),
            (LogisticTeacher(), "sphere", "logistic", 0.1),
            (SignFlip(0.2), "ball", "hinge", 0.0),
        ],
    )
    @pytest.mark.parametrize("count", [1, 13])
    def test_monte_carlo_rows_equal_the_serial_sampler(self, mechanism, law, kind, ridge, count):
        # 777 draws a row: 5 rows a block, so 13 rows fill three blocks.
        spec = oracle_spec(mechanism, law)
        loss = make_loss(kind, 1.5, 1.0, spec.label_bound, ridge)
        H = ball_hypotheses(count, 3, 1.0, seed=count)
        seeds = SEEDS + list(range(count))
        values = assert_rows_equal_one_row_risks(loss, H, spec, 777, seeds[:count])
        for c, h in enumerate(H):
            X, y = serial_draw(spec, substream(seeds[c], "risk-mc"), 777)
            assert values[c] == float(loss.values_raw(h, X, y).mean())

    @pytest.mark.parametrize("block", [1, 1000, 4096])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, block):
        spec = oracle_spec(LogisticTeacher(), "ball")
        loss = make_loss("logistic", 1.5, 1.0)
        H = ball_hypotheses(9, 3, 1.0, seed=4)
        want = true_risks(loss, H, spec, 512, list(range(9)))
        monkeypatch.setattr(datagen, "_BLOCK_EXAMPLES", block)
        got = true_risks(loss, H, spec, 512, list(range(9)))
        assert np.array_equal(got, want)

    def test_a_stack_is_checked_before_any_draw(self, monkeypatch):
        spec = oracle_spec(LogisticTeacher(), "ball")
        loss = make_loss("logistic", 1.5, 1.0)
        H = ball_hypotheses(4, 3, 1.0, seed=6)
        monkeypatch.setattr(datagen, "_sample_stack", None)
        wide, nan = H.copy(), H.copy()
        wide[2] *= 1.5 / np.linalg.norm(wide[2])
        nan[3, 0] = np.nan
        with pytest.raises(DomainError, match="exceeds certified radius"):
            true_risks(loss, wide, spec, 512, range(4))
        with pytest.raises(ValueError, match="finite"):
            true_risks(loss, nan, spec, 512, range(4))
        with pytest.raises(ValueError, match="one seed per hypothesis"):
            true_risks(loss, H, spec, 512, range(3))
        with pytest.raises(ValueError, match="dimension"):
            true_risks(loss, H[:, :2], spec, 512, range(4))

