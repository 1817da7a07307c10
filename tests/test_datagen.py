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
from stabilab.losses import _sigmoid, margin_values

from risk_oracle import serial_risks
from stream_oracle import serial_draw_samples


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

    def test_label_means_are_the_mean_labels(self):
        margins = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
        np.testing.assert_allclose(
            LogisticTeacher().label_mean(margins), 2.0 * _sigmoid(margins) - 1.0, rtol=0, atol=1e-15
        )
        mean = 1.0 - 2.0 * 0.2
        assert np.array_equal(SignFlip(0.2).label_mean(margins), [-mean, -mean, mean, mean, mean])

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
    def test_sphere_closed_form_hand_value(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.01)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        values = true_risks(loss, [[0.0, 0.0]], spec)
        assert values[0] == pytest.approx(0.25 / 2.0 + 0.0001, abs=1e-15)

    def test_ball_closed_form_hand_value(self):
        # ||h - t||^2 B^2 / (d + 2) + sd^2 = (0.3^2 + 0.4^2) * 2^2 / 5 + 0.01^2
        spec = linear_spec(dim=3, feature_bound=2.0, teacher_scale=0.3, noise_sd=0.01, law="ball")
        loss = make_loss("squared", 2.0, 1.0, 1.0)
        values = true_risks(loss, [[0.0, 0.4, 0.0]], spec)
        assert values[0] == pytest.approx(0.2001, abs=1e-15)

    def test_closed_form_includes_the_ridge_term(self):
        spec = linear_spec(dim=2, teacher_scale=0.5, noise_sd=0.0)
        plain = make_loss("squared", 1.0, 1.0, 1.0)
        ridged = make_loss("squared", 1.0, 1.0, 1.0, 0.25)
        h = [0.2, -0.4]
        (ridged_risk,) = true_risks(ridged, [h], spec)
        (plain_risk,) = true_risks(plain, [h], spec)
        gap = ridged_risk - plain_risk
        assert gap == pytest.approx(0.25 * 0.2, abs=1e-15)

    def test_closed_form_agrees_with_the_sampler(self):
        spec = linear_spec(dim=3, teacher_scale=0.3, noise_sd=0.05)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        h = np.array([0.1, -0.2, 0.05])
        (exact,) = true_risks(loss, [h], spec)
        s = draw_sample(spec, 4096, seed=12)
        vals = loss.values_raw(h, s.features, s.labels)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 4.0 * se

    @pytest.mark.parametrize("law, mean_abs", [("sphere", 0.5), ("ball", 0.375)])
    def test_squared_loss_under_sign_flip_hand_value(self, law, mean_abs):
        # E[y x] = (1 - 2p) B E|u| t / ||t||, with E|u| = 1/2 for a coordinate
        # of the unit sphere in R^3 and 3/8 for one of the unit ball.
        spec = DistributionSpec(
            dim=3,
            feature_bound=1.5,
            teacher=[0.5, 0.0, 0.0],
            mechanism=SignFlip(0.1),
            feature_law=law,
        )
        loss = make_loss("squared", 1.5, 1.0, 1.0)
        second = 1.0 / 3.0 if law == "sphere" else 1.0 / 5.0
        want = 0.2 * 1.5**2 * second - 2.0 * 1.5 * 0.4 * 0.8 * mean_abs + 1.0
        (value,) = true_risks(loss, [[0.4, 0.2, 0.0]], spec)
        assert value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "mechanism", [LogisticTeacher(), SignFlip(0.2)], ids=["logistic", "flip"]
    )
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    @pytest.mark.parametrize(
        "kind, value", [("squared", 1.0), ("logistic", math.log(2.0)), ("hinge", 1.0)]
    )
    def test_the_zero_hypothesis_scores_the_loss_at_zero(self, mechanism, law, kind, value):
        for d in (1, 2, 5):
            spec = DistributionSpec(
                dim=d, feature_bound=1.5, teacher=[0.6] * d, mechanism=mechanism, feature_law=law
            )
            loss = make_loss(kind, 1.5, 1.0)
            assert true_risks(loss, np.zeros((1, d)), spec)[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("kind", ["squared", "logistic", "hinge"])
    def test_a_zero_teacher_under_sign_flip_labels_every_point_plus_one(self, kind):
        # The sampler labels a zero margin +1, so every label is +1, flipped
        # with probability p: the risk is (1 - p) E[phi(m, +1)] + p E[phi(m, -1)].
        p, B = 0.2, 1.5
        line = DistributionSpec(dim=1, feature_bound=B, teacher=[0.0], mechanism=SignFlip(p))
        unflipped = DistributionSpec(dim=1, feature_bound=B, teacher=[0.0], mechanism=SignFlip(0.0))
        assert np.all(draw_samples(unflipped, 64, [3])[1] == 1.0)
        loss = make_loss(kind, B, 1.0)
        m = np.array([-B * 0.9, B * 0.9])
        want = np.mean((1 - p) * margin_values(kind, m, 1.0) + p * margin_values(kind, m, -1.0))
        assert true_risks(loss, [[0.9]], line)[0] == pytest.approx(want, rel=1e-15)
        disc = DistributionSpec(dim=3, feature_bound=B, teacher=np.zeros(3), mechanism=SignFlip(p))
        H = np.array([[0.9, 0.0, 0.0], [0.2, -0.5, 0.6]])
        np.testing.assert_allclose(
            true_risks(loss, H, disc), serial_risks(loss, H, disc), rtol=0, atol=1e-6
        )

    def test_dimension_mismatch_is_rejected(self):
        spec = linear_spec(dim=3)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            true_risks(loss, np.zeros((1, 2)), spec)

    def test_a_mechanism_without_a_label_mean_has_no_exact_risk(self):
        class Coin:
            def draw_raw(self, rng, out):
                rng.random(out=out)

            def labels_from(self, margins, raw):
                return np.where(raw < 0.5, 1.0, -1.0)

            def classification(self):
                return True

        coin = DistributionSpec(dim=3, feature_bound=1.0, teacher=[0.1, 0.0, 0.0], mechanism=Coin())
        with pytest.raises(ValueError, match="no exact risk"):
            true_risks(make_loss("logistic", 1.0, 1.0), np.zeros((1, 3)), coin)
        with pytest.raises(ValueError, match="no exact risk"):
            true_risks(make_loss("hinge", 1.0, 1.0), np.zeros((1, 3)), linear_spec(dim=3))

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


# ---------------------------------------------------------------------------
# the exact risk against the dense-grid oracle, a doubled rule, the sampler,
# and one-row stacks

COMBINATIONS = [
    (law, kind, mechanism)
    for law in ("sphere", "ball")
    for kind, mechanism in [
        ("squared", LinearNoise(0.05)),
        ("squared", LogisticTeacher()),
        ("squared", SignFlip(0.2)),
        ("logistic", LogisticTeacher()),
        ("logistic", SignFlip(0.2)),
        ("hinge", LogisticTeacher()),
        ("hinge", SignFlip(0.2)),
    ]
]
COMBINATION = pytest.mark.parametrize(
    "law, kind, mechanism",
    COMBINATIONS,
    ids=[f"{law}-{kind}-{type(m).__name__}" for law, kind, m in COMBINATIONS],
)


def risk_case(law, kind, mechanism, d, ridge=0.0):
    """(loss, spec) of one combination on d dimensions: B = 1.5, a teacher of
    norm 0.6 along (1, -1, 1, ...), and a certified radius of 2."""
    teacher = 0.6 * np.resize([1.0, -1.0], d) / math.sqrt(d)
    label_bound = 1.0 if mechanism.classification() else 1.5
    spec = DistributionSpec(
        dim=d,
        feature_bound=1.5,
        teacher=teacher,
        mechanism=mechanism,
        label_bound=label_bound,
        feature_law=law,
    )
    return make_loss(kind, 1.5, 2.0, label_bound, ridge), spec


def generic_rows(d, seed):
    """Two hypotheses in general position: B ||h|| = 1.5, past the hinge's
    kink, and B ||h|| = 0.45."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((2, d))
    return H * np.array([[1.0], [0.3]]) / np.linalg.norm(H, axis=1, keepdims=True)


def special_rows(spec):
    """Hypotheses along, against and across the teacher, and zero."""
    unit = spec.teacher / np.linalg.norm(spec.teacher)
    across = np.zeros(spec.dim)
    if spec.dim > 1:
        across[:2] = unit[1], -unit[0]
        across *= 1.1 / np.linalg.norm(across)
    return np.stack([1.3 * unit, -0.9 * unit, across, np.zeros(spec.dim)])


class TestExactRisk:
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    def test_the_legendre_rule_is_exact_to_degree_2n_minus_1(self, n):
        nodes, weights = datagen._legendre(n)
        for k in range(2 * n):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(weights @ nodes**k) == pytest.approx(want, rel=0, abs=1e-14)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        order = np.argsort(nodes)
        np.testing.assert_allclose(nodes[order], ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights[order], ref_weights, rtol=1e-11, atol=0)

    @COMBINATION
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_the_dense_grid_oracle(self, law, kind, mechanism, d):
        loss, spec = risk_case(law, kind, mechanism, d)
        H = generic_rows(d, seed=d)
        np.testing.assert_allclose(
            true_risks(loss, H, spec), serial_risks(loss, H, spec), rtol=0, atol=1e-6
        )

    @pytest.mark.parametrize("law", ["sphere", "ball"])
    @pytest.mark.parametrize(
        "mechanism", [LogisticTeacher(), SignFlip(0.2)], ids=["logistic", "flip"]
    )
    def test_hinge_rows_along_and_across_the_teacher_match_the_oracle(self, law, mechanism):
        loss, spec = risk_case(law, "hinge", mechanism, 3)
        H = special_rows(spec)
        np.testing.assert_allclose(
            true_risks(loss, H, spec), serial_risks(loss, H, spec), rtol=0, atol=1e-6
        )

    @COMBINATION
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_doubling_the_nodes_moves_no_risk(self, monkeypatch, law, kind, mechanism, d):
        loss, spec = risk_case(law, kind, mechanism, d)
        H = np.vstack([generic_rows(d, seed=d), special_rows(spec)])
        want = true_risks(loss, H, spec)
        monkeypatch.setattr(datagen, "_NODES", 2 * datagen._NODES)
        np.testing.assert_allclose(true_risks(loss, H, spec), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["logistic", "hinge"])
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    def test_steep_margins_get_more_nodes(self, monkeypatch, kind, law):
        # B ||teacher|| = 20 and B ||h|| up to 60: the rule scales its nodes
        # with the certified radius and the teacher.
        spec = DistributionSpec(
            dim=5,
            feature_bound=4.0,
            teacher=[5.0, 0, 0, 0, 0],
            mechanism=LogisticTeacher(),
            feature_law=law,
        )
        loss = make_loss(kind, 4.0, 15.0)
        H = generic_rows(5, seed=9) * 12.5
        want = true_risks(loss, H, spec)
        monkeypatch.setattr(datagen, "_NODES", 2 * datagen._NODES)
        np.testing.assert_allclose(true_risks(loss, H, spec), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("law", ["sphere", "ball"])
    @pytest.mark.parametrize(
        "mechanism",
        [LinearNoise(0.05), LogisticTeacher(), SignFlip(0.2)],
        ids=["noise", "logistic", "flip"],
    )
    def test_lies_within_five_sigma_of_the_sampler(self, law, mechanism):
        # Every combination at d = 4, its kinds scored on one 200,000-draw sample.
        kinds = ["squared", "logistic", "hinge"] if mechanism.classification() else ["squared"]
        for kind in kinds:
            loss, spec = risk_case(law, kind, mechanism, 4)
            if kind == "squared":
                X, y = draw_samples(spec, 200_000, [17])
            H = generic_rows(4, seed=4)
            for h, exact in zip(H, true_risks(loss, H, spec)):
                values = loss.values_raw(h, X[0], y[0])
                sigma = values.std(ddof=1) / math.sqrt(values.size)
                assert abs(values.mean() - exact) <= 5.0 * sigma


def ball_hypotheses(count, dim, radius, seed):
    """``count`` hypotheses strictly inside the radius ball, zero included."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((count, dim))
    H *= radius * rng.random((count, 1)) / np.linalg.norm(H, axis=1, keepdims=True)
    H[0] = 0.0
    return H


class TestStackedRisk:
    @pytest.mark.parametrize("ridge", [0.0, 0.25])
    @pytest.mark.parametrize("dim", [1, 3, 8, 16])
    @pytest.mark.parametrize("count", [1, 37])
    def test_closed_form_rows_equal_the_scalar_formula(self, ridge, dim, count):
        spec = linear_spec(dim=dim, teacher_scale=0.3, noise_sd=0.05)
        loss = make_loss("squared", 1.0, 1.0, 1.0, ridge)
        H = ball_hypotheses(count, dim, 1.0, seed=dim)
        values = true_risks(loss, H, spec)
        for value, h in zip(values, H):
            assert value == true_risks(loss, h[None], spec)[0]
            gap = h - spec.teacher
            want = float(gap @ gap) * spec.feature_bound**2 / spec.dim + 0.05**2
            if ridge:
                want += ridge * float(h @ h)
            assert value == want

    @COMBINATION
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_a_stack_equals_each_row_alone(self, law, kind, mechanism, d):
        loss, spec = risk_case(law, kind, mechanism, d, ridge=0.1)
        H = np.vstack([ball_hypotheses(5, d, 2.0, seed=d), special_rows(spec)])
        values = true_risks(loss, H, spec)
        assert values.shape == (len(H),)
        for c, h in enumerate(H):
            assert values[c] == true_risks(loss, h[None], spec)[0]

    @pytest.mark.parametrize("kind", ["logistic", "hinge"])
    @pytest.mark.parametrize("block", [1, 100, 4096])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, kind, block):
        loss, spec = risk_case("ball", kind, SignFlip(0.2), 3)
        H = ball_hypotheses(9, 3, 2.0, seed=4)
        want = true_risks(loss, H, spec)
        monkeypatch.setattr(datagen, "_BLOCK_EXAMPLES", block)
        assert np.array_equal(true_risks(loss, H, spec), want)

    def test_a_stack_is_checked_before_any_quadrature(self, monkeypatch):
        loss, spec = risk_case("ball", "logistic", LogisticTeacher(), 3)
        H = ball_hypotheses(4, 3, 2.0, seed=6)
        monkeypatch.setattr(datagen, "_classification_risks", None)
        wide, nan = H.copy(), H.copy()
        wide[2] *= 2.5 / np.linalg.norm(wide[2])
        nan[3, 0] = np.nan
        with pytest.raises(DomainError, match="exceeds certified radius"):
            true_risks(loss, wide, spec)
        with pytest.raises(ValueError, match="finite"):
            true_risks(loss, nan, spec)
        with pytest.raises(ValueError, match="dimension"):
            true_risks(loss, H[:, :2], spec)
