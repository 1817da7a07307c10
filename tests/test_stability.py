"""Tests for closed-form stability coefficients and the replace-one probe."""

import json
import math

import numpy as np
import pytest

from stabilab import (
    DistributionSpec,
    LabeledExample,
    LinearNoise,
    LogisticTeacher,
    PenaltySpec,
    Sample,
    SgdSpec,
    beta_from_alpha,
    check_penalty_condition,
    draw_sample,
    lp_penalty_constant,
    make_algorithm,
    make_loss,
    measure_argument_stability,
    rerm_alpha,
    sgd_alpha,
    theoretical_alpha,
)
from stabilab.stability import (
    ANCHOR_MINUS,
    ANCHOR_PLUS,
    adversarial_anchors,
    ridge_curvature,
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


# ---------------------------------------------------------------------------
# closed forms


class TestRermAlpha:
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((1.0, 1.0, 0.5, 0.1, 100, 2.0), 0.2),
            ((1.0, 1.0, 1.0, 0.01, 100, 3.0), 1.0),
            ((0.0, 1.0, 0.5, 0.1, 100, 2.0), 0.0),
            ((2.0, 0.5, 1.0, 0.01, 100, 2.0), 1.0),
        ],
    )
    def test_hand_values(self, args, expected):
        assert rerm_alpha(*args) == pytest.approx(expected, rel=1e-12)

    def test_decreases_in_n(self):
        values = [rerm_alpha(1.0, 1.0, 0.5, 0.1, n, 1.5) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 1.0, 0.5, 0.1, 100, 1.0),
            (1.0, 1.0, 0.0, 0.1, 100, 2.0),
            (1.0, 1.0, 0.5, 0.0, 100, 2.0),
            (1.0, 1.0, 0.5, 0.1, 0, 2.0),
            (-1.0, 1.0, 0.5, 0.1, 100, 2.0),
            (1.0, 0.0, 0.5, 0.1, 100, 2.0),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            rerm_alpha(*args)


class TestPenaltyConstants:
    @pytest.mark.parametrize(
        "p, bound, lam, expected",
        [
            (2.0, 1.0, 1.0, 0.5),
            (2.0, 4.0, 1.0, 1.0),
            (1.5, 1.0, 1.0, 0.1875),
        ],
    )
    def test_lp_curvature_hand_values(self, p, bound, lam, expected):
        cond = lp_penalty_constant(p, bound, lam)
        assert cond["exponent"] == 2.0
        assert cond["curvature"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.5, 0.9])
    def test_lp_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            lp_penalty_constant(p, 1.0, 1.0)

    def test_lp_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            lp_penalty_constant(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            lp_penalty_constant(1.5, 1.0, -0.1)

    def test_ridge_conventions(self):
        assert ridge_curvature(4.0, 1.0, "reported") == pytest.approx(1.0)
        assert ridge_curvature(4.0, 1.0, "exact") == 0.5
        assert ridge_curvature(1.0, 1.0, "reported") == pytest.approx(
            ridge_curvature(1.0, 1.0, "exact")
        )
        with pytest.raises(ValueError):
            ridge_curvature(1.0, 1.0, "median")


class TestSgdAlpha:
    def test_strongly_convex_hand_value(self):
        spec = SgdSpec(
            regime="strongly_convex", steps=50, seed=0, step=1.0, projection_radius=1.0
        )
        value = sgd_alpha(spec, 1.0, 1.0, 200, smoothness=1.0, gamma=0.5)
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_convex_hand_value(self):
        spec = SgdSpec(regime="convex", steps=100, seed=0, step=0.01)
        value = sgd_alpha(spec, 1.0, 1.0, 100, smoothness=1.0)
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_nonconvex_hand_value(self):
        spec = SgdSpec(regime="nonconvex", steps=100, seed=0, step_constant=1.0)
        value = sgd_alpha(spec, 1.0, 1.0, 101, smoothness=1.0)
        assert value == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-12)

    def test_zero_steps_gives_zero(self):
        spec = SgdSpec(regime="nonconvex", steps=0, seed=0, step_constant=1.0)
        assert sgd_alpha(spec, 1.0, 1.0, 10, smoothness=1.0) == 0.0

    def test_convex_alpha_scales_with_total_step_mass(self):
        short = SgdSpec(regime="convex", steps=50, seed=0, step=0.01)
        long = SgdSpec(regime="convex", steps=200, seed=0, step=0.01)
        a = sgd_alpha(short, 1.0, 1.0, 100, smoothness=1.0)
        b = sgd_alpha(long, 1.0, 1.0, 100, smoothness=1.0)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_rejects_inconsistent_requests(self):
        convex = SgdSpec(regime="convex", steps=10, seed=0, step=0.5)
        with pytest.raises(ValueError):
            sgd_alpha(convex, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            sgd_alpha(convex, 1.0, 1.0, 100, smoothness=5.0)
        noncon = SgdSpec(regime="nonconvex", steps=10, seed=0, step_constant=0.5)
        with pytest.raises(ValueError):
            sgd_alpha(noncon, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            sgd_alpha(noncon, 1.0, 1.0, 1, smoothness=1.0)
        strong = SgdSpec(
            regime="strongly_convex", steps=10, seed=0, step=0.5, projection_radius=1.0
        )
        with pytest.raises(ValueError):
            sgd_alpha(strong, 1.0, 1.0, 100, smoothness=1.0)

    def test_beta_is_the_lipschitz_multiple(self):
        assert beta_from_alpha(2.0, 1.5, 0.1) == pytest.approx(0.3)


class TestPenaltyCondition:
    def test_ridge_condition_is_an_identity_at_one_half(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = rng.standard_normal(4)
            g = rng.standard_normal(4)
            out = check_penalty_condition("ridge", h, g, 2.0, 0.5)
            gap = np.linalg.norm(h - g) ** 2
            assert out["holds"]
            assert out["lhs"] == pytest.approx(gap / 2.0, rel=1e-9, abs=1e-12)
            assert out["rhs"] == pytest.approx(gap / 2.0, rel=1e-9, abs=1e-12)

    def test_lp_condition_holds_on_the_certified_set(self):
        rng = np.random.default_rng(1)
        pen = PenaltySpec(p=1.5, lam=1.0)
        cond = lp_penalty_constant(1.5, 1.0, 1.0)
        reach = (1.0 / pen.lam) ** (1.0 / pen.p)
        for _ in range(500):
            h = rng.standard_normal(3)
            g = rng.standard_normal(3)
            h *= reach * rng.random() / np.linalg.norm(h)
            g *= reach * rng.random() / np.linalg.norm(g)
            out = check_penalty_condition(pen, h, g, cond["exponent"], cond["curvature"])
            assert out["holds"]

    def test_reports_a_violation_for_an_inflated_constant(self):
        out = check_penalty_condition("ridge", [1.0, 0.0], [0.0, 0.0], 2.0, 0.75)
        assert not out["holds"]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_penalty_condition("ridge", [1.0, 0.0], [1.0], 2.0, 0.5)
        with pytest.raises(ValueError):
            check_penalty_condition("lasso", [1.0], [0.0], 2.0, 0.5)


class TestTheoreticalAlpha:
    def test_constant_preset_is_perfectly_stable(self):
        algo = make_algorithm("constant", "squared", 1.0, vector=[0.3, 0.1])
        assert theoretical_alpha(algo, 50) == 0.0

    def test_ridge_preset_uses_the_reported_curvature(self):
        lam, B, Y = 0.5, 1.0, 0.5
        algo = make_algorithm("ridge", "squared", B, Y, lam=lam)
        loss = algo.loss_for(100)
        consts = loss.constants()
        curv = ridge_curvature(consts.bound, lam)
        expected = rerm_alpha(consts.lipschitz, B, curv, lam, 100, 2.0)
        assert theoretical_alpha(algo, 100) == pytest.approx(expected, rel=1e-12)

    def test_lp_preset_matches_its_own_constants(self):
        algo = make_algorithm("rerm-lp", "logistic", 1.0, p=1.5, lam=0.8)
        loss = algo.loss_for(60)
        cond = lp_penalty_constant(1.5, loss.constants().bound, 0.8)
        expected = rerm_alpha(
            loss.constants().lipschitz, 1.0, cond["curvature"], 0.8, 60, cond["exponent"]
        )
        assert theoretical_alpha(algo, 60) == pytest.approx(expected, rel=1e-12)

    def test_sgd_preset_delegates_to_the_regime_form(self):
        algo = make_algorithm(
            "sgd-strongly-convex",
            "logistic",
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2.0},
            step="inverse_gamma_n",
            gamma=1.0,
            projection_radius=1.0,
        )
        n = 100
        loss = algo.loss_for(n)
        expected = sgd_alpha(
            algo.spec_for(n, 0),
            loss.constants().lipschitz,
            1.0,
            n,
            smoothness=loss.constants().smoothness,
            gamma=1.0,
        )
        assert theoretical_alpha(algo, n) == pytest.approx(expected, rel=1e-12)

    def test_rejects_foreign_algorithms(self):
        with pytest.raises(ValueError):
            theoretical_alpha(object(), 10)
        algo = make_algorithm("ridge", "squared", 1.0, 0.5, lam=0.5)
        with pytest.raises(ValueError):
            theoretical_alpha(algo, 0)


# ---------------------------------------------------------------------------
# empirical measurement


class TestAnchors:
    def test_classification_anchor_geometry(self):
        spec = DistributionSpec(
            dim=2, feature_bound=2.0, teacher=[0.5, 0.0], mechanism=LogisticTeacher()
        )
        h = np.array([3.0, 4.0])
        anchors = adversarial_anchors(h, spec)
        assert [code for code, _ in anchors] == [ANCHOR_PLUS, ANCHOR_MINUS]
        plus = anchors[0][1]
        minus = anchors[1][1]
        assert np.linalg.norm(plus.x) == pytest.approx(2.0)
        assert plus.x == pytest.approx(np.array([1.2, 1.6]))
        assert plus.y == -1.0
        assert minus.x == pytest.approx(-plus.x)
        assert minus.y == 1.0

    def test_regression_anchors_take_the_far_label(self):
        spec = regression_spec()
        anchors = adversarial_anchors(np.array([1.0, 0.0]), spec)
        assert anchors[0][1].y == -1.0
        assert anchors[1][1].y == 1.0

    def test_zero_fit_has_no_anchor_direction(self):
        assert adversarial_anchors(np.zeros(2), regression_spec()) == []


class TestMeasurement:
    def test_ridge_hand_measurement(self):
        lam = 1.0
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=lam)
        sample = Sample([[1.0], [1.0]], [1.0, 1.0])
        spec = DistributionSpec(
            dim=1,
            feature_bound=1.0,
            teacher=[0.4],
            mechanism=LinearNoise(noise_sd=0.0),
            label_bound=1.0,
        )
        report = measure_argument_stability(algo, sample, spec, replacements=2, seed=3)
        base = 0.5
        worst = 0.0
        for i, code, distance, _gap in report.cells:
            if code == ANCHOR_PLUS:
                twin = sample.replaced(i, LabeledExample(np.array([1.0]), -1.0))
            elif code == ANCHOR_MINUS:
                twin = sample.replaced(i, LabeledExample(np.array([-1.0]), 1.0))
            else:
                continue
            expected = abs(base - float(np.mean(twin.features[:, 0] * twin.labels)) / 2.0)
            assert distance == pytest.approx(expected, abs=1e-12)
            worst = max(worst, expected)
        assert worst == pytest.approx(0.5, abs=1e-12)
        assert report.alpha_hat == pytest.approx(worst, abs=1e-12)

    def test_report_shape_and_invariants(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=3)
        sample = draw_sample(spec, 12, seed=4)
        loss = algo.loss_for(12)
        report = measure_argument_stability(
            algo, sample, spec, replacements=3, eval_loss=loss, seed=7
        )
        assert report.n == 12
        assert len(report.per_index) == 12
        assert report.trials == len(report.cells) == 12 * 5
        for entry in report.per_index:
            stats = dict(entry)
            assert 0.0 <= stats["mean"] <= stats["max_over_replacements"]
            assert stats["max_over_replacements"] <= report.alpha_hat + 1e-15
        consts = loss.constants()
        assert report.beta_hat is not None
        assert report.beta_hat <= (
            consts.lipschitz * loss.feature_bound * report.alpha_hat + 1e-9
        )
        assert report.theory_alpha == pytest.approx(theoretical_alpha(algo, 12))
        assert report.alpha_hat <= report.theory_alpha

    def test_measurement_replays_for_a_fixed_seed(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 8, seed=1)
        a = measure_argument_stability(algo, sample, spec, replacements=2, seed=5)
        b = measure_argument_stability(algo, sample, spec, replacements=2, seed=5)
        assert a.cells == b.cells
        c = measure_argument_stability(algo, sample, spec, replacements=2, seed=6)
        assert a.cells != c.cells

    def test_constant_algorithm_measures_zero(self):
        algo = make_algorithm("constant", "squared", 1.0, vector=[0.2, 0.1])
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 6, seed=2)
        report = measure_argument_stability(algo, sample, spec, replacements=2, seed=0)
        assert report.alpha_hat == 0.0
        assert all(cell[2] == 0.0 for cell in report.cells)
        assert report.theory_alpha == 0.0

    def test_sgd_untouched_streams_give_exact_zero_distance(self):
        from stabilab.seeding import child_seed, substream

        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=6, step=0.2
        )
        spec = regression_spec(dim=2, teacher_scale=0.2, noise_sd=0.02)
        n = 12
        sample = draw_sample(spec, n, seed=9)
        report = measure_argument_stability(
            algo, sample, spec, replacements=2, seed=11, use_anchors=False
        )
        assert report.trials == n * 2
        untouched = 0
        for i, code, distance, _gap in report.cells:
            stream = substream(child_seed(11, i, code), "sgd-indices").integers(
                0, n, size=6
            )
            if i not in stream:
                untouched += 1
                assert distance == 0.0
        assert untouched > 0

    def test_sgd_batched_measurement_matches_serial_fits(self):
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=15, step=0.2
        )
        spec = regression_spec(dim=2, teacher_scale=0.2, noise_sd=0.02)
        sample = draw_sample(spec, 5, seed=13)
        report = measure_argument_stability(
            algo, sample, spec, replacements=2, seed=17, use_anchors=False
        )
        from sgd_oracle import serial_sgd
        from stabilab.seeding import child_seed

        loss = algo.loss_for(sample.n)
        base = algo.fit(sample, seed=child_seed(17, "base-fit"))
        for i, code, distance, _gap in report.cells:
            z = draw_sample(spec, 1, child_seed(17, "replacement", i, code)).example(0)
            twin = sample.replaced(i, z)
            h = serial_sgd(twin, loss, algo.spec_for(sample.n, child_seed(17, i, code)))[-1]
            base_run = serial_sgd(
                sample, loss, algo.spec_for(sample.n, child_seed(17, i, code))
            )[-1]
            assert distance == pytest.approx(
                float(np.linalg.norm(base_run - h)), abs=1e-12
            )
        assert base.shape == (2,)

    def test_rejects_bad_requests(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 4, seed=0)
        with pytest.raises(ValueError):
            measure_argument_stability(algo, sample, spec, replacements=0)
        with pytest.raises(ValueError):
            measure_argument_stability(
                algo, draw_sample(regression_spec(dim=3), 4, seed=0), spec, replacements=1
            )


class TestReportSerialization:
    def make_report(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 5, seed=3)
        loss = algo.loss_for(5)
        return measure_argument_stability(
            algo, sample, spec, replacements=2, eval_loss=loss, seed=19
        )

    def test_json_round_trip(self):
        report = self.make_report()
        data = json.loads(report.to_json())
        assert data["alpha_hat"] == report.alpha_hat
        assert data["beta_hat"] == report.beta_hat
        assert data["n"] == 5
        assert data["trials"] == report.trials
        assert len(data["per_index"]) == 5

    def test_csv_round_trip(self, tmp_path):
        import csv

        report = self.make_report()
        path = tmp_path / "cells.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "replacement", "distance", "loss_gap"]
        assert len(rows) - 1 == report.trials
        codes = {int(row[1]) for row in rows[1:]}
        assert {ANCHOR_PLUS, ANCHOR_MINUS} <= codes
        for row, cell in zip(rows[1:], report.cells):
            assert int(row[0]) == cell[0]
            assert int(row[1]) == cell[1]
            assert float(row[2]) == pytest.approx(cell[2], abs=1e-15)
            assert float(row[3]) == pytest.approx(cell[3], abs=1e-15)
