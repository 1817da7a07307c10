"""Tests for closed-form stability coefficients and the replace-one probe."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import (
    DistributionSpec,
    LinearNoise,
    LogisticTeacher,
    PenaltySpec,
    Sample,
    SgdSpec,
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
from stabilab.seeding import child_seed
from stabilab.stability import (
    ANCHOR_MINUS,
    ANCHOR_PLUS,
    CELL_HEADER,
    adversarial_anchors,
    closed_form,
)
from closed_form_oracle import oracle_alpha, oracle_family
from ridge_oracle import serial_ridge
from sample_oracle import example, replaced


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
        # Reported: the p = 2 case, (1/2) sqrt(M/lam); exact: 1/2 at any M.
        assert lp_penalty_constant(2.0, 4.0, 1.0)["curvature"] == pytest.approx(1.0)
        assert lp_penalty_constant(2.0, 1.0, 1.0)["curvature"] == pytest.approx(0.5)
        algo = make_algorithm("ridge", "squared", 1.0, 0.5, lam=0.5)
        M = algo.loss_for(40).constants().bound
        coefficients = closed_form(algo, 40).coefficients
        assert coefficients["curvature_exact"] == 0.5
        assert coefficients["curvature_reported"] == lp_penalty_constant(2.0, M, 0.5)["curvature"]


class TestSgdAlpha:
    def test_strongly_convex_hand_value(self):
        spec = SgdSpec(
            regime="strongly_convex", steps=50, step=1.0, projection_radius=1.0
        )
        value = sgd_alpha(spec, 1.0, 1.0, 200, smoothness=1.0, gamma=0.5)
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_convex_hand_value(self):
        spec = SgdSpec(regime="convex", steps=100, step=0.01)
        value = sgd_alpha(spec, 1.0, 1.0, 100, smoothness=1.0)
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_nonconvex_hand_value(self):
        spec = SgdSpec(regime="nonconvex", steps=100, step_constant=1.0)
        value = sgd_alpha(spec, 1.0, 1.0, 101, smoothness=1.0)
        assert value == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-12)

    def test_zero_steps_gives_zero(self):
        spec = SgdSpec(regime="nonconvex", steps=0, step_constant=1.0)
        assert sgd_alpha(spec, 1.0, 1.0, 10, smoothness=1.0) == 0.0

    def test_convex_alpha_scales_with_total_step_mass(self):
        short = SgdSpec(regime="convex", steps=50, step=0.01)
        long = SgdSpec(regime="convex", steps=200, step=0.01)
        a = sgd_alpha(short, 1.0, 1.0, 100, smoothness=1.0)
        b = sgd_alpha(long, 1.0, 1.0, 100, smoothness=1.0)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_rejects_inconsistent_requests(self):
        convex = SgdSpec(regime="convex", steps=10, step=0.5)
        with pytest.raises(ValueError):
            sgd_alpha(convex, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            sgd_alpha(convex, 1.0, 1.0, 100, smoothness=5.0)
        noncon = SgdSpec(regime="nonconvex", steps=10, step_constant=0.5)
        with pytest.raises(ValueError):
            sgd_alpha(noncon, 1.0, 1.0, 100)
        with pytest.raises(ValueError):
            sgd_alpha(noncon, 1.0, 1.0, 1, smoothness=1.0)
        strong = SgdSpec(
            regime="strongly_convex", steps=10, step=0.5, projection_radius=1.0
        )
        with pytest.raises(ValueError):
            sgd_alpha(strong, 1.0, 1.0, 100, smoothness=1.0)


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
        curv = lp_penalty_constant(2.0, consts.bound, lam)["curvature"]
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
            algo.spec_for(n),
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


PRESETS = ("constant", "ridge", "rerm-lp", "sgd-nonconvex", "sgd-convex", "sgd-strongly-convex")


@st.composite
def preset_params(draw, name):
    """(loss kind, feature bound, label bound, preset parameters) for a preset."""
    kind = "squared" if name == "ridge" else draw(st.sampled_from(("hinge", "logistic", "squared")))
    bounds = st.floats(0.25, 4.0)
    lam = draw(st.floats(1e-3, 10.0))
    steps = draw(
        st.one_of(
            st.integers(0, 60),
            st.fixed_dictionaries(
                {"mode": st.just("multiple_of_n"), "factor": st.floats(0.5, 3.0)}
            ),
            st.fixed_dictionaries({"mode": st.just("n_squared"), "factor": st.floats(0.01, 0.1)}),
        )
    )
    step = st.one_of(st.floats(1e-3, 0.5), st.just("inverse_smoothness"))
    projection = st.one_of(st.none(), st.floats(0.5, 4.0))
    if name == "constant":
        params = {"vector": draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))}
    elif name == "ridge":
        params = {"lam": lam}
    elif name == "rerm-lp":
        params = {"p": draw(st.floats(1.01, 2.0)), "lam": lam}
    elif name == "sgd-nonconvex":
        c = st.one_of(st.floats(0.01, 2.0), st.just("inverse_smoothness"))
        params = {"steps": steps, "c": draw(c), "projection_radius": draw(projection)}
    elif name == "sgd-convex":
        params = {"steps": steps, "step": draw(step), "projection_radius": draw(projection)}
    else:
        params = {
            "steps": steps,
            "step": draw(st.one_of(step, st.just("inverse_gamma_n"))),
            "gamma": lam,
            "projection_radius": draw(st.floats(0.5, 4.0)),
        }
    return kind, draw(bounds), draw(bounds), params


def _outcome(compute):
    """compute()'s value, or the ValueError message it raises."""
    try:
        return compute()
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("name", PRESETS)
@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 400))
def test_closed_form_equals_the_two_chains_it_replaced(name, data, n):
    kind, feature_bound, label_bound, params = data.draw(preset_params(name))
    algo = make_algorithm(name, kind, feature_bound, label_bound, **params)

    def new():
        form = closed_form(algo, n)
        return form.alpha, form.family, form.constants, form.coefficients

    def old():
        alpha = oracle_alpha(algo, n)
        return (alpha, *oracle_family(algo, n, alpha))

    got, expected = _outcome(new), _outcome(old)
    # json with sort_keys spells every number out, so 1 and 1.0 differ.
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    if got[0] != "ValueError":
        assert theoretical_alpha(algo, n) == got[0]


def test_closed_form_of_every_preset():
    forms = {name: closed_form(preset_for(name), 50) for name in PRESETS}
    assert [forms[name].family for name in PRESETS] == [
        None,
        "rerm-fast-rate",
        "rerm-fast-rate",
        "sgd-fast-rate",
        "sgd-fast-rate",
        "sgd-fast-rate",
    ]
    assert sorted(forms["ridge"].coefficients) == [
        "alpha_exact",
        "alpha_reported",
        "curvature_exact",
        "curvature_reported",
    ]
    assert sorted(forms["rerm-lp"].coefficients) == ["curvature", "exponent"]
    assert forms["sgd-strongly-convex"].constants["gamma"] == 0.5
    assert forms["sgd-convex"].constants["gamma"] is None


def preset_for(name):
    steps = {"mode": "multiple_of_n", "factor": 2}
    params = {
        "constant": dict(vector=[0.25] * 3),
        "ridge": dict(lam=0.5),
        "rerm-lp": dict(p=1.5, lam=0.5),
        "sgd-nonconvex": dict(steps=steps, c="inverse_smoothness", projection_radius=2.0),
        "sgd-convex": dict(steps=steps, step="inverse_smoothness"),
        "sgd-strongly-convex": dict(
            steps=steps, step="inverse_smoothness", gamma=0.5, projection_radius=2.0
        ),
    }[name]
    return make_algorithm(name, "squared", 1.0, 1.0, **params)


# ---------------------------------------------------------------------------
# empirical measurement


class TestAnchors:
    def test_classification_anchor_geometry(self):
        spec = DistributionSpec(
            dim=2, feature_bound=2.0, teacher=[0.5, 0.0], mechanism=LogisticTeacher()
        )
        h = np.array([3.0, 4.0])
        codes, X, y = adversarial_anchors(h, spec)
        assert codes == [ANCHOR_PLUS, ANCHOR_MINUS]
        assert X.shape == (2, 2) and y.shape == (2,)
        plus, minus = X
        assert np.linalg.norm(plus) == pytest.approx(2.0)
        assert plus == pytest.approx(np.array([1.2, 1.6]))
        assert y[0] == -1.0
        assert minus == pytest.approx(-plus)
        assert y[1] == 1.0

    def test_regression_anchors_take_the_far_label(self):
        spec = regression_spec()
        _, _, y = adversarial_anchors(np.array([1.0, 0.0]), spec)
        assert y[0] == -1.0
        assert y[1] == 1.0

    def test_zero_fit_has_no_anchor_direction(self):
        codes, X, y = adversarial_anchors(np.zeros(2), regression_spec())
        assert codes == []
        assert X.shape == (0, 2) and y.shape == (0,)


class TestMeasurement:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("n", [25, 50])
    def test_rerm_lp_replace_one_domination(self, p, n):
        # The penalized-ERM counterpart of acceptance c01 (ridge): every
        # replace-one distance of the logistic rerm-lp preset stays under
        # its closed form.
        teacher = np.zeros(4)
        teacher[0] = 1.0
        spec = DistributionSpec(
            dim=4, feature_bound=1.0, teacher=teacher, mechanism=LogisticTeacher()
        )
        algo = make_algorithm("rerm-lp", "logistic", 1.0, p=p, lam=0.5)
        sample = draw_sample(spec, n, seed=child_seed(11, "rerm-sample", str(p), n))
        report = measure_argument_stability(
            algo, sample, spec, 4, seed=child_seed(11, "rerm-stab", str(p), n)
        )
        theory = closed_form(algo, n).alpha
        distances = report.cells["distance"]
        assert len(distances) == n * 6
        assert distances.max() <= theory + 1e-8

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
        # Each index's cells are the two draws, then the anchors.
        assert np.array_equal(report.cells["i"], [0, 0, 0, 0, 1, 1, 1, 1])
        codes = [0, 1, ANCHOR_PLUS, ANCHOR_MINUS]
        assert np.array_equal(report.cells["replacement"], codes * 2)
        anchors = {ANCHOR_PLUS: (np.array([1.0]), -1.0), ANCHOR_MINUS: (np.array([-1.0]), 1.0)}
        expected = []
        for i in range(2):
            for code in (ANCHOR_PLUS, ANCHOR_MINUS):
                twin = replaced(sample, i, *anchors[code])
                expected.append(abs(base - float(np.mean(twin.features[:, 0] * twin.labels)) / 2.0))
        at_anchors = report.cells["distance"][report.cells["replacement"] < 0]
        assert np.allclose(at_anchors, expected, rtol=0.0, atol=1e-12)
        assert max(expected) == pytest.approx(0.5, abs=1e-12)
        assert report.alpha_hat == pytest.approx(max(expected), abs=1e-12)

    def test_report_shape_and_invariants(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=3)
        sample = draw_sample(spec, 12, seed=4)
        loss = algo.loss_for(12)
        report = measure_argument_stability(algo, sample, spec, replacements=3, seed=7)
        assert report.n == 12
        assert len(report.per_index) == 12
        assert report.trials == len(report.cells) == 12 * 5
        by_index = report.cells["distance"].reshape(12, 5)
        maxima = [entry["max_over_replacements"] for entry in report.per_index]
        means = [entry["mean"] for entry in report.per_index]
        assert np.array_equal(maxima, by_index.max(axis=1))
        assert np.array_equal(means, by_index.mean(axis=1))
        assert all(0.0 <= mean <= top <= report.alpha_hat for mean, top in zip(means, maxima))
        consts = loss.constants()
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
        assert all(np.array_equal(a.cells[name], b.cells[name]) for name in CELL_HEADER)
        c = measure_argument_stability(algo, sample, spec, replacements=2, seed=6)
        assert not np.array_equal(a.cells["distance"], c.cells["distance"])

    def test_constant_algorithm_measures_zero(self):
        algo = make_algorithm("constant", "squared", 1.0, vector=[0.2, 0.1])
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 6, seed=2)
        report = measure_argument_stability(algo, sample, spec, replacements=2, seed=0)
        assert report.alpha_hat == 0.0
        assert np.array_equal(report.cells["distance"], np.zeros(report.trials))
        assert report.theory_alpha == 0.0

    def test_sgd_untouched_streams_give_exact_zero_distance(self):
        from stabilab.seeding import child_seed, substream

        # The label bound is the distribution's, which the anchors' labels reach.
        algo = make_algorithm("sgd-convex", "squared", 1.0, 1.0, steps=6, step=0.2)
        spec = regression_spec(dim=2, teacher_scale=0.2, noise_sd=0.02)
        n = 12
        sample = draw_sample(spec, n, seed=9)
        report = measure_argument_stability(algo, sample, spec, replacements=2, seed=11)
        # The i.i.d. cells and their fit seeds do not depend on the anchors.
        iid = report.cells[report.cells["replacement"] >= 0]
        assert len(iid) == n * 2
        untouched = [
            i not in substream(child_seed(11, i, code), "sgd-indices").integers(0, n, size=6)
            for i, code in zip(iid["i"].tolist(), iid["replacement"].tolist())
        ]
        assert any(untouched)
        assert np.array_equal(iid["distance"][untouched], np.zeros(sum(untouched)))

    def test_sgd_batched_measurement_matches_serial_fits(self):
        # The label bound is the distribution's, which the anchors' labels reach.
        algo = make_algorithm("sgd-convex", "squared", 1.0, 1.0, steps=15, step=0.2)
        spec = regression_spec(dim=2, teacher_scale=0.2, noise_sd=0.02)
        sample = draw_sample(spec, 5, seed=13)
        report = measure_argument_stability(algo, sample, spec, replacements=2, seed=17)
        from sgd_oracle import serial_sgd
        from stabilab.seeding import child_seed

        loss = algo.loss_for(sample.n)
        base = algo.fit(sample, seed=child_seed(17, "base-fit"))
        # Cell (i, k) replaces index i by row i * 2 + k of the record's pool.
        pool = draw_sample(spec, sample.n * 2, child_seed(17, "replacement"))
        iid = report.cells[report.cells["replacement"] >= 0]
        serial = []
        for i, code in zip(iid["i"].tolist(), iid["replacement"].tolist()):
            twin = replaced(sample, i, *example(pool, i * 2 + code))
            seed = child_seed(17, i, code)
            h = serial_sgd(twin, loss, algo.spec_for(sample.n), seed)[-1]
            base_run = serial_sgd(sample, loss, algo.spec_for(sample.n), seed)[-1]
            serial.append(float(np.linalg.norm(base_run - h)))
        assert np.allclose(iid["distance"], serial, rtol=0.0, atol=1e-12)
        assert base.shape == (2,)

    def test_a_closed_form_that_fails_at_n_is_recorded_as_none(self):
        # The nonconvex closed form needs n >= 2; the measurement runs at n = 1.
        algo = make_algorithm(
            "sgd-nonconvex", "squared", 1.0, 1.0, steps=4, c=0.2, projection_radius=1.0
        )
        spec = regression_spec(dim=2, teacher_scale=0.2, noise_sd=0.02)
        with pytest.raises(ValueError, match="n >= 2"):
            theoretical_alpha(algo, 1)
        report = measure_argument_stability(algo, draw_sample(spec, 1, seed=3), spec, 2, seed=5)
        assert report.theory_alpha is None
        assert report.trials == len(report.cells) == 4

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


def serial_grid(dist, anchors, seed):
    """The loss-gap grid of measure_argument_stability: 1024 draws, then the
    anchors, appended one row at a time."""
    grid = draw_sample(dist, 1024, child_seed(seed, "loss-grid"))
    _, anchor_x, anchor_y = anchors
    grid_X = np.concatenate([grid.features] + [x[None, :] for x in anchor_x])
    grid_y = np.concatenate([grid.labels] + [np.array([y]) for y in anchor_y])
    return grid_X, grid_y


def serial_gap(loss, a, b, grid_X, grid_y):
    """Largest loss difference of a and b over the grid, one values_raw call each."""
    va = loss.values_raw(a, grid_X, grid_y)
    return float(np.abs(va - loss.values_raw(b, grid_X, grid_y)).max())


def serial_ridge_report(algo, sample, dist, replacements, loss, seed):
    """measure_argument_stability for ridge, one replaced Sample and one fit per cell.

    Returns (cells, per_index, alpha_hat, beta_hat), ``cells`` one list per
    ``CELL_HEADER`` column and the loss gaps two-sided: the base fit's grid
    values are evaluated again for every cell.
    """
    base = serial_ridge(sample, algo.lam)
    anchors = adversarial_anchors(base, dist)
    grid_X, grid_y = serial_grid(dist, anchors, seed)
    # Cell (i, k) replaces index i by row i * replacements + k of the pool.
    pool = draw_sample(dist, sample.n * replacements, child_seed(seed, "replacement"))
    cells = {name: [] for name in CELL_HEADER}
    per_index = []
    for i in range(sample.n):
        draws = [(k, *example(pool, i * replacements + k)) for k in range(replacements)]
        distances = []
        for code, x, y in draws + list(zip(*anchors)):
            h = serial_ridge(replaced(sample, i, x, y), algo.lam)
            distances.append(float(np.linalg.norm(base - h)))
            cells["i"].append(i)
            cells["replacement"].append(code)
            cells["loss_gap"].append(serial_gap(loss, base, h, grid_X, grid_y))
        cells["distance"] += distances
        per_index.append(
            {"max_over_replacements": max(distances), "mean": float(np.mean(distances))}
        )
    return cells, per_index, max(cells["distance"]), max(cells["loss_gap"])


class _NanLabels:
    """A regression label mechanism that emits NaN labels."""

    noise_sd = 0.0

    def draw_raw(self, rng, out):
        pass

    def labels_from(self, margins, raw):
        return np.full(margins.shape, np.nan)

    def classification(self):
        return False


class TestRidgeMeasurementAgainstSerialFits:
    @pytest.mark.parametrize("n, d, lam, replacements", [(6, 2, 0.5, 3), (25, 4, 0.01, 2)])
    def test_report_equals_the_serial_reference(self, n, d, lam, replacements):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=lam)
        dist = regression_spec(dim=d)
        sample = draw_sample(dist, n, seed=n)
        loss = algo.loss_for(n)
        report = measure_argument_stability(algo, sample, dist, replacements, seed=23)
        cells, per_index, alpha_hat, beta_hat = serial_ridge_report(
            algo, sample, dist, replacements, loss, 23
        )
        # The twin fits are a rank-two update of the sample's Gram matrix, so
        # every distance and gap equals the serial one to rounding.
        def close(got, want):
            return np.abs(np.subtract(got, want)).max() <= 1e-13

        def values(per_index):
            return [list(entry.values()) for entry in per_index]

        assert report.trials == n * (replacements + 2)
        assert np.array_equal(report.cells["i"], cells["i"])
        assert np.array_equal(report.cells["replacement"], cells["replacement"])
        assert close(report.cells["distance"], cells["distance"])
        assert close(report.cells["loss_gap"], cells["loss_gap"])
        assert [list(entry) for entry in report.per_index] == [list(entry) for entry in per_index]
        assert close(values(report.per_index), values(per_index))
        assert close(report.alpha_hat, alpha_hat)
        assert close(report.beta_hat, beta_hat)

    def test_a_non_finite_replacement_draw_raises(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        dist = regression_spec(dim=2)
        sample = draw_sample(dist, 5, seed=1)
        broken = DistributionSpec(
            dim=2, feature_bound=1.0, teacher=dist.teacher, mechanism=_NanLabels()
        )
        with pytest.raises(ValueError, match="finite"):
            measure_argument_stability(algo, sample, broken, replacements=2, seed=3)

    def test_a_failed_certificate_names_its_cell(self, monkeypatch):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        dist = regression_spec(dim=2)
        sample = draw_sample(dist, 5, seed=1)
        solve = np.linalg.solve
        stacked = []

        def off_in_the_last_cell(a, b):
            # Leave the one-sample base fit alone; spoil the last cell of the
            # stacked solve and of its refinement pass.
            out = solve(a, b)
            if out.shape[0] > 1 or stacked:
                stacked.append(out.shape[0])
                out[-1] += 1.0
            return out

        monkeypatch.setattr(np.linalg, "solve", off_in_the_last_cell)
        # 5 indices x (2 draws + 2 anchors): the last cell is 19.
        with pytest.raises(RuntimeError, match="replace-one fits failed: .*cell 19 "):
            measure_argument_stability(algo, sample, dist, replacements=2, seed=3)
        assert stacked == [20, 1]


class TestStochasticGapsAgainstPerCellReference:
    def test_coupled_twins_match_one_hypothesis_evaluations(self, monkeypatch):
        # The ridge term gamma/2 enters every value, and HA differs per cell;
        # 20 indices x (2 draws + 2 anchors) = 80 cells span two gap blocks.
        algo = make_algorithm(
            "sgd-strongly-convex",
            "logistic",
            1.0,
            steps=40,
            step=0.05,
            gamma=0.5,
            projection_radius=1.0,
        )
        dist = DistributionSpec(
            dim=3,
            feature_bound=1.0,
            teacher=np.array([1.0, 0.0, 0.0]),
            mechanism=LogisticTeacher(),
        )
        sample = draw_sample(dist, 20, seed=5)
        loss = algo.loss_for(20)
        assert loss.ridge_term == 0.25
        twins = []
        fit_twins = algo.fit_twins

        def recorded(*args):
            twins.append(fit_twins(*args))
            return twins[-1]

        monkeypatch.setattr(algo, "fit_twins", recorded)
        report = measure_argument_stability(algo, sample, dist, 2, seed=29)
        (HA, HB), = twins
        assert report.trials == len(HA) == 80
        assert len({tuple(a) for a in HA}) > 1
        base = algo.fit(sample, seed=child_seed(29, "base-fit"))
        grid_X, grid_y = serial_grid(dist, adversarial_anchors(base, dist), 29)
        distances = [float(np.linalg.norm(a - b)) for a, b in zip(HA, HB)]
        gaps = [serial_gap(loss, a, b, grid_X, grid_y) for a, b in zip(HA, HB)]
        assert np.array_equal(report.cells["distance"], distances)
        assert np.array_equal(report.cells["loss_gap"], gaps)
        assert report.beta_hat == max(gaps)


class TestReportSerialization:
    def make_report(self):
        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        spec = regression_spec(dim=2)
        sample = draw_sample(spec, 5, seed=3)
        return measure_argument_stability(algo, sample, spec, replacements=2, seed=19)

    def test_json_round_trip(self):
        report = self.make_report()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["alpha_hat"] == report.alpha_hat
        assert data["beta_hat"] == report.beta_hat
        assert data["n"] == 5
        assert data["trials"] == report.trials
        assert len(data["per_index"]) == 5

    def test_csv_round_trip(self, tmp_path):
        import csv

        from stabilab.lab import ExperimentReport, write_report_files

        report = self.make_report()
        holder = ExperimentReport(
            config={}, records=(), coverage=None, rate=None, wall_time=0.0,
            version="test", stability_reports=(report,),
        )
        path = write_report_files(holder, tmp_path)["stability_n5"]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "replacement", "distance", "loss_gap"]
        assert len(rows) - 1 == report.trials
        assert {ANCHOR_PLUS, ANCHOR_MINUS} <= {int(row[1]) for row in rows[1:]}
        # Every column reads back exactly: Python's repr round-trips a float.
        for k, name in enumerate(CELL_HEADER):
            read = [(int if k < 2 else float)(row[k]) for row in rows[1:]]
            assert np.array_equal(read, report.cells[name])


class TestKeysPerRecord:
    """Stream keys derived per record and per replicate stack, counted at
    every module that holds ``stream_key`` or ``stream_keys`` (``child_seed``
    and ``child_seeds`` call them too), one path per key."""

    @pytest.fixture
    def key_paths(self, monkeypatch):
        from stabilab import datagen, learners, seeding

        paths = []
        real, real_keys = seeding.stream_key, seeding.stream_keys

        def counting(master_seed, *labels):
            paths.append(labels)
            return real(master_seed, *labels)

        def counting_keys(master_seed, *labels, items):
            items = list(items)
            paths.extend((*labels, item) for item in items)
            return real_keys(master_seed, *labels, items=items)

        for module in (seeding, datagen, learners):
            monkeypatch.setattr(module, "stream_key", counting)
        for module in (seeding, datagen):
            monkeypatch.setattr(module, "stream_keys", counting_keys)
        return paths

    @pytest.mark.parametrize("preset", ["ridge", "rerm-lp"])
    def test_the_replacement_pool_takes_a_fixed_number_of_keys(self, key_paths, preset):
        params = {"lam": 0.5} if preset == "ridge" else {"p": 1.5, "lam": 0.5}
        algo = make_algorithm(preset, "squared", 1.0, 1.0, **params)
        dist = regression_spec(dim=2)
        counts = []
        for n in (4, 40):
            sample = draw_sample(dist, n, seed=n)
            key_paths.clear()
            measure_argument_stability(algo, sample, dist, 3, seed=5)
            counts.append(len(key_paths))
            assert key_paths.count(("replacement",)) == 1
        assert counts[0] == counts[1]

    def test_a_deterministic_replicate_takes_one_key(self, key_paths):
        from stabilab.datagen import FitGroup, fit_plan

        algo = make_algorithm("ridge", "squared", 1.0, 1.0, lam=0.5)
        fit_plan(algo, regression_spec(dim=2), 6, [FitGroup("trial", 9, 5)])
        assert key_paths == [("trial-sample", j) for j in range(5)]

    def test_a_stochastic_replicate_hashes_its_sample_key_once(self, key_paths):
        from stabilab.datagen import FitGroup, fit_plan

        algo = make_algorithm("sgd-convex", "squared", 1.0, 0.5, steps=6, step=0.2)
        fit_plan(algo, regression_spec(dim=2), 6, [FitGroup("trial", 9, 5)])
        assert [p for p in key_paths if p[0] == "trial-sample"] == [
            ("trial-sample", j) for j in range(5)
        ]
        assert [p for p in key_paths if p[0] == "trial-fit"] == [("trial-fit", j) for j in range(5)]
        assert ("datagen",) not in key_paths

    @pytest.mark.parametrize(
        "algorithm",
        [
            {"preset": "ridge", "lam": 0.5},
            {"preset": "sgd-convex", "steps": 12, "step": "inverse_smoothness"},
        ],
        ids=["ridge", "sgd-convex"],
    )
    def test_a_record_hashes_each_stage_key_once(self, key_paths, algorithm):
        from stabilab.lab import ExperimentConfig, run_experiment

        raw = {
            "name": "keys",
            "algorithm": algorithm,
            "loss": "squared",
            "distribution": {
                "dim": 2,
                "feature_bound": 1.0,
                "teacher": [0.3, 0.0],
                "mechanism": {"type": "linear_noise", "noise_sd": 0.05},
            },
            "n_grid": [6],
            "replacements": 2,
            "trials": 4,
            "draws": 8,
            "center_replicates": 4,
            "tail": True,
            "seed": 3,
        }
        config = ExperimentConfig.from_dict(raw)
        key_paths.clear()
        run_experiment(config)
        for stage in ("sample", "stability", "center", "sigma", "tail", "record-fit"):
            assert key_paths.count((stage, 6)) == 1, stage
