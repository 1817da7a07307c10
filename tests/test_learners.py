"""Tests for samples, the three trainers, and the algorithm presets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import (
    ConvergenceError,
    DomainError,
    LabeledExample,
    NonFiniteIterateError,
    PenaltySpec,
    Sample,
    SgdSpec,
    empirical_risk,
    fit_rerm,
    fit_ridge,
    make_algorithm,
    make_loss,
    run_sgd,
)
from stabilab.learners import (
    ConstantAlgorithm,
    _check_examples,
    RidgeAlgorithm,
    SgdAlgorithm,
    check_sample_domain,
    sgd_twin_distances,
    solve_ridge_stack,
)
from ridge_oracle import serial_ridge
from sgd_oracle import serial_sgd


def unit_ball_sample(rng, n, d, feature_scale=1.0, label_bound=1.0):
    X = rng.standard_normal((n, d))
    X *= feature_scale * rng.uniform(0.1, 1.0, size=n)[:, None] / np.linalg.norm(X, axis=1)[:, None]
    y = rng.uniform(-label_bound, label_bound, size=n)
    return Sample(X, y)


# ---------------------------------------------------------------------------
# samples


class TestSample:
    def test_shape_and_accessors(self):
        s = Sample([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [1.0, -1.0, 0.5])
        assert s.n == 3
        assert s.dim == 2
        z = s.example(1)
        assert z.y == -1.0
        assert np.array_equal(z.x, [0.0, 2.0])

    def test_arrays_are_frozen(self):
        s = Sample([[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            s.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.labels[0] = 9.0

    def test_example_returns_a_copy(self):
        s = Sample([[1.0], [2.0]], [0.0, 0.0])
        z = s.example(0)
        z.x[0] = 99.0
        assert s.features[0, 0] == 1.0

    def test_replaced_swaps_one_row_and_keeps_original(self):
        s = Sample([[1.0], [1.0]], [1.0, 1.0])
        t = s.replaced(1, LabeledExample(np.array([3.0]), -2.0))
        assert np.array_equal(t.features, [[1.0], [3.0]])
        assert np.array_equal(t.labels, [1.0, -2.0])
        assert np.array_equal(s.features, [[1.0], [1.0]])
        assert np.array_equal(s.labels, [1.0, 1.0])

    @pytest.mark.parametrize(
        "features, labels",
        [
            ([1.0, 2.0], [1.0, 2.0]),
            ([[1.0], [2.0]], [1.0]),
            ([[1.0], [np.inf]], [1.0, 1.0]),
            ([[1.0], [2.0]], [1.0, np.nan]),
            (np.zeros((0, 2)), np.zeros(0)),
        ],
    )
    def test_rejects_bad_input(self, features, labels):
        with pytest.raises(ValueError):
            Sample(features, labels)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_range_checks(self, index):
        s = Sample([[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            s.example(index)
        with pytest.raises(ValueError):
            s.replaced(index, LabeledExample(np.array([0.0]), 0.0))

    def test_replaced_rejects_wrong_dimension(self):
        s = Sample([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            s.replaced(0, LabeledExample(np.array([1.0]), 0.0))


class TestDomainChecks:
    def test_feature_norm_limit(self):
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        check_sample_domain(loss, Sample([[1.0, 0.0]], [0.5]))
        with pytest.raises(DomainError):
            check_sample_domain(loss, Sample([[1.5, 0.0]], [0.5]))

    def test_classification_labels_must_be_signs(self):
        loss = make_loss("hinge", 1.0, 1.0)
        check_sample_domain(loss, Sample([[0.5]], [-1.0]))
        with pytest.raises(DomainError):
            check_sample_domain(loss, Sample([[0.5]], [0.5]))

    def test_regression_label_limit(self):
        loss = make_loss("squared", 1.0, 1.0, 0.5)
        check_sample_domain(loss, Sample([[0.5]], [0.5]))
        with pytest.raises(DomainError):
            check_sample_domain(loss, Sample([[0.5]], [0.75]))

    @pytest.mark.parametrize("kind", ["squared", "logistic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_fail_the_domain(self, kind, bad):
        loss = make_loss(kind, 1.0, 1.0, 1.0)
        X = np.array([[0.5, 0.0], [0.0, 0.5]])
        y = np.array([1.0, -1.0])
        _check_examples(loss, X, y)
        with pytest.raises(DomainError):
            _check_examples(loss, np.array([[bad, 0.0], [0.0, 0.5]]), y)
        with pytest.raises(DomainError):
            _check_examples(loss, X, np.array([1.0, bad]))

    def test_non_finite_twin_replacement_is_rejected_up_front(self):
        # With a [nan, 0] row the coupled run used to fail late with a
        # non-finite iterate, or, when the stream never drew the replaced
        # index past a zero iterate, report distance 0.
        sample = Sample([[0.5, 0.0], [0.0, 0.5], [0.3, 0.3], [0.1, 0.2]], [0.2, -0.1, 0.0, 0.3])
        for steps in (2, 10):
            algo = make_algorithm("sgd-convex", "squared", 1.0, 0.5, steps=steps, step=0.2)
            with pytest.raises(DomainError):
                sgd_twin_distances(
                    algo,
                    sample.features,
                    sample.labels,
                    np.array([0]),
                    np.array([[np.nan, 0.0]]),
                    np.array([0.1]),
                    [0],
                )

    def test_empirical_risk_hand_value(self):
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        sample = Sample([[1.0], [1.0]], [1.0, 0.0])
        assert empirical_risk(loss, [0.5], sample) == pytest.approx(0.25, abs=1e-15)

    def test_empirical_risk_checks_dimension(self):
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        sample = Sample([[1.0, 0.0]], [0.5])
        with pytest.raises(ValueError):
            empirical_risk(loss, [0.5], sample)


# ---------------------------------------------------------------------------
# ridge


class TestFitRidge:
    def test_one_dimensional_hand_value(self):
        s = Sample([[1.0], [1.0]], [1.0, 1.0])
        h = fit_ridge(s, 1.0)
        assert h == pytest.approx([0.5], abs=1e-12)
        t = s.replaced(1, LabeledExample(np.array([1.0]), 0.0))
        g = fit_ridge(t, 1.0)
        assert g == pytest.approx([0.25], abs=1e-12)
        assert abs(h[0] - g[0]) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_design_hand_value(self):
        s = Sample([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        h = fit_ridge(s, 0.5)
        assert h == pytest.approx([0.5, 1.0], abs=1e-12)

    def test_stationarity_of_solution(self):
        rng = np.random.default_rng(7)
        s = unit_ball_sample(rng, 40, 5)
        lam = 0.3
        h = fit_ridge(s, lam)
        X, y = s.features, s.labels
        grad = 2.0 * X.T @ (X @ h - y) / s.n + 2.0 * lam * h
        assert np.linalg.norm(grad) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_lam(self, lam):
        s = Sample([[1.0]], [1.0])
        with pytest.raises(ValueError):
            fit_ridge(s, lam)


# ---------------------------------------------------------------------------
# penalties and penalized ERM


class TestPenaltySpec:
    def test_value_and_gradient_hand_case(self):
        pen = PenaltySpec(p=1.5, lam=0.25)
        assert pen.value([4.0]) == pytest.approx(8.0, abs=1e-12)
        assert pen.gradient([4.0]) == pytest.approx([3.0], abs=1e-12)
        assert pen.gradient([-4.0]) == pytest.approx([-3.0], abs=1e-12)

    def test_prox_closed_form_at_p_two(self):
        pen = PenaltySpec(p=2.0, lam=0.5)
        v = np.array([1.0, -2.0, 0.0])
        out = pen.prox(v, 0.25)
        assert out == pytest.approx(v / 1.25, abs=1e-15)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_prox_satisfies_first_order_condition(self, p):
        rng = np.random.default_rng(3)
        pen = PenaltySpec(p=p, lam=0.7)
        v = rng.uniform(-2.0, 2.0, size=50)
        step = 0.4
        u = pen.prox(v, step)
        w = step * pen.lam
        resid = np.abs(u) + w * p * np.abs(u) ** (p - 1.0) - np.abs(v)
        assert np.max(np.abs(resid)) < 1e-10
        assert np.all(np.sign(u) == np.sign(v))

    def test_prox_of_zero_is_zero(self):
        pen = PenaltySpec(p=1.5, lam=1.0)
        assert np.array_equal(pen.prox(np.zeros(3), 0.1), np.zeros(3))

    @pytest.mark.parametrize("p, lam", [(1.0, 1.0), (2.5, 1.0), (0.5, 1.0), (1.5, 0.0), (1.5, -1.0), (1.5, np.inf)])
    def test_rejects_bad_parameters(self, p, lam):
        with pytest.raises(ValueError):
            PenaltySpec(p=p, lam=lam)


class TestFitRerm:
    def test_p_two_squared_matches_ridge(self):
        rng = np.random.default_rng(11)
        lam = 0.5
        label_bound = 0.5
        s = unit_ball_sample(rng, 30, 4, label_bound=label_bound)
        radius = math.sqrt(label_bound**2 / lam)
        loss = make_loss("squared", 1.0, radius, label_bound)
        h = fit_rerm(s, loss, PenaltySpec(p=2.0, lam=lam), tol=1e-10)
        g = fit_ridge(s, lam)
        assert np.linalg.norm(h - g) < 1e-6

    def test_logistic_solution_is_stationary(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 3))
        X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
        y = np.where(rng.uniform(size=25) < 0.5, 1.0, -1.0)
        s = Sample(X, y)
        pen = PenaltySpec(p=2.0, lam=0.3)
        radius = (math.log(2.0) / pen.lam) ** (1.0 / pen.p)
        loss = make_loss("logistic", 1.0, radius, 1.0)
        h = fit_rerm(s, loss, pen, tol=1e-9)
        grad = loss.risk_gradient_raw(h, X, y) + pen.lam * pen.gradient(h)
        assert np.linalg.norm(grad) < 1e-9

    def test_hinge_never_beats_its_own_minimizer(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 3))
        X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        s = Sample(X, y)
        pen = PenaltySpec(p=1.5, lam=0.4)
        radius = (1.0 / pen.lam) ** (1.0 / pen.p)
        loss = make_loss("hinge", 1.0, radius)
        h = fit_rerm(s, loss, pen, tol=1e-7)

        def objective(v):
            return empirical_risk(loss, v, s) + pen.lam * pen.value(v)

        assert np.linalg.norm(h) <= radius + 1e-9
        base = objective(h)
        assert base <= objective(np.zeros(3)) + 1e-12
        for _ in range(20):
            probe = h + 0.05 * rng.standard_normal(3)
            nrm = np.linalg.norm(probe)
            if nrm > radius:
                probe *= radius / nrm
            assert objective(probe) >= base - 1e-6

    def test_exhausting_max_iter_raises(self):
        rng = np.random.default_rng(2)
        s = unit_ball_sample(rng, 10, 3, label_bound=0.5)
        loss = make_loss("squared", 1.0, 1.0, 0.5)
        with pytest.raises(ConvergenceError):
            fit_rerm(s, loss, PenaltySpec(p=2.0, lam=0.5), tol=1e-14, max_iter=1)

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 100), (-1.0, 100), (1e-8, 0)])
    def test_rejects_bad_budgets(self, tol, max_iter):
        s = Sample([[0.5]], [0.5])
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fit_rerm(s, loss, PenaltySpec(p=2.0, lam=1.0), tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# SGD


class TestSgdSpec:
    def test_step_sizes_constant_and_decaying(self):
        convex = SgdSpec(regime="convex", steps=3, seed=0, step=0.1)
        assert np.array_equal(convex.step_sizes(), [0.1, 0.1, 0.1])
        noncon = SgdSpec(regime="nonconvex", steps=3, seed=0, step_constant=0.6)
        assert noncon.step_sizes() == pytest.approx([0.6, 0.3, 0.2], abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(regime="banana", steps=1, seed=0, step=0.1),
            dict(regime="convex", steps=-1, seed=0, step=0.1),
            dict(regime="convex", steps=1, seed=0),
            dict(regime="convex", steps=1, seed=0, step=0.0),
            dict(regime="nonconvex", steps=1, seed=0),
            dict(regime="nonconvex", steps=1, seed=0, step_constant=-0.5),
            dict(regime="strongly_convex", steps=1, seed=0, step=0.1),
            dict(regime="convex", steps=1, seed=0, step=0.1, projection_radius=0.0),
        ],
    )
    def test_rejects_bad_plans(self, kwargs):
        with pytest.raises(ValueError):
            SgdSpec(**kwargs)

    def test_convex_step_cap_uses_certified_smoothness(self):
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        SgdSpec(regime="convex", steps=1, seed=0, step=1.0).validate_against(loss)
        with pytest.raises(ValueError):
            SgdSpec(regime="convex", steps=1, seed=0, step=1.1).validate_against(loss)

    def test_strongly_convex_cap_and_curvature_requirement(self):
        plain = make_loss("squared", 1.0, 1.0, 1.0)
        curved = make_loss("squared", 1.0, 1.0, 1.0, ridge_term=0.5)
        spec = SgdSpec(
            regime="strongly_convex", steps=1, seed=0, step=0.25, projection_radius=1.0
        )
        spec.validate_against(curved)
        with pytest.raises(ValueError):
            SgdSpec(
                regime="strongly_convex", steps=1, seed=0, step=0.4, projection_radius=1.0
            ).validate_against(curved)
        with pytest.raises(ValueError):
            spec.validate_against(plain)

    def test_hinge_has_no_certified_smoothness(self):
        loss = make_loss("hinge", 1.0, 1.0)
        with pytest.raises(ValueError):
            SgdSpec(regime="convex", steps=1, seed=0, step=0.1).validate_against(loss)
        SgdSpec(regime="nonconvex", steps=1, seed=0, step_constant=0.5).validate_against(loss)


class TestRunSgd:
    def test_hand_iterates_on_one_example(self):
        sample = Sample([[1.0]], [1.0])
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        spec = SgdSpec(regime="convex", steps=2, seed=0, step=0.1)
        run = run_sgd(sample, loss, spec)
        assert run.trajectory == pytest.approx(
            np.array([[0.0], [0.2], [0.36]]), abs=1e-15
        )
        assert np.array_equal(run.final, run.trajectory[-1])

    def test_trajectory_shape_and_start(self):
        rng = np.random.default_rng(31)
        sample = unit_ball_sample(rng, 12, 4, label_bound=0.5)
        loss = make_loss("squared", 1.0, 2.0, 0.5)
        spec = SgdSpec(regime="convex", steps=25, seed=4, step=0.2)
        run = run_sgd(sample, loss, spec)
        assert run.trajectory.shape == (26, 4)
        assert np.array_equal(run.trajectory[0], np.zeros(4))

    def test_same_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(13)
        sample = unit_ball_sample(rng, 15, 3, label_bound=0.5)
        loss = make_loss("squared", 1.0, 2.0, 0.5)
        spec = SgdSpec(regime="convex", steps=40, seed=21, step=0.3)
        a = run_sgd(sample, loss, spec)
        b = run_sgd(sample, loss, spec)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_different_seeds_pick_different_paths(self):
        rng = np.random.default_rng(17)
        sample = unit_ball_sample(rng, 15, 3, label_bound=0.5)
        loss = make_loss("squared", 1.0, 2.0, 0.5)
        finals = [
            run_sgd(
                sample, loss, SgdSpec(regime="convex", steps=30, seed=s, step=0.3)
            ).final
            for s in range(4)
        ]
        distinct = {tuple(f) for f in finals}
        assert len(distinct) > 1

    def test_projection_keeps_every_iterate_inside_the_ball(self):
        rng = np.random.default_rng(23)
        sample = unit_ball_sample(rng, 10, 3, label_bound=1.0)
        loss = make_loss("squared", 1.0, 1.0, 1.0, ridge_term=0.5)
        spec = SgdSpec(
            regime="strongly_convex",
            steps=60,
            seed=2,
            step=0.25,
            projection_radius=0.05,
        )
        run = run_sgd(sample, loss, spec)
        norms = np.linalg.norm(run.trajectory, axis=1)
        assert np.all(norms <= 0.05 + 1e-12)


# ---------------------------------------------------------------------------
# presets


class TestPresets:
    def test_constant_algorithm_ignores_the_sample(self):
        algo = ConstantAlgorithm(np.array([0.5, -0.5]))
        out = algo.fit(Sample([[1.0, 0.0]], [1.0]))
        assert np.array_equal(out, [0.5, -0.5])
        out[0] = 99.0
        assert np.array_equal(algo.fit(Sample([[0.0, 1.0]], [-1.0])), [0.5, -0.5])

    @pytest.mark.parametrize("output", [np.zeros((2, 2)), np.zeros(0), np.array([np.nan])])
    def test_constant_algorithm_rejects_bad_output(self, output):
        with pytest.raises(ValueError):
            ConstantAlgorithm(output)

    def test_ridge_preset_matches_direct_solver(self):
        rng = np.random.default_rng(41)
        sample = unit_ball_sample(rng, 20, 3, label_bound=0.5)
        algo = RidgeAlgorithm(0.5, 1.0, 0.5)
        assert np.array_equal(algo.fit(sample), fit_ridge(sample, 0.5))
        assert algo.loss_for(20).radius == pytest.approx(math.sqrt(0.5**2 / 0.5))

    def test_rerm_preset_at_p_two_matches_ridge(self):
        rng = np.random.default_rng(43)
        sample = unit_ball_sample(rng, 20, 3, label_bound=0.5)
        algo = make_algorithm(
            "rerm-lp", "squared", 1.0, 0.5, p=2.0, lam=0.5, tol=1e-10
        )
        assert np.linalg.norm(algo.fit(sample) - fit_ridge(sample, 0.5)) < 1e-6

    def test_sgd_preset_schedule_resolution(self):
        algo = make_algorithm(
            "sgd-convex",
            "logistic",
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2.0},
            step="inverse_smoothness",
        )
        assert algo.steps_for(50) == 100
        assert algo.step_for(50) == pytest.approx(4.0)
        spec = algo.spec_for(50, seed=7)
        assert spec.steps == 100 and spec.seed == 7 and spec.regime == "convex"

    def test_sgd_n_squared_steps_policy(self):
        algo = make_algorithm(
            "sgd-convex",
            "logistic",
            1.0,
            steps={"mode": "n_squared", "factor": 0.5},
            step="inverse_smoothness",
        )
        assert algo.steps_for(10) == 50
        assert algo.spec_for(10, seed=0).steps == 50
        assert algo.steps_for(7) == 24  # round(24.5) rounds half to even
        default = make_algorithm("sgd-convex", "logistic", 1.0, steps="n_squared", step=0.1)
        assert default.steps_for(7) == 49

    def test_sgd_strongly_convex_preset_resolves_gamma_step(self):
        algo = make_algorithm(
            "sgd-strongly-convex",
            "logistic",
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2.0},
            step="inverse_gamma_n",
            gamma=1.0,
            projection_radius=1.0,
        )
        assert algo.step_for(100) == pytest.approx(0.01)
        loss = algo.loss_for(100)
        assert loss.constants().strong_convexity == pytest.approx(1.0)

    def test_sgd_unprojected_reach_covers_the_iterates(self):
        algo = make_algorithm(
            "sgd-nonconvex", "hinge", 1.0, steps=30, c=0.5
        )
        loss = algo.loss_for(8)
        reach = np.sum(0.5 / np.arange(1.0, 31.0))
        assert loss.radius == pytest.approx(reach)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 2))
        X /= np.maximum(np.linalg.norm(X, axis=1), 1.0)[:, None]
        sample = Sample(X, np.where(X[:, 0] > 0, 1.0, -1.0))
        h = algo.fit(sample, seed=5)
        assert np.linalg.norm(h) <= loss.radius + 1e-12

    def test_make_algorithm_validation(self):
        with pytest.raises(ValueError):
            make_algorithm("mystery", "squared", 1.0)
        with pytest.raises(ValueError):
            make_algorithm("ridge", "hinge", 1.0, lam=0.5)
        with pytest.raises(ValueError):
            make_algorithm("ridge", "squared", 1.0, lam=0.5, extra=1)
        with pytest.raises(KeyError):
            make_algorithm("ridge", "squared", 1.0)
        with pytest.raises(ValueError):
            make_algorithm("sgd-convex", "squared", 1.0, steps=10, step={"mode": "warp"})
        with pytest.raises(ValueError):
            make_algorithm(
                "sgd-convex", "squared", 1.0, steps=10, step={"mode": "constant"}
            )
        with pytest.raises(ValueError):
            make_algorithm(
                "sgd-strongly-convex", "squared", 1.0, steps=10, step=0.1, gamma=1.0
            )

    @pytest.mark.parametrize(
        "kind, policy",
        [
            ("steps", {"mode": "fixed", "factor": 10}),
            ("steps", {"mode": "multiple_of_n", "value": 2}),
            ("steps", {"mode": "n_squared", "value": 1}),
            ("step", {"mode": "constant", "factor": 0.1}),
            ("step", {"mode": "inverse_smoothness", "value": 0.1}),
            ("step", {"mode": "inverse_gamma_n", "factor": 1}),
            ("c", {"mode": "constant", "factor": 0.5}),
            ("c", {"mode": "inverse_smoothness", "factor": 0.5}),
        ],
    )
    def test_each_policy_mode_takes_only_its_own_key(self, kind, policy):
        params = {"steps": 10, "step": 0.1, "c": 0.5, "projection_radius": 1.0, "gamma": 1.0}
        params[kind] = policy
        preset = "sgd-nonconvex" if kind == "c" else "sgd-strongly-convex"
        if preset == "sgd-nonconvex":
            del params["step"], params["gamma"]
        else:
            del params["c"]
        with pytest.raises(ValueError, match="takes no keys"):
            make_algorithm(preset, "logistic", 1.0, **params)

    def test_policy_modes_need_their_key(self):
        with pytest.raises(ValueError, match="needs the keys \\['value'\\]"):
            make_algorithm("sgd-convex", "squared", 1.0, steps={"mode": "fixed"}, step=0.1)
        with pytest.raises(ValueError, match="needs the keys \\['factor'\\]"):
            make_algorithm(
                "sgd-convex", "squared", 1.0, steps={"mode": "multiple_of_n"}, step=0.1
            )
        algo = make_algorithm("sgd-convex", "squared", 1.0, steps={"mode": "n_squared"}, step=0.1)
        assert algo.steps_for(3) == 9
        with pytest.raises(ValueError, match="unknown steps policy mode"):
            make_algorithm("sgd-convex", "squared", 1.0, steps={"mode": ["fixed"]}, step=0.1)

    def test_policy_dictionaries_reject_unknown_keys(self):
        with pytest.raises(ValueError):
            SgdAlgorithm(
                "convex",
                "squared",
                1.0,
                steps={"mode": "fixed", "value": 10, "bonus": 1},
                step=0.1,
            )


# ---------------------------------------------------------------------------
# batched helpers


def stack(samples):
    """The (C, n, d) features and (C, n) labels of equal-size samples, for fit_many."""
    return np.stack([s.features for s in samples]), np.stack([s.labels for s in samples])


class TestBatchedHelpers:
    def test_fit_many_matches_single_runs_for_sgd(self):
        rng = np.random.default_rng(51)
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=40, step=0.2
        )
        samples = [unit_ball_sample(rng, 12, 3, label_bound=0.5) for _ in range(5)]
        seeds = [101, 102, 103, 104, 105]
        batch = algo.fit_many(*stack(samples), seeds)
        assert batch.shape == (5, 3)
        loss = algo.loss_for(12)
        for row, sample, seed in zip(batch, samples, seeds):
            single = serial_sgd(sample, loss, algo.spec_for(12, seed))[-1]
            assert np.linalg.norm(row - single) < 1e-12

    def test_every_sgd_entry_point_gives_the_same_bits(self):
        rng = np.random.default_rng(61)
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=40, step=0.2
        )
        loss = algo.loss_for(12)
        for pair in range(60):
            samples = [unit_ball_sample(rng, 12, 3, label_bound=0.5) for _ in range(2)]
            seeds = [1000 + 2 * pair, 1001 + 2 * pair]
            batch = algo.fit_many(*stack(samples), seeds)
            for row, sample, seed in zip(batch, samples, seeds):
                alone = algo.fit_many(*stack([sample]), [seed])[0]
                fitted = algo.fit(sample, seed=seed)
                run = run_sgd(sample, loss, algo.spec_for(12, seed)).final
                assert np.array_equal(row, alone)
                assert np.array_equal(row, fitted)
                assert np.array_equal(row, run)

    def test_batched_paths_check_the_certified_radius(self):
        rng = np.random.default_rng(67)
        n, d = 10, 3
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=30, step=0.2
        )
        # Certify a radius the iterates leave within a few steps.
        algo.loss_for = lambda n: make_loss("squared", 1.0, 1e-3, 0.5)
        samples = [unit_ball_sample(rng, n, d, label_bound=0.5) for _ in range(3)]
        with pytest.raises(DomainError):
            algo.fit_many(*stack(samples), [1, 2, 3])
        sample = samples[0]
        with pytest.raises(DomainError):
            sgd_twin_distances(
                algo,
                sample.features,
                sample.labels,
                np.array([0, 1]),
                sample.features[:2],
                sample.labels[:2],
                [4, 5],
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_iterates_raise(self):
        # Step 1 lands at norm 2e100, inside the radius; step 2 overflows.
        sample = Sample([[1.0, 0.0]], [1e-200])
        loss = make_loss("squared", 1.0, 1e150, 0.5)
        spec = SgdSpec(regime="nonconvex", steps=3, seed=3, step_constant=1e300)
        with pytest.raises(NonFiniteIterateError):
            run_sgd(sample, loss, spec)
        algo = make_algorithm("sgd-nonconvex", "squared", 1.0, 0.5, steps=3, c=1e300)
        algo.loss_for = lambda n: loss
        with pytest.raises(NonFiniteIterateError):
            algo.fit_many(*stack([sample, sample]), [4, 5])
        with pytest.raises(NonFiniteIterateError):
            sgd_twin_distances(
                algo,
                sample.features,
                sample.labels,
                np.array([0]),
                np.array([[0.0, 1.0]]),
                np.array([-1e-200]),
                [4],
            )

    def test_twin_replacements_are_checked_against_the_domain(self):
        rng = np.random.default_rng(71)
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=10, step=0.2
        )
        sample = unit_ball_sample(rng, 6, 2, label_bound=0.5)
        with pytest.raises(DomainError):
            sgd_twin_distances(
                algo,
                sample.features,
                sample.labels,
                np.array([0]),
                np.array([[2.0, 0.0]]),
                np.array([0.1]),
                [9],
            )

    def test_fit_many_matches_exact_solver_for_ridge(self):
        rng = np.random.default_rng(53)
        algo = make_algorithm("ridge", "squared", 1.0, 0.5, lam=0.5)
        samples = [unit_ball_sample(rng, 10, 2, label_bound=0.5) for _ in range(3)]
        batch = algo.fit_many(*stack(samples), [0, 1, 2])
        for row, sample in zip(batch, samples):
            assert np.array_equal(row, fit_ridge(sample, 0.5))

    @pytest.mark.parametrize("preset", ["ridge", "sgd-convex", "rerm-lp"])
    def test_fit_many_validates_its_stack(self, preset):
        algo = preset_for(preset, 0.5)
        X, y = stack([Sample([[0.5]], [0.25])])
        with pytest.raises(ValueError, match="one seed per sample"):
            algo.fit_many(X, y, [1, 2])
        with pytest.raises(ValueError, match="non-empty"):
            algo.fit_many(X[:0], y[:0], [])
        with pytest.raises(ValueError, match="non-empty"):
            algo.fit_many(X[0], y[0], [1])
        with pytest.raises(ValueError, match="matching the features"):
            algo.fit_many(X, y[:, :0], [1])

    def test_twin_distances_match_paired_single_runs(self):
        rng = np.random.default_rng(57)
        n, d, cells = 10, 3, 6
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=30, step=0.2
        )
        sample = unit_ball_sample(rng, n, d, label_bound=0.5)
        repl_i = rng.integers(0, n, size=cells)
        repl_x = rng.standard_normal((cells, d))
        repl_x /= np.maximum(np.linalg.norm(repl_x, axis=1), 1.0)[:, None]
        repl_y = rng.uniform(-0.5, 0.5, size=cells)
        seeds = [200 + c for c in range(cells)]
        dist = sgd_twin_distances(
            algo, sample.features, sample.labels, repl_i, repl_x, repl_y, seeds
        )
        assert dist.shape == (cells,)
        loss = algo.loss_for(n)
        for c in range(cells):
            spec = algo.spec_for(n, seeds[c])
            a = serial_sgd(sample, loss, spec)[-1]
            twin = sample.replaced(int(repl_i[c]), LabeledExample(repl_x[c], float(repl_y[c])))
            b = serial_sgd(twin, loss, spec)[-1]
            assert abs(dist[c] - np.linalg.norm(a - b)) < 1e-12

    def test_identical_replacement_gives_zero_distance(self):
        rng = np.random.default_rng(59)
        n, d = 8, 2
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=25, step=0.2
        )
        sample = unit_ball_sample(rng, n, d, label_bound=0.5)
        i = 3
        dist = sgd_twin_distances(
            algo,
            sample.features,
            sample.labels,
            np.array([i]),
            sample.features[i][None, :],
            np.array([sample.labels[i]]),
            [77],
        )
        assert dist[0] == 0.0


# ---------------------------------------------------------------------------
# the stacked ridge solve against its serial oracle


def replace_one_cells(rng, sample, cells, feature_scale=1.0, label_bound=1.0):
    """Random replace-one cells: indices (with repeats), replacement rows and labels."""
    index = rng.integers(0, sample.n, size=cells)
    repl_x = rng.standard_normal((cells, sample.dim))
    repl_x *= feature_scale / np.linalg.norm(repl_x, axis=1)[:, None]
    repl_y = rng.uniform(-label_bound, label_bound, size=cells)
    return index, repl_x, repl_y


class TestStackedRidge:
    @pytest.mark.parametrize(
        "n, d, lam", [(1, 3, 0.5), (12, 1, 1e-3), (40, 6, 0.1), (400, 8, 1e-4)]
    )
    def test_fit_many_rows_equal_the_serial_fits(self, n, d, lam):
        rng = np.random.default_rng(n + d)
        algo = RidgeAlgorithm(lam, 1.0, 1.0)
        samples = [unit_ball_sample(rng, n, d) for _ in range(5)]
        rows = algo.fit_many(*stack(samples), range(5))
        assert rows.shape == (5, d)
        for row, sample in zip(rows, samples):
            assert np.array_equal(row, fit_ridge(sample, lam))
            assert np.array_equal(row, serial_ridge(sample, lam))

    @pytest.mark.parametrize("n, d, lam", [(1, 2, 0.5), (25, 4, 1e-3), (400, 8, 0.05)])
    def test_fit_twins_rows_equal_fits_on_the_replaced_samples(self, n, d, lam):
        rng = np.random.default_rng(7 * n + d)
        algo = RidgeAlgorithm(lam, 1.0, 1.0)
        sample = unit_ball_sample(rng, n, d)
        index, repl_x, repl_y = replace_one_cells(rng, sample, 60)
        base = algo.fit(sample)
        HA, HB = algo.fit_twins(sample, index, repl_x, repl_y, None, base)
        assert HA.shape == HB.shape == (60, d)
        assert all(np.array_equal(row, base) for row in HA)
        for c, i in enumerate(index):
            replaced = sample.replaced(int(i), LabeledExample(repl_x[c], float(repl_y[c])))
            assert np.array_equal(HB[c], fit_ridge(replaced, lam))
            assert np.array_equal(HB[c], serial_ridge(replaced, lam))
        # The sample the cells were swapped into is left as it was.
        assert np.array_equal(algo.fit(sample), base)

    def test_refined_cells_match_the_serial_refinement(self):
        # Tiny lam and far-out replacements push residuals over 1e-14, so
        # the refinement pass runs for some cells and not for others.
        rng = np.random.default_rng(61)
        algo = RidgeAlgorithm(1e-9, 50.0, 1.0)
        sample = unit_ball_sample(rng, 6, 5)
        index, repl_x, repl_y = replace_one_cells(rng, sample, 40, feature_scale=50.0)
        _, HB = algo.fit_twins(sample, index, repl_x, repl_y, None, algo.fit(sample))
        for c, i in enumerate(index):
            replaced = sample.replaced(int(i), LabeledExample(repl_x[c], float(repl_y[c])))
            assert np.array_equal(HB[c], serial_ridge(replaced, 1e-9))

    def test_a_row_does_not_depend_on_the_other_cells(self):
        rng = np.random.default_rng(67)
        samples = [unit_ball_sample(rng, 15, 3) for _ in range(4)]
        algo = RidgeAlgorithm(0.2, 1.0, 1.0)
        together = algo.fit_many(*stack(samples), range(4))
        for k in range(4):
            assert np.array_equal(together[k], algo.fit_many(*stack(samples[k : k + 1]), [0])[0])

    def test_non_finite_replacements_raise(self):
        rng = np.random.default_rng(71)
        algo = RidgeAlgorithm(0.5, 1.0, 1.0)
        sample = unit_ball_sample(rng, 8, 2)
        index, repl_x, repl_y = replace_one_cells(rng, sample, 3)
        base = algo.fit(sample)
        bad_x = repl_x.copy()
        bad_x[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            algo.fit_twins(sample, index, bad_x, repl_y, None, base)
        bad_y = repl_y.copy()
        bad_y[2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            algo.fit_twins(sample, index, repl_x, bad_y, None, base)

    def test_fit_twins_validates_its_cells(self):
        rng = np.random.default_rng(73)
        algo = RidgeAlgorithm(0.5, 1.0, 1.0)
        sample = unit_ball_sample(rng, 8, 2)
        index, repl_x, repl_y = replace_one_cells(rng, sample, 3)
        base = algo.fit(sample)
        for bad_index in ([0, 8, 1], [0, -1, 1]):
            with pytest.raises(ValueError, match="indices"):
                algo.fit_twins(sample, bad_index, repl_x, repl_y, None, base)
        with pytest.raises(ValueError, match="one replacement"):
            algo.fit_twins(sample, index, repl_x[:, :1], repl_y, None, base)

    def test_a_failed_certificate_names_its_cell(self, monkeypatch):
        rng = np.random.default_rng(79)
        algo = RidgeAlgorithm(0.5, 1.0, 1.0)
        sample = unit_ball_sample(rng, 8, 2)
        index, repl_x, repl_y = replace_one_cells(rng, sample, 4)
        base = algo.fit(sample)
        solve = np.linalg.solve

        def off_in_the_last_cell(a, b):
            out = solve(a, b)
            out[-1] += 1.0
            return out

        monkeypatch.setattr(np.linalg, "solve", off_in_the_last_cell)
        with pytest.raises(ConvergenceError, match="cell 3 ") as caught:
            algo.fit_twins(sample, index, repl_x, repl_y, None, base)
        assert caught.value.achieved > 1e-10
        with pytest.raises(ConvergenceError, match="cell 0 "):
            fit_ridge(sample, 0.5)

    def test_certificate_checks_every_cell(self):
        A = np.stack([np.eye(2), np.eye(2)])
        b = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ConvergenceError, match="cell 1 "):
            solve_ridge_stack(A, b)
        assert np.array_equal(solve_ridge_stack(A[:1], b[:1]), [[1.0, 2.0]])


def preset_for(name: str, lam: float):
    """Each preset on the squared loss, its regularization (or gamma) set to lam."""
    steps = {"mode": "multiple_of_n", "factor": 2}
    params = {
        "constant": dict(vector=[0.25] * 3),
        "ridge": dict(lam=lam),
        "rerm-lp": dict(p=1.5, lam=lam, tol=1e-7),
        "sgd-nonconvex": dict(steps=steps, c="inverse_smoothness", projection_radius=2.0),
        "sgd-convex": dict(steps=steps, step="inverse_smoothness"),
        "sgd-strongly-convex": dict(
            steps=steps, step="inverse_smoothness", gamma=lam, projection_radius=2.0
        ),
    }[name]
    return make_algorithm(name, "squared", 1.0, 1.0, **params)


@pytest.mark.parametrize(
    "preset", ["constant", "ridge", "rerm-lp", "sgd-nonconvex", "sgd-convex", "sgd-strongly-convex"]
)
@settings(max_examples=12)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 5),
    lam=st.floats(1e-3, 10.0),
    count=st.integers(1, 4),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_every_preset_fit_many_matches_its_serial_fits(preset, n, d, lam, count, data_seed):
    rng = np.random.default_rng(data_seed)
    algo = preset_for(preset, lam)
    samples = [unit_ball_sample(rng, n, 3 if preset == "constant" else d) for _ in range(count)]
    seeds = [data_seed + k for k in range(count)]
    rows = algo.fit_many(*stack(samples), seeds)
    assert len(rows) == count
    for row, sample, seed in zip(rows, samples, seeds):
        assert np.array_equal(row, algo.fit(sample, seed=seed))
