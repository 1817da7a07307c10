"""Tests for samples, the three trainers, and the algorithm presets."""

import math

import numpy as np
import pytest

from stabilab import (
    ConvergenceError,
    DomainError,
    LabeledExample,
    NonFiniteIterateError,
    PenaltySpec,
    Sample,
    SgdSpec,
    empirical_risk,
    fit_batch,
    fit_rerm,
    fit_ridge,
    make_algorithm,
    make_loss,
    run_sgd,
    strongly_convex_objective,
)
from stabilab.learners import (
    ConstantAlgorithm,
    RidgeAlgorithm,
    SgdAlgorithm,
    check_sample_domain,
    sgd_twin_distances,
)
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

    def test_from_examples_round_trip(self):
        examples = [
            LabeledExample(np.array([1.0, 2.0]), 1.0),
            LabeledExample(np.array([3.0, 4.0]), -1.0),
        ]
        s = Sample.from_examples(examples)
        assert np.array_equal(s.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(s.labels, [1.0, -1.0])

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
        curved = strongly_convex_objective(plain, 0.5)
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
        loss = strongly_convex_objective(make_loss("squared", 1.0, 1.0, 1.0), 0.5)
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


class TestBatchedHelpers:
    def test_fit_batch_matches_single_runs_for_sgd(self):
        rng = np.random.default_rng(51)
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=40, step=0.2
        )
        samples = [unit_ball_sample(rng, 12, 3, label_bound=0.5) for _ in range(5)]
        seeds = [101, 102, 103, 104, 105]
        batch = fit_batch(algo, samples, seeds)
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
            batch = fit_batch(algo, samples, seeds)
            for row, sample, seed in zip(batch, samples, seeds):
                alone = fit_batch(algo, [sample], [seed])[0]
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
            fit_batch(algo, samples, [1, 2, 3])
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
            fit_batch(algo, [sample, sample], [4, 5])
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

    def test_fit_batch_matches_exact_solver_for_ridge(self):
        rng = np.random.default_rng(53)
        algo = make_algorithm("ridge", "squared", 1.0, 0.5, lam=0.5)
        samples = [unit_ball_sample(rng, 10, 2, label_bound=0.5) for _ in range(3)]
        batch = fit_batch(algo, samples, [0, 1, 2])
        for row, sample in zip(batch, samples):
            assert np.array_equal(row, fit_ridge(sample, 0.5))

    def test_fit_batch_validates_lengths(self):
        algo = make_algorithm("ridge", "squared", 1.0, 0.5, lam=0.5)
        sample = Sample([[0.5]], [0.25])
        with pytest.raises(ValueError):
            fit_batch(algo, [sample], [1, 2])
        with pytest.raises(ValueError):
            fit_batch(algo, [], [])

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
