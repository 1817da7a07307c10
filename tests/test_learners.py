"""Tests for samples, the three trainers, and the algorithm presets."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import (
    ConvergenceError,
    DomainError,
    NonFiniteIterateError,
    PenaltySpec,
    Sample,
    SgdSpec,
    fit_rerm,
    make_algorithm,
    make_loss,
)
from stabilab import learners, losses
from stabilab.learners import (
    ConstantAlgorithm,
    _sgd_kernel,
    LpRermAlgorithm,
    RidgeAlgorithm,
    SgdAlgorithm,
    solve_ridge_stack,
)
from rerm_oracle import bisection_prox, serial_rerm
from ridge_oracle import serial_ridge, serial_ridge_twin, twin_normal_equations
from sample_oracle import example, replaced
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
        x, y = example(s, 1)
        assert y == -1.0 and type(y) is float
        assert np.array_equal(x, [0.0, 2.0])

    def test_arrays_are_frozen(self):
        s = Sample([[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            s.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.labels[0] = 9.0

    def test_example_returns_a_copy(self):
        s = Sample([[1.0], [2.0]], [0.0, 0.0])
        x, _ = example(s, 0)
        x[0] = 99.0
        assert s.features[0, 0] == 1.0

    def test_replaced_swaps_one_row_and_keeps_original(self):
        s = Sample([[1.0], [1.0]], [1.0, 1.0])
        t = replaced(s, 1, np.array([3.0]), -2.0)
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
            example(s, index)
        with pytest.raises(ValueError):
            replaced(s, index, np.array([0.0]), 0.0)

    def test_replaced_rejects_wrong_dimension(self):
        s = Sample([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            replaced(s, 0, np.array([1.0]), 0.0)


class TestDomainChecks:
    def test_feature_norm_limit(self):
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        loss.check_examples([[1.0, 0.0]], [0.5])
        with pytest.raises(DomainError):
            loss.check_examples([[1.5, 0.0]], [0.5])

    def test_classification_labels_must_be_signs(self):
        loss = make_loss("hinge", 1.0, 1.0)
        loss.check_examples([[0.5]], [-1.0])
        with pytest.raises(DomainError):
            loss.check_examples([[0.5]], [0.5])

    def test_regression_label_limit(self):
        loss = make_loss("squared", 1.0, 1.0, 0.5)
        loss.check_examples([[0.5]], [0.5])
        with pytest.raises(DomainError):
            loss.check_examples([[0.5]], [0.75])

    @pytest.mark.parametrize("kind", ["squared", "logistic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_fail_the_domain(self, kind, bad):
        loss = make_loss(kind, 1.0, 1.0, 1.0)
        X = np.array([[0.5, 0.0], [0.0, 0.5]])
        y = np.array([1.0, -1.0])
        loss.check_examples(X, y)
        with pytest.raises(DomainError):
            loss.check_examples(np.array([[bad, 0.0], [0.0, 0.5]]), y)
        with pytest.raises(DomainError):
            loss.check_examples(X, np.array([1.0, bad]))

    def test_feature_norms_are_checked_a_block_at_a_time(self, monkeypatch):
        # Three rows of d = 2 per block: the longest row sits in the last of
        # three blocks, and the message names the largest norm of them all.
        monkeypatch.setattr(losses, "_BLOCK_FLOATS", 6)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        X, y = np.zeros((2, 4, 2)), np.zeros((2, 4))
        X[..., 0] = 0.5
        loss.check_examples(X, y)
        X[0, 1, 0], X[1, 3, 1] = 1.5, 2.0
        with pytest.raises(DomainError, match="feature norm 2.06155 exceeds bound 1"):
            loss.check_examples(X, y)
        X[0, 1, 0], X[1, 3, 1] = 0.5, np.nan
        with pytest.raises(DomainError):
            loss.check_examples(X, y)

    def test_non_finite_twin_replacement_is_rejected_up_front(self):
        # With a [nan, 0] row the coupled run used to fail late with a
        # non-finite iterate, or, when the stream never drew the replaced
        # index past a zero iterate, report distance 0.
        sample = Sample([[0.5, 0.0], [0.0, 0.5], [0.3, 0.3], [0.1, 0.2]], [0.2, -0.1, 0.0, 0.3])
        for steps in (2, 10):
            algo = make_algorithm("sgd-convex", "squared", 1.0, 0.5, steps=steps, step=0.2)
            with pytest.raises(DomainError):
                twin_distances(
                    algo,
                    sample,
                    np.array([0]),
                    np.array([[np.nan, 0.0]]),
                    np.array([0.1]),
                    [0],
                )


# ---------------------------------------------------------------------------
# ridge


class TestFitRidge:
    def test_one_dimensional_hand_value(self):
        s = Sample([[1.0], [1.0]], [1.0, 1.0])
        h = RidgeAlgorithm(1.0, 1.0, 1.0).fit(s)
        assert h == pytest.approx([0.5], abs=1e-12)
        t = replaced(s, 1, np.array([1.0]), 0.0)
        g = RidgeAlgorithm(1.0, 1.0, 1.0).fit(t)
        assert g == pytest.approx([0.25], abs=1e-12)
        assert abs(h[0] - g[0]) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_design_hand_value(self):
        s = Sample([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        h = RidgeAlgorithm(0.5, 1.0, 2.0).fit(s)
        assert h == pytest.approx([0.5, 1.0], abs=1e-12)

    def test_stationarity_of_solution(self):
        rng = np.random.default_rng(7)
        s = unit_ball_sample(rng, 40, 5)
        lam = 0.3
        h = RidgeAlgorithm(lam, 1.0, 1.0).fit(s)
        X, y = s.features, s.labels
        grad = 2.0 * X.T @ (X @ h - y) / s.n + 2.0 * lam * h
        assert np.linalg.norm(grad) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            RidgeAlgorithm(lam, 1.0, 1.0)


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

    @pytest.mark.parametrize("p", [1.5, 1.2, 1.7])
    def test_prox_matches_the_bisection_oracle(self, p):
        # 2,000 random (v, w) cases; at p = 3/2 w reaches 1e6.
        rng = np.random.default_rng(int(10 * p))
        pen = PenaltySpec(p=p, lam=1.0)
        v = rng.uniform(-5.0, 5.0, size=2000) * 10.0 ** rng.uniform(-3.0, 0.0, size=2000)
        steps = 10.0 ** rng.uniform(-4.0, 6.0 if p == 1.5 else 3.0, size=2000)
        # One bisection over every case at once: each stops no earlier than alone.
        oracle = bisection_prox(pen, v, steps)
        for vk, step, expected in zip(v, steps, oracle):
            u = pen.prox(np.array([vk, -vk, 0.0]), step)
            assert abs(u[0] - expected) <= 5e-13
            assert u[1] == -u[0] and u[2] == 0.0

    def test_prox_at_three_halves_does_not_cancel_for_large_w(self):
        # u + 1.5 w sqrt(u) = |v| to relative 1e-13; the textbook root
        # (sqrt(2.25 w^2 + 4|v|) - 1.5 w) / 2 misses it by up to 1e-3 here.
        rng = np.random.default_rng(17)
        pen = PenaltySpec(p=1.5, lam=1.0)
        v = rng.uniform(-5.0, 5.0, size=500)
        for w in (1e3, 1e5, 1e6):
            u = np.abs(pen.prox(v, w))
            resid = u + 1.5 * w * np.sqrt(u) - np.abs(v)
            assert np.all(np.abs(resid) <= 1e-13 * np.abs(v))

    @pytest.mark.parametrize("p", [1.5, 2.0, 1.3])
    def test_prox_of_a_stack_equals_the_prox_of_each_row(self, p):
        rng = np.random.default_rng(19)
        pen = PenaltySpec(p=p, lam=0.7)
        V = rng.standard_normal((9, 5)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(9, 1))
        V[2] = 0.0
        stacked = pen.prox(V, 0.4)
        for row, v in zip(stacked, V):
            assert np.array_equal(row, pen.prox(v.copy(), 0.4))

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
        pen = PenaltySpec(p=2.0, lam=lam)
        h = fit_rerm(s.features[None], s.labels[None], loss, pen, tol=1e-10)[0]
        g = serial_ridge(s, lam)
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
        h = fit_rerm(s.features[None], s.labels[None], loss, pen, tol=1e-9)[0]
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
        h = fit_rerm(s.features[None], s.labels[None], loss, pen, tol=1e-7)[0]

        def objective(v):
            return float(loss.values_raw(v, X, y).mean()) + pen.lam * pen.value(v)

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
        pen = PenaltySpec(p=2.0, lam=0.5)
        with pytest.raises(ConvergenceError):
            fit_rerm(s.features[None], s.labels[None], loss, pen, tol=1e-14, max_iter=1)[0]

    def test_a_ridge_term_loss_matches_the_serial_oracle(self):
        rng = np.random.default_rng(6)
        loss = make_loss("logistic", 1.0, 2.0, ridge_term=0.1)
        pen = PenaltySpec(p=1.5, lam=0.2)
        X = rng.standard_normal((5, 15, 3))
        X /= np.maximum(np.linalg.norm(X, axis=2), 1.0)[..., None]
        y = np.where(rng.uniform(size=(5, 15)) < 0.5, -1.0, 1.0)
        rows = fit_rerm(X, y, loss, pen, tol=1e-9)
        for row, Xc, yc in zip(rows, X, y):
            assert np.array_equal(row, serial_rerm(Sample(Xc, yc), loss, pen, 1e-9, 50000))

    def test_a_row_that_exhausts_max_iter_raises(self):
        # Row 0 (all labels zero) stops at h = 0 after one step; row 1 needs more.
        rng = np.random.default_rng(4)
        loss = make_loss("squared", 1.0, 1.0, 0.5)
        X = np.stack([unit_ball_sample(rng, 10, 3).features] * 2)
        y = np.stack([np.zeros(10), rng.uniform(-0.5, 0.5, size=10)])
        pen = PenaltySpec(p=1.5, lam=0.5)
        assert np.array_equal(fit_rerm(X[:1], y[:1], loss, pen, max_iter=1), [[0.0, 0.0, 0.0]])
        with pytest.raises(ConvergenceError, match="row 1 "):
            fit_rerm(X, y, loss, pen, max_iter=2)

    def test_a_failing_row_behind_a_held_stopped_row_is_named(self):
        # The zero-label row stops at h = 0 after one step while two of three
        # rows still run, so it stays in the block uncompacted; the error
        # still names the first running row by its place in the stack.
        rng = np.random.default_rng(4)
        loss = make_loss("squared", 1.0, 1.0, 0.5)
        X = np.stack([unit_ball_sample(rng, 10, 3).features] * 3)
        y = np.stack([rng.uniform(-0.5, 0.5, size=10) for _ in range(3)])
        pen = PenaltySpec(p=1.5, lam=0.5)
        for stopper, named in ((0, 1), (1, 0)):
            held = y.copy()
            held[stopper] = 0.0
            with pytest.raises(ConvergenceError, match=f"row {named} "):
                fit_rerm(X, held, loss, pen, max_iter=2)

    @pytest.mark.parametrize("kind", ["squared", "hinge"])
    def test_rows_held_after_stopping_equal_their_lone_fits(self, kind):
        # Row 1 stops first (at h = 0: zero labels, or for the hinge mirrored
        # features, whose subgradients at 0 cancel), then the others one by
        # one; each is stored when it stops, whether or not it is compacted.
        rng = np.random.default_rng(9)
        loss = make_loss(kind, 1.0, 1.0, 0.5 if kind == "squared" else 1.0)
        pen = PenaltySpec(p=1.5, lam=0.3)
        X = np.stack([unit_ball_sample(rng, 12, 3).features for _ in range(5)])
        if kind == "squared":
            y = rng.uniform(-0.5, 0.5, size=(5, 12))
            y[1] = 0.0
        else:
            y = np.where(rng.uniform(size=(5, 12)) < 0.5, -1.0, 1.0)
            X[1, 6:], y[1] = -X[1, :6], 1.0
        rows = fit_rerm(X, y, loss, pen, tol=1e-9)
        assert np.array_equal(rows[1], np.zeros(3))
        for c, row in enumerate(rows):
            assert np.array_equal(row, fit_rerm(X[c, None], y[c, None], loss, pen, tol=1e-9)[0])

    def test_a_failing_row_past_the_first_block_is_named_by_its_cell(self, monkeypatch):
        # Every cell's labels are 0, so it stops at h = 0 after one step,
        # except cell 35 (the fourth row of the preset's second block).
        calls = rerm_blocks(monkeypatch, 32, 10, 3)
        rng = np.random.default_rng(8)
        algo = make_algorithm("rerm-lp", "squared", 1.0, 0.5, p=1.5, lam=0.5, max_iter=2)
        X = np.stack([unit_ball_sample(rng, 10, 3).features] * 40)
        y = np.zeros((40, 10))
        y[35] = 0.4
        with pytest.raises(ConvergenceError, match=r"in row 35 \("):
            algo.fit_many(X, y, range(40))
        assert calls == [32, 8]
        calls.clear()
        index = np.arange(40) % 10
        repl_y = np.where(np.arange(40) == 35, 0.4, 0.0)
        with pytest.raises(ConvergenceError, match=r"in row 35 \("):
            algo.fit_twins(Sample(X[0], y[0]), index, X[0, index], repl_y, None, None)
        assert calls == [32, 8]

    @pytest.mark.parametrize(
        "tol, max_iter",
        [(0.0, 100), (-1.0, 100), (1e-8, 0), (np.nan, 100), (1e-8, 2.9), (1e-8, True)],
    )
    def test_rejects_bad_budgets(self, tol, max_iter):
        s = Sample([[0.5]], [0.5])
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        pen = PenaltySpec(p=2.0, lam=1.0)
        with pytest.raises(ValueError):
            fit_rerm(s.features[None], s.labels[None], loss, pen, tol=tol, max_iter=max_iter)[0]


def rerm_blocks(monkeypatch, rows, n, d) -> list:
    """Size the rerm-lp preset's blocks to ``rows`` rows of (n, d) samples,
    or leave them unbounded when ``rows`` is None; returns the list that
    each :func:`fit_rerm` call appends its row count to."""
    monkeypatch.setattr(learners, "_BLOCK_FLOATS", (rows or 1 << 40) * n * d)
    calls = []

    def counted(features, *args):
        calls.append(len(features))
        return fit_rerm(features, *args)

    monkeypatch.setattr(learners, "fit_rerm", counted)
    return calls


# ---------------------------------------------------------------------------
# SGD


class TestSgdSpec:
    def test_step_sizes_constant_and_decaying(self):
        convex = SgdSpec(regime="convex", steps=3, step=0.1)
        assert np.array_equal(convex.step_sizes(), [0.1, 0.1, 0.1])
        noncon = SgdSpec(regime="nonconvex", steps=3, step_constant=0.6)
        assert noncon.step_sizes() == pytest.approx([0.6, 0.3, 0.2], abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(regime="banana", steps=1, step=0.1),
            dict(regime="convex", steps=-1, step=0.1),
            dict(regime="convex", steps=1),
            dict(regime="convex", steps=1, step=0.0),
            dict(regime="nonconvex", steps=1),
            dict(regime="nonconvex", steps=1, step_constant=-0.5),
            dict(regime="strongly_convex", steps=1, step=0.1),
            dict(regime="convex", steps=1, step=0.1, projection_radius=0.0),
        ],
    )
    def test_rejects_bad_plans(self, kwargs):
        with pytest.raises(ValueError):
            SgdSpec(**kwargs)

    def test_convex_step_cap_uses_certified_smoothness(self):
        # The squared loss on unit features certifies s = 2: the cap 2/s is 1.
        def convex(step):
            return make_algorithm("sgd-convex", "squared", 1.0, 1.0, steps=1, step=step)

        assert convex(1.0).spec_for(4).step == 1.0
        with pytest.raises(ValueError, match="exceeds the convex cap"):
            convex(1.1).spec_for(4)

    def test_strongly_convex_cap_and_curvature_requirement(self):
        # gamma = 1 adds a ridge term 1/2, so s = 3 and the cap 1/s is 1/3.
        def strongly_convex(step, gamma=1.0):
            return make_algorithm(
                "sgd-strongly-convex",
                "squared",
                1.0,
                1.0,
                steps=1,
                step=step,
                gamma=gamma,
                projection_radius=1.0,
            )

        assert strongly_convex(0.25).spec_for(4).step == 0.25
        with pytest.raises(ValueError, match="exceeds the strongly_convex cap"):
            strongly_convex(0.4).spec_for(4)
        with pytest.raises(ValueError, match="gamma > 0"):
            strongly_convex(0.25, gamma=0.0)

    def test_hinge_has_no_certified_smoothness(self):
        convex = make_algorithm("sgd-convex", "hinge", 1.0, steps=1, step=0.1)
        with pytest.raises(ValueError, match="requires a certified smoothness"):
            convex.spec_for(4)
        make_algorithm("sgd-nonconvex", "hinge", 1.0, steps=1, c=0.5).spec_for(4)


def sgd_iterates(sample, seed, steps, label_bound=1.0, preset="sgd-convex", **params):
    """h_0 .. h_T of one seeded run on the squared loss: h_t is the fit of the
    preset cut at t steps, whose index stream is the T-step stream's first t."""
    fits = [
        make_algorithm(preset, "squared", 1.0, label_bound, steps=t, **params).fit(sample, seed)
        for t in range(steps + 1)
    ]
    return np.array(fits)


class TestRunSgd:
    def test_hand_iterates_on_one_example(self):
        sample = Sample([[1.0]], [1.0])
        iterates = sgd_iterates(sample, 0, 2, step=0.1)
        assert iterates == pytest.approx(np.array([[0.0], [0.2], [0.36]]), abs=1e-15)
        loss = make_loss("squared", 1.0, 1.0, 1.0)
        spec = SgdSpec(regime="convex", steps=2, step=0.1)
        assert iterates == pytest.approx(serial_sgd(sample, loss, spec, 0), abs=1e-15)

    def test_same_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(13)
        sample = unit_ball_sample(rng, 15, 3, label_bound=0.5)
        a = sgd_iterates(sample, 21, 40, 0.5, step=0.3)
        b = sgd_iterates(sample, 21, 40, 0.5, step=0.3)
        assert np.array_equal(a, b)
        loss = make_loss("squared", 1.0, 2.0, 0.5)
        spec = SgdSpec(regime="convex", steps=40, step=0.3)
        assert np.abs(a - serial_sgd(sample, loss, spec, 21)).max() < 1e-12

    def test_different_seeds_pick_different_paths(self):
        rng = np.random.default_rng(17)
        sample = unit_ball_sample(rng, 15, 3, label_bound=0.5)
        algo = make_algorithm("sgd-convex", "squared", 1.0, 0.5, steps=30, step=0.3)
        finals = [algo.fit(sample, seed=s) for s in range(4)]
        distinct = {tuple(f) for f in finals}
        assert len(distinct) > 1

    def test_projection_keeps_every_iterate_inside_the_ball(self):
        rng = np.random.default_rng(23)
        sample = unit_ball_sample(rng, 10, 3, label_bound=1.0)
        iterates = sgd_iterates(
            sample,
            2,
            60,
            preset="sgd-strongly-convex",
            step=0.25,
            gamma=1.0,
            projection_radius=0.05,
        )
        norms = np.linalg.norm(iterates, axis=1)
        assert np.all(norms <= 0.05 + 1e-12)


# ---------------------------------------------------------------------------
# presets


class TestPresets:
    def test_constant_algorithm_ignores_the_sample(self):
        algo = ConstantAlgorithm(np.array([0.5, -0.5]), make_loss("squared", 1.0, 1.0, 1.0))
        out = algo.fit(Sample([[1.0, 0.0]], [1.0]))
        assert np.array_equal(out, [0.5, -0.5])
        out[0] = 99.0
        assert np.array_equal(algo.fit(Sample([[0.0, 1.0]], [-1.0])), [0.5, -0.5])

    @pytest.mark.parametrize("output", [np.zeros((2, 2)), np.zeros(0), np.array([np.nan])])
    def test_constant_algorithm_rejects_bad_output(self, output):
        with pytest.raises(ValueError):
            ConstantAlgorithm(output, make_loss("squared", 1.0, 1.0, 1.0))

    def test_ridge_preset_matches_direct_solver(self):
        rng = np.random.default_rng(41)
        sample = unit_ball_sample(rng, 20, 3, label_bound=0.5)
        algo = RidgeAlgorithm(0.5, 1.0, 0.5)
        assert np.array_equal(algo.fit(sample), serial_ridge(sample, 0.5))
        assert algo.loss_for(20).radius == pytest.approx(math.sqrt(0.5**2 / 0.5))

    def test_rerm_preset_at_p_two_matches_ridge(self):
        rng = np.random.default_rng(43)
        sample = unit_ball_sample(rng, 20, 3, label_bound=0.5)
        algo = make_algorithm(
            "rerm-lp", "squared", 1.0, 0.5, p=2.0, lam=0.5, tol=1e-10
        )
        assert np.linalg.norm(algo.fit(sample) - serial_ridge(sample, 0.5)) < 1e-6

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(tol=-1.0), "tol must be positive and finite"),
            (dict(tol=0.0), "tol must be positive and finite"),
            (dict(tol=np.nan), "tol must be positive and finite"),
            (dict(tol=np.inf), "tol must be positive and finite"),
            (dict(max_iter=0), "max_iter must be >= 1"),
        ],
    )
    def test_rerm_preset_checks_its_solver_settings_when_built(self, settings, message):
        with pytest.raises(ValueError, match=message):
            make_algorithm("rerm-lp", "squared", 1.0, 1.0, p=1.5, lam=0.5, **settings)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_algorithm("rerm-lp", "squared", 1.0, 1.0, p=1.5, lam=0.5, max_iter=2.9),
            lambda: make_algorithm("sgd-convex", "squared", 1.0, 1.0, steps=10.7, step=0.2),
            lambda: make_algorithm(
                "sgd-convex", "squared", 1.0, 1.0, steps={"mode": "fixed", "value": 10.7}, step=0.2
            ),
            lambda: make_algorithm(
                "sgd-convex", "squared", 1.0, 1.0, steps={"mode": "fixed", "value": True}, step=0.2
            ),
            lambda: SgdSpec("nonconvex", 10.7, step_constant=1.0),
        ],
        ids=["rerm-max-iter", "sgd-steps", "sgd-fixed-steps", "sgd-bool-steps", "spec-steps"],
    )
    def test_counts_reject_values_they_would_truncate(self, build):
        with pytest.raises(ValueError, match="(max_iter|steps) must be an integer"):
            build()

    def test_integral_float_counts_are_kept_as_ints(self):
        rerm = make_algorithm("rerm-lp", "squared", 1.0, 1.0, p=1.5, lam=0.5, max_iter=50.0)
        assert rerm.max_iter == 50 and type(rerm.max_iter) is int
        sgd = make_algorithm("sgd-convex", "squared", 1.0, 1.0, steps=10.0, step=0.2)
        assert sgd.spec_for(7).steps == 10 and type(sgd.spec_for(7).steps) is int
        spec = SgdSpec("nonconvex", 10.0, step_constant=1.0)
        assert spec.steps == 10 and type(spec.steps) is int
        assert len(spec.step_sizes()) == 10

    def test_sgd_preset_schedule_resolution(self):
        algo = make_algorithm(
            "sgd-convex",
            "logistic",
            1.0,
            steps={"mode": "multiple_of_n", "factor": 2.0},
            step="inverse_smoothness",
        )
        spec = algo.spec_for(50)
        assert spec.steps == 100 and spec.regime == "convex"
        assert spec.step == pytest.approx(4.0)

    def test_sgd_n_squared_steps_policy(self):
        algo = make_algorithm(
            "sgd-convex",
            "logistic",
            1.0,
            steps={"mode": "n_squared", "factor": 0.5},
            step="inverse_smoothness",
        )
        assert algo.spec_for(10).steps == 50
        assert algo.spec_for(7).steps == 24  # round(24.5) rounds half to even
        default = make_algorithm("sgd-convex", "logistic", 1.0, steps="n_squared", step=0.1)
        assert default.spec_for(7).steps == 49

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
        assert algo.spec_for(100).step == pytest.approx(0.01)
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
        with pytest.raises(ValueError, match="ridge algorithm needs the keys \\['lam'\\]"):
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
        extra = sorted(set(policy) - {"mode"})
        message = f"unknown {policy['mode']} {kind} policy keys: {extra}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_algorithm(preset, "logistic", 1.0, **params)

    def test_policy_modes_need_their_key(self):
        with pytest.raises(ValueError, match="needs the keys \\['value'\\]"):
            make_algorithm("sgd-convex", "squared", 1.0, steps={"mode": "fixed"}, step=0.1)
        with pytest.raises(ValueError, match="needs the keys \\['factor'\\]"):
            make_algorithm(
                "sgd-convex", "squared", 1.0, steps={"mode": "multiple_of_n"}, step=0.1
            )
        algo = make_algorithm("sgd-convex", "squared", 1.0, steps={"mode": "n_squared"}, step=0.1)
        assert algo.spec_for(3).steps == 9
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


def twin_distances(algo, sample, index, repl_x, repl_y, seeds):
    """||HA - HB|| of each replace-one cell of ``fit_twins``."""
    HA, HB = algo.fit_twins(sample, index, repl_x, repl_y, seeds, None)
    return np.linalg.norm(HA - HB, axis=1)


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
            single = serial_sgd(sample, loss, algo.spec_for(12), seed)[-1]
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
                X, y = sample.features, sample.labels
                shared = _sgd_kernel(loss, algo.spec_for(12), [seed], X, y)
                assert np.array_equal(row, alone)
                assert np.array_equal(row, fitted)
                assert np.array_equal(row, shared[0])

    @pytest.mark.parametrize("stray", [-1, 12])
    def test_an_index_stream_outside_the_sample_raises(self, stray, monkeypatch):
        # The kernel's gathers clip, so the streams are range-checked once, up front.
        rng = np.random.default_rng(71)
        algo = make_algorithm("sgd-convex", "squared", 1.0, 0.5, steps=40, step=0.2)
        sample = unit_ball_sample(rng, 12, 3, label_bound=0.5)
        draw = learners._sgd_index_streams

        def leaving(seeds, n, steps):
            streams = draw(seeds, n, steps)
            streams[-1, -1] = stray
            return streams

        monkeypatch.setattr(learners, "_sgd_index_streams", leaving)
        with pytest.raises(IndexError, match=r"lie in \[0, 12\)"):
            algo.fit_many(*stack([sample, sample]), [1, 2])
        with pytest.raises(IndexError, match=r"lie in \[0, 12\)"):
            algo.fit_twins(sample, [0, 5], sample.features[:2], sample.labels[:2], [1, 2], None)

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
            twin_distances(
                algo,
                sample,
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
        algo = make_algorithm("sgd-nonconvex", "squared", 1.0, 0.5, steps=3, c=1e300)
        algo.loss_for = lambda n: loss
        with pytest.raises(NonFiniteIterateError):
            algo.fit(sample, seed=3)
        with pytest.raises(NonFiniteIterateError):
            algo.fit_many(*stack([sample, sample]), [4, 5])
        with pytest.raises(NonFiniteIterateError):
            twin_distances(
                algo,
                sample,
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
            twin_distances(
                algo,
                sample,
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
            assert np.array_equal(row, serial_ridge(sample, 0.5))

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
        dist = twin_distances(algo, sample, repl_i, repl_x, repl_y, seeds)
        assert dist.shape == (cells,)
        loss = algo.loss_for(n)
        for c in range(cells):
            spec = algo.spec_for(n)
            a = serial_sgd(sample, loss, spec, seeds[c])[-1]
            twin = replaced(sample, int(repl_i[c]), repl_x[c], float(repl_y[c]))
            b = serial_sgd(twin, loss, spec, seeds[c])[-1]
            assert abs(dist[c] - np.linalg.norm(a - b)) < 1e-12

    def test_identical_replacement_gives_zero_distance(self):
        rng = np.random.default_rng(59)
        n, d = 8, 2
        algo = make_algorithm(
            "sgd-convex", "squared", 1.0, 0.5, steps=25, step=0.2
        )
        sample = unit_ball_sample(rng, n, d, label_bound=0.5)
        i = 3
        dist = twin_distances(
            algo,
            sample,
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


# How far a ridge twin row, a rank-two update of the sample's Gram matrix,
# may sit from the fit on the replaced sample's own normal equations.
TWIN_ATOL = 1e-13


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
            assert np.array_equal(row, algo.fit(sample))
            assert np.array_equal(row, serial_ridge(sample, lam))

    @pytest.mark.parametrize("n", [1, 25, 400])
    def test_stacked_normal_equations_equal_the_per_row_ones(self, n, monkeypatch):
        # The stacked matmul forms bitwise the lone X.T @ X / n and X.T @ y / n.
        rng = np.random.default_rng(n)
        d, lam = 8, 0.05
        samples = [unit_ball_sample(rng, n, d) for _ in range(30)]
        solved = []

        def recording_solve(A, b):
            solved.append((A, b))
            return solve_ridge_stack(A, b)

        monkeypatch.setattr(learners, "solve_ridge_stack", recording_solve)
        rows = RidgeAlgorithm(lam, 1.0, 1.0).fit_many(*stack(samples), range(30))
        ((A, b),) = solved
        for c, sample in enumerate(samples):
            X, y = sample.features, sample.labels
            assert np.array_equal(A[c], X.T @ X / n + lam * np.eye(d))
            assert np.array_equal(b[c], X.T @ y / n)
            assert np.array_equal(rows[c], serial_ridge(sample, lam))

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
            twin = replaced(sample, int(i), repl_x[c], float(repl_y[c]))
            assert np.array_equal(HB[c], serial_ridge_twin(sample, lam, i, repl_x[c], repl_y[c]))
            assert np.abs(HB[c] - algo.fit(twin)).max() <= TWIN_ATOL
            assert np.abs(HB[c] - serial_ridge(twin, lam)).max() <= TWIN_ATOL
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
        refined = []
        for c, i in enumerate(index):
            A, b = twin_normal_equations(sample, 1e-9, i, repl_x[c], repl_y[c])
            refined.append(np.linalg.norm(b - A @ np.linalg.solve(A, b)) > 1e-14)
            assert np.array_equal(HB[c], serial_ridge_twin(sample, 1e-9, i, repl_x[c], repl_y[c]))
            # With condition numbers of 2e5 to 3e6, two backward-stable fits
            # of these normal equations (the rank-two and the direct Gram
            # matrix) each sit within about kappa * eps * ||h|| of the exact
            # solution, so within twice that of each other; TWIN_ATOL cannot
            # hold here for any Gram matrix but the lone fit's own.
            twin = replaced(sample, int(i), repl_x[c], float(repl_y[c]))
            X = twin.features
            kappa = np.linalg.cond(X.T @ X / twin.n + 1e-9 * np.eye(twin.dim))
            lone = serial_ridge(twin, 1e-9)
            bound = 2.0 * kappa * np.finfo(float).eps * np.linalg.norm(lone)
            assert np.linalg.norm(HB[c] - lone) <= bound
        assert any(refined) and not all(refined)

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
            algo.fit(sample)

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
        serial = serial_fit(algo, sample, seed)
        if algo.stochastic:
            assert np.abs(row - serial).max() < 1e-12
        else:
            assert np.array_equal(row, serial)


PRESETS = ["constant", "ridge", "rerm-lp", "sgd-nonconvex", "sgd-convex", "sgd-strongly-convex"]


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=8)
@given(
    n=st.integers(1, 20),
    d=st.integers(1, 4),
    lam=st.floats(1e-2, 10.0),
    cells=st.integers(1, 6),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_every_preset_fit_twins_rows_equal_fits_on_the_replaced_samples(
    preset, n, d, lam, cells, data_seed
):
    # The ridge-only TestStackedRidge case of the same name, for every preset.
    rng = np.random.default_rng(data_seed)
    algo = preset_for(preset, lam)
    sample = unit_ball_sample(rng, n, 3 if preset == "constant" else d)
    index, repl_x, repl_y = replace_one_cells(rng, sample, cells)
    seeds = [data_seed + c for c in range(cells)] if algo.stochastic else None
    base = algo.fit(sample)
    HA, HB = algo.fit_twins(sample, index, repl_x, repl_y, seeds, base)
    assert HA.shape == HB.shape == (cells, sample.dim)
    for c, i in enumerate(index):
        twin = replaced(sample, int(i), repl_x[c], float(repl_y[c]))
        if algo.stochastic:
            assert np.abs(HA[c] - serial_fit(algo, sample, seeds[c])).max() < 1e-12
            assert np.abs(HB[c] - serial_fit(algo, twin, seeds[c])).max() < 1e-12
        elif isinstance(algo, RidgeAlgorithm):
            # Ridge twins are a rank-two update of the sample's Gram matrix.
            assert np.array_equal(HA[c], base)
            assert np.array_equal(HB[c], serial_ridge_twin(sample, lam, i, repl_x[c], repl_y[c]))
            assert np.abs(HB[c] - algo.fit(twin)).max() <= TWIN_ATOL
        else:
            assert np.array_equal(HA[c], base)
            assert np.array_equal(HB[c], algo.fit(twin))
    # The sample the cells were swapped into is left as it was.
    assert np.array_equal(algo.fit(sample), base)


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_fit_twins_checks_its_cells(preset):
    rng = np.random.default_rng(83)
    algo = preset_for(preset, 0.5)
    sample = unit_ball_sample(rng, 8, 3)
    index, repl_x, repl_y = replace_one_cells(rng, sample, 3)
    nan_x, inf_y = repl_x.copy(), repl_y.copy()
    nan_x[1, 0], inf_y[2] = np.nan, np.inf
    cells = dict(replaced_index=index, repl_x=repl_x, repl_y=repl_y, seeds=[1, 2, 3])
    none = dict(replaced_index=[], repl_x=repl_x[:0], repl_y=repl_y[:0], seeds=[])
    one = dict(replaced_index=index[:1], repl_x=repl_x[:1], repl_y=repl_y[:1])
    cases = [
        (dict(replaced_index=[0, 8, 1]), ValueError, r"indices must lie in \[0, 8\)"),
        (dict(replaced_index=[0, -1, 1]), ValueError, r"indices must lie in \[0, 8\)"),
        (dict(replaced_index=[0.0, 1.0, 2.0]), ValueError, "vector of integers"),
        (none, ValueError, "non-empty"),
        (dict(repl_x=repl_x[:, :2]), ValueError, "one replacement"),
        (dict(repl_y=repl_y[:2]), ValueError, "one replacement"),
        (dict(repl_x=nan_x), DomainError, "finite"),
        (dict(repl_y=inf_y), DomainError, "finite"),
        (dict(seeds=[1, 2]), ValueError, "one seed per cell"),
        (dict(seeds=[1, 2, 3, 4]), ValueError, "one seed per cell"),
        (one, ValueError, "one seed per cell"),
    ]
    for change, error, message in cases:
        with pytest.raises(error, match=message):
            algo.fit_twins(sample, **{**cells, **change}, base=algo.fit(sample))


def serial_fit(algo, sample, seed):
    """One sample's fit by a path that stacks nothing: the serial oracles."""
    if isinstance(algo, ConstantAlgorithm):
        return algo.output
    if isinstance(algo, RidgeAlgorithm):
        return serial_ridge(sample, algo.lam)
    loss = algo.loss_for(sample.n)
    if isinstance(algo, LpRermAlgorithm):
        return serial_rerm(sample, loss, algo.penalty, algo.tol, algo.max_iter)
    return serial_sgd(sample, loss, algo.spec_for(sample.n), seed)[-1]


# ---------------------------------------------------------------------------
# the stacked penalized-ERM solver against its serial oracle


@pytest.mark.parametrize("kind", ["logistic", "squared", "hinge"])
@pytest.mark.parametrize("cells", [1, 33, 70])
def test_rerm_fit_many_and_twin_rows_equal_the_serial_oracle(kind, cells, monkeypatch):
    # 33 and 70 cells span more than one block of 32 rows of the preset's stacked solve.
    rng = np.random.default_rng(cells)
    algo = make_algorithm("rerm-lp", kind, 1.0, 0.5, p=1.5, lam=0.3, tol=1e-7)
    n, d = 12, 3
    calls = rerm_blocks(monkeypatch, 32, n, d)
    blocks = [min(32, cells - start) for start in range(0, cells, 32)]

    def draw(count):
        X = rng.standard_normal((count, n, d))
        X /= np.maximum(np.linalg.norm(X, axis=2), 1.0)[..., None]
        if kind == "squared":
            return X, rng.uniform(-0.5, 0.5, size=(count, n))
        return X, np.where(rng.uniform(size=(count, n)) < 0.5, -1.0, 1.0)

    X, y = draw(cells)
    rows = algo.fit_many(X, y, range(cells))
    assert calls == blocks
    for row, Xc, yc in zip(rows, X, y):
        assert np.array_equal(row, serial_fit(algo, Sample(Xc, yc), 0))

    sample = Sample(X[0], y[0])
    index = rng.integers(0, n, size=cells)
    repl_x, repl_y = (part[:, 0] for part in draw(cells))
    base = algo.fit(sample)
    calls.clear()
    _, HB = algo.fit_twins(sample, index, repl_x, repl_y, None, base)
    assert calls == blocks
    for c, i in enumerate(index):
        twin = replaced(sample, int(i), repl_x[c], float(repl_y[c]))
        assert np.array_equal(HB[c], serial_fit(algo, twin, 0))


@pytest.mark.parametrize("kind", ["logistic", "squared", "hinge"])
def test_rerm_rows_do_not_depend_on_the_block_size(kind, monkeypatch):
    # One row per block, three, and every row in one block give the same bits.
    rng = np.random.default_rng(17)
    algo = make_algorithm("rerm-lp", kind, 1.0, 0.5, p=1.5, lam=0.3, tol=1e-7)
    cells, n, d = 7, 12, 3
    X = rng.standard_normal((cells, n, d))
    X /= np.maximum(np.linalg.norm(X, axis=2), 1.0)[..., None]
    if kind == "squared":
        y = rng.uniform(-0.5, 0.5, size=(cells, n))
    else:
        y = np.where(rng.uniform(size=(cells, n)) < 0.5, -1.0, 1.0)
    sample, index = Sample(X[0], y[0]), rng.integers(0, n, size=cells)
    fits = {}
    for rows, blocks in ((1, [1] * 7), (3, [3, 3, 1]), (None, [7])):
        calls = rerm_blocks(monkeypatch, rows, n, d)
        many = algo.fit_many(X, y, range(cells))
        _, twins = algo.fit_twins(sample, index, X[:, 1], y[:, 1], None, many[0])
        assert calls == blocks + blocks
        fits[rows] = many, twins
    for many, twins in fits.values():
        assert np.array_equal(many, fits[None][0])
        assert np.array_equal(twins, fits[None][1])
