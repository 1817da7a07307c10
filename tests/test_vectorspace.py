import numpy as np
import pytest

from stabilab import parallelogram_defect, type2_check
from stabilab.vectorspace import as_vector


def test_vector_helpers():
    assert np.array_equal(as_vector([3.0, 4.0]), [3.0, 4.0])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0])


def test_parallelogram_defect_is_tiny_on_random_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 12))
        h = rng.normal(size=d)
        g = rng.normal(size=d)
        worst = max(worst, abs(parallelogram_defect(h, g)))
    assert worst < 1e-9


def test_parallelogram_defect_loose_smoothness_is_positive():
    h = np.array([1.0, 0.0])
    g = np.array([0.0, 2.0])
    # D = 2 adds 2 * (D^2 - 1) * ||g||^2 = 24 of slack over the identity.
    assert parallelogram_defect(h, g, smoothness=2.0) == pytest.approx(24.0)
    with pytest.raises(ValueError):
        parallelogram_defect(h, g, smoothness=0.0)


def test_type2_check_holds_and_is_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 4))
    first = type2_check(X, draws=512, seed=9)
    second = type2_check(X, draws=512, seed=9)
    assert first.lhs_estimate == second.lhs_estimate
    assert first.holds_within >= 0.0
    assert first.rhs == pytest.approx(np.sqrt((X * X).sum()))


def test_type2_check_single_vector_is_exact():
    # With one vector the sum is +-x, so E||s x|| = ||x|| = rhs exactly.
    check = type2_check(np.array([[3.0, 4.0]]), draws=64, seed=0)
    assert check.lhs_estimate == pytest.approx(5.0)
    assert check.rhs == pytest.approx(5.0)


def test_type2_check_rejects_bad_input():
    with pytest.raises(ValueError):
        type2_check(np.empty((0, 3)), draws=8, seed=0)
    with pytest.raises(ValueError):
        type2_check(np.array([[1.0, np.inf]]), draws=8, seed=0)
    with pytest.raises(ValueError):
        type2_check(np.eye(2), draws=0, seed=0)
