import numpy as np
import pytest

from stabilab import parallelogram_defect
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

