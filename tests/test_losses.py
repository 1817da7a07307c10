import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

from stabilab import certify_loss, make_loss
from stabilab.exceptions import DomainError
from stabilab.losses import _sigmoid, margin_slopes, margin_values


def test_margin_values_hand_cases():
    margins = np.array([0.0, 1.0, 2.0, -1.0])
    labels = np.array([1.0, 1.0, 1.0, 1.0])
    hinge = margin_values("hinge", margins, labels)
    assert np.allclose(hinge, [1.0, 0.0, 0.0, 2.0])
    logistic = margin_values("logistic", margins, labels)
    assert logistic[0] == pytest.approx(math.log(2.0))
    assert np.all(np.diff(logistic[:3]) < 0)
    squared = margin_values("squared", margins, np.array([0.5, 0.5, 0.5, 0.5]))
    assert np.allclose(squared, [0.25, 0.25, 2.25, 2.25])


def test_margin_slopes_hand_cases():
    labels = np.ones(3)
    slopes = margin_slopes("hinge", np.array([0.5, 1.0, 1.5]), labels)
    # At the kink (margin exactly 1) the flat piece is active, slope 0.
    assert np.allclose(slopes, [-1.0, 0.0, 0.0])
    lg = margin_slopes("logistic", np.array([0.0]), labels[:1])
    assert lg[0] == pytest.approx(-0.5)
    sq = margin_slopes("squared", np.array([2.0]), np.array([0.5]))
    assert sq[0] == pytest.approx(3.0)


@pytest.mark.parametrize("kind", ["logistic", "squared", "hinge"])
def test_buffered_slopes_equal_the_unbuffered_forms_bitwise(kind):
    # The forms margin_slopes took before it computed in place, frozen as a
    # reference; tobytes() also compares zero signs and NaN bits.
    u = np.repeat([0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0, np.nan], 2)
    y = np.tile([1.0, -1.0], len(u) // 2)
    reference = {
        "hinge": np.where(y * u < 1.0, -y, 0.0),
        "logistic": -y * _sigmoid(-y * u),
        "squared": 2.0 * (u - y),
    }[kind]
    buffer = np.full(len(u), 7.0)
    assert margin_slopes(kind, u, y, out=buffer) is buffer
    assert buffer.tobytes() == reference.tobytes()
    assert margin_slopes(kind, u, y).tobytes() == reference.tobytes()


def masked_sigmoid(t):
    """The two-pass sigmoid the one-pass form replaced, frozen as a reference."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    exp_t = np.exp(t[~pos])
    out[~pos] = exp_t / (1.0 + exp_t)
    return out


def test_sigmoid_equals_the_masked_form_bitwise():
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, tiny / 2**20, -tiny / 2**20, 5e-324]
    edges += [-5e-324, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8, 36.8, -36.8, 1.0, -1.0]
    t = np.concatenate([edges, np.random.default_rng(5).normal(scale=30.0, size=4096)])
    got, want = _sigmoid(t), masked_sigmoid(t)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # NaN stays NaN, whatever its sign bit.
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def test_margin_values_rejects_unknown_kind():
    with pytest.raises(ValueError):
        margin_values("absolute", np.zeros(1), np.zeros(1))


def softplus_grid():
    """Margins t for the logistic loss: edges, then a wide and a narrow random draw."""
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0]
    edges += [5e-324, -5e-324, tiny, -tiny, tiny / 2**20, -tiny / 2**20, 709.8, -709.8, 36.8]
    rng = np.random.default_rng(17)
    return np.concatenate([edges, rng.uniform(-800.0, 800.0, 200_000), rng.normal(0.0, 5.0, 200_000)])


def logistic_of(t):
    """The logistic loss at margin t, as margin_values sees it: label -1, so -y*u = t."""
    return margin_values("logistic", t, -np.ones_like(t))


def ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_logistic_values_are_the_softplus_to_two_ulp():
    t = softplus_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logistic_of(t)
    with np.errstate(invalid="ignore"):  # np.logaddexp warns on NaN
        want = np.logaddexp(0.0, t)
    finite = np.isfinite(t)
    # Outside the finite margins: NaN stays NaN, and the infinities give inf and 0.
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    assert np.isnan(got[np.isnan(t)]).all()
    t, got, want = t[finite], got[finite], want[finite]
    if np.finfo(np.longdouble).nmant >= 63:
        # Against the split form in extended precision (64-bit mantissa).
        tl = t.astype(np.longdouble)
        exact = (np.maximum(tl, 0) + np.log1p(np.exp(-np.abs(tl)))).astype(np.float64)
        assert ulps(got, exact).max() <= 2.0
    # Each of np.logaddexp and the SIMD split form is within 2 ulp of the
    # exact value, so the two differ by at most 4 (3 is seen near t = -4.15).
    assert ulps(got, want).max() <= 4.0


SRC = Path(__file__).resolve().parents[1] / "src"

# Reads float64 margins on stdin; exits 0 if the logistic values are bitwise
# np.logaddexp(0, t), NaN for NaN.
LIBM_CHILD = r"""
import sys
import numpy as np
from stabilab.losses import margin_values
t = np.frombuffer(sys.stdin.buffer.read(), dtype=np.float64).copy()
got = margin_values("logistic", t, -np.ones_like(t))
with np.errstate(invalid="ignore"):
    want = np.logaddexp(0.0, t)
same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
print(int((~same).sum()), "values differ")
sys.exit(0 if same.all() else 1)
"""


@pytest.mark.skipif("X86_V4" not in __cpu_dispatch__, reason="NumPy dispatches no X86_V4 loops")
def test_logistic_values_are_bitwise_logaddexp_without_avx512():
    # Below X86_V4 NumPy's float64 exp and log1p are libm's, and so are
    # np.logaddexp's, which takes the same split.
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LIBM_CHILD],
        input=softplus_grid().tobytes(),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, (done.stdout, done.stderr)


@pytest.mark.parametrize("radius, feature_bound", [(1.0, 1.0), (2.5, 1.0), (1.0, 7.3), (30.0, 30.0)])
def test_logistic_bound_is_the_value_at_the_extreme_margin(radius, feature_bound):
    # One SIMD lane or many, the loss at t = R*B is bitwise the certified M.
    bound = make_loss("logistic", feature_bound, radius).constants().bound
    for size in (1, 37):
        assert np.all(logistic_of(np.full(size, radius * feature_bound)) == bound)


@pytest.mark.parametrize(
    "kind,radius,expected_l,expected_m,expected_s",
    [
        ("hinge", 1.0, 1.0, 2.0, None),
        ("logistic", 1.0, 1.0, math.log(1.0 + math.e), 0.25),
        ("squared", 1.0, 4.0, 4.0, 2.0),
        ("squared", 3.0, 8.0, 16.0, 2.0),
    ],
)
def test_certified_constants_table(kind, radius, expected_l, expected_m, expected_s):
    loss = make_loss(kind, 1.0, radius, 1.0)
    consts = loss.constants()
    assert consts.lipschitz == pytest.approx(expected_l)
    assert consts.bound == pytest.approx(expected_m)
    if expected_s is None:
        assert consts.smoothness is None
    else:
        assert consts.smoothness == pytest.approx(expected_s)
    assert consts.strong_convexity == 0.0


def test_ridge_augmentation_shifts_constants():
    base = make_loss("logistic", 2.0, 1.5)
    aug = make_loss("logistic", 2.0, 1.5, ridge_term=0.25)
    cb, ca = base.constants(), aug.constants()
    assert ca.lipschitz == pytest.approx(cb.lipschitz + 2 * 0.25 * 1.5 / 2.0)
    assert ca.bound == pytest.approx(cb.bound + 0.25 * 1.5**2)
    assert ca.smoothness == pytest.approx(cb.smoothness + 0.5)
    assert ca.strong_convexity == pytest.approx(0.5)


def test_value_at_zero():
    assert make_loss("hinge", 1.0, 1.0).value_at_zero() == 1.0
    assert make_loss("logistic", 1.0, 1.0).value_at_zero() == pytest.approx(math.log(2.0))
    assert make_loss("squared", 1.0, 1.0, 0.5).value_at_zero() == pytest.approx(0.25)


def test_classification_label_bound_is_forced_to_one():
    loss = make_loss("hinge", 1.0, 1.0, label_bound=7.0)
    assert loss.label_bound == 1.0


def test_domain_checks():
    loss = make_loss("hinge", 1.0, 0.5)
    with pytest.raises(DomainError):
        loss.check_hypothesis(np.array([0.6, 0.0]))
    with pytest.raises(DomainError):
        loss.check_examples(np.array([2.0, 0.0]), 1.0)
    with pytest.raises(DomainError):
        loss.check_examples(np.array([0.5, 0.0]), 0.5)
    reg = make_loss("squared", 1.0, 1.0, label_bound=0.25)
    with pytest.raises(DomainError):
        reg.check_examples(np.array([0.5, 0.0]), 0.3)


def test_stacked_hypothesis_check_rejects_one_bad_row():
    loss = make_loss("hinge", 1.0, 0.5)
    good = np.array([[0.3, 0.0], [0.0, -0.5], [0.1, 0.1]])
    checked = loss.check_hypothesis(good)
    assert checked.dtype == np.float64 and np.array_equal(checked, good)
    wide = good.copy()
    wide[1] = [0.0, 0.6]
    with pytest.raises(DomainError, match="hypothesis norm 0.6 exceeds certified radius 0.5"):
        loss.check_hypothesis(wide)
    nan = good.copy()
    nan[2, 1] = np.nan
    with pytest.raises(ValueError, match="hypothesis entries must be finite"):
        loss.check_hypothesis(nan)
    with pytest.raises(ValueError, match="vector"):
        loss.check_hypothesis(good[None])


def test_values_and_gradient_on_one_example():
    loss = make_loss("squared", 1.0, 2.0, label_bound=1.0)
    x, y = np.array([[1.0, 0.0]]), np.array([0.5])
    h = np.array([1.0, 1.0])
    assert loss.values_raw(h, x, y)[0] == pytest.approx(0.25)
    assert np.allclose(loss.risk_gradient_raw(h, x, y), [1.0, 0.0])
    aug = make_loss("squared", 1.0, 2.0, label_bound=1.0, ridge_term=0.5)
    assert aug.values_raw(h, x, y)[0] == pytest.approx(0.25 + 0.5 * 2.0)
    assert np.allclose(aug.risk_gradient_raw(h, x, y), [2.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        loss.values_raw(np.array([1.0]), x, y)
    with pytest.raises(ValueError, match="dimension"):
        loss.risk_gradient_raw(np.array([1.0]), x, y)


def test_values_raw_matches_one_example_values():
    loss = make_loss("logistic", 1.0, 1.0, ridge_term=0.1)
    rng = np.random.default_rng(2)
    h = rng.normal(size=3)
    h *= 0.9 / np.linalg.norm(h)
    X = rng.normal(size=(5, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.where(rng.random(5) < 0.5, -1.0, 1.0)
    vals = loss.values_raw(h, X, y)
    for j in range(5):
        assert vals[j] == pytest.approx(loss.values_raw(h, X[j : j + 1], y[j : j + 1])[0])


def test_risk_gradient_raw_is_mean_of_example_gradients():
    loss = make_loss("squared", 1.0, 1.0, label_bound=0.5, ridge_term=0.2)
    rng = np.random.default_rng(4)
    h = rng.normal(size=3)
    h *= 0.8 / np.linalg.norm(h)
    X = rng.normal(size=(6, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = rng.uniform(-0.5, 0.5, size=6)
    grads = [loss.risk_gradient_raw(h, X[j : j + 1], y[j : j + 1]) for j in range(6)]
    assert np.allclose(loss.risk_gradient_raw(h, X, y), np.mean(grads, axis=0))


@pytest.mark.parametrize("kind", ["hinge", "logistic", "squared"])
@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_certify_loss_passes(kind, ridge):
    loss = make_loss(kind, 1.0, 1.0, 1.0, ridge_term=ridge)
    report = certify_loss(loss, points=200, triples=2000, seed=11)
    assert report["ok"], report
    assert report["finite_difference"]["max_rel_error"] <= 1e-5
    if kind == "hinge":
        assert report["smoothness"] is None
    else:
        assert report["smoothness"]["ok"]


def test_certify_loss_validates_budgets():
    loss = make_loss("squared", 1.0, 1.0)
    with pytest.raises(ValueError):
        certify_loss(loss, points=0)
