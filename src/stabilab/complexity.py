"""Confidence balls around the mean hypothesis and their Rademacher complexity.

A stable algorithm's output concentrates in a ball of radius
``r = D * alpha(n) * sqrt(2 n log(2/delta))`` around its mean hypothesis.
Over a linear class, the Rademacher supremum of that ball has a per-draw
closed form::

    sup_{h in ball} (1/n) sum_i s_i <h, x_i> = (<center, u> + r ||u||) / n

with ``u = sum_i s_i x_i``. :func:`ball_rademacher` averages it over
antithetic sign draws (each sigma paired with -sigma, which cancels the
center term exactly), and :func:`brute_force_rademacher` provides an
independent oracle over finite hypothesis sets, exhaustive up to n = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import fit_replicates
from .seeding import child_seed, rademacher_rows, stream_keys


def ball_radius(smooth_constant: float, alpha: float, n: int, delta: float) -> float:
    """Confidence-ball radius D * alpha * sqrt(2 n log(2/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if smooth_constant <= 0:
        raise ValueError("smooth_constant must be positive")
    return smooth_constant * alpha * math.sqrt(2.0 * n * math.log(2.0 / delta))


@dataclass(frozen=True)
class AlgorithmicBall:
    """A ball around an (estimated) mean hypothesis at confidence delta."""

    center: np.ndarray
    radius: float
    n: int
    delta: float

    def __post_init__(self):
        center = np.array(self.center, dtype=np.float64, copy=True)
        if center.ndim != 1 or center.size == 0 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite non-empty vector")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        if self.radius < 0 or not math.isfinite(self.radius):
            raise ValueError("radius must be >= 0 and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class RademacherEstimate:
    """Monte-Carlo mean of the per-draw supremum with its standard error."""

    mean: float
    std_error: float
    draws: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "draws": self.draws,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CenterEstimate:
    """Average of fitted hypotheses with per-coordinate standard errors."""

    vector: np.ndarray
    std_error: np.ndarray | None
    replicates: int
    seed: int

    def std_error_norm(self) -> float:
        if self.std_error is None:
            return math.inf
        return float(np.linalg.norm(self.std_error))


def estimate_center(algorithm, dist, n: int, m: int = 64, seed: int = 0) -> CenterEstimate:
    """Estimate the mean hypothesis by averaging m independent refits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    fits, _, _ = fit_replicates(algorithm, dist, n, m, seed, "center")
    vector = fits.mean(axis=0)
    if m == 1:
        return CenterEstimate(vector=vector, std_error=None, replicates=1, seed=seed)
    se = fits.std(axis=0, ddof=1) / math.sqrt(m)
    return CenterEstimate(vector=vector, std_error=se, replicates=m, seed=seed)


def _check_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty (n, d) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("X entries must be finite")
    return X


def ball_draw_values(ball: AlgorithmicBall, X, signs) -> np.ndarray:
    """Per-draw supremum over the ball, one value per row of signs."""
    X = _check_features(X)
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2 or signs.shape[1] != X.shape[0]:
        raise ValueError("signs must be (draws, n) with n matching X")
    if ball.center.shape != (X.shape[1],):
        raise ValueError("ball center dimension does not match X")
    U = signs @ X
    return (U @ ball.center + ball.radius * np.linalg.norm(U, axis=1)) / X.shape[0]


def finite_class_draw_values(hypotheses, X, signs) -> np.ndarray:
    """Per-draw supremum over a finite hypothesis list."""
    X = _check_features(X)
    H = np.asarray(hypotheses, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] == 0 or H.shape[1] != X.shape[1]:
        raise ValueError("hypotheses must be a non-empty (m, d) array matching X")
    signs = np.asarray(signs, dtype=np.float64)
    U = signs @ X
    return (U @ H.T).max(axis=1) / X.shape[0]


def _antithetic_signs(seed: int, pairs: int, n: int) -> np.ndarray:
    """(2*pairs, n) sign matrix; row 2k+1 is the negation of row 2k.

    Pair k draws from its own stream, ``(seed, "sigma", k)``, so any draw's
    signs can be regenerated in isolation and results never depend on
    batch order.
    """
    out = np.empty((2 * pairs, n))
    rademacher_rows(stream_keys(seed, "sigma", each=range(pairs)), out[0::2])
    np.negative(out[0::2], out=out[1::2])
    return out


def _antithetic_estimate(draw_values, n: int, draws: int, seed: int) -> RademacherEstimate:
    """Mean of ``draw_values(signs)`` over antithetic sign pairs, with its standard error."""
    if draws < 2 or draws % 2 != 0:
        raise ValueError("draws must be an even number >= 2 (antithetic pairing)")
    pairs = draws // 2
    values = draw_values(_antithetic_signs(seed, pairs, n))
    pair_means = 0.5 * (values[0::2] + values[1::2])
    mean = float(pair_means.mean())
    se = 0.0 if pairs == 1 else float(pair_means.std(ddof=1) / math.sqrt(pairs))
    return RademacherEstimate(mean=mean, std_error=se, draws=draws, seed=seed)


def ball_rademacher(ball: AlgorithmicBall, X, draws: int, seed: int = 0) -> RademacherEstimate:
    """Monte-Carlo Rademacher complexity of the ball on the sample X.

    Draws come in antithetic pairs (sigma, -sigma): the center term of the
    closed form cancels within each pair, so the estimate is exactly
    (r/n) * mean ||u|| and in particular never negative. ``draws`` must be
    even; the standard error is computed over the independent pair means.
    """
    X = _check_features(X)
    return _antithetic_estimate(
        lambda signs: ball_draw_values(ball, X, signs), X.shape[0], draws, seed
    )


def _exhaustive_signs(n: int, start: int, count: int) -> np.ndarray:
    codes = np.arange(start, start + count, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def brute_force_rademacher(
    hypotheses,
    X,
    exhaustive: bool,
    seed: int = 0,
    draws: int = 4096,
) -> RademacherEstimate:
    """Rademacher complexity of a finite hypothesis set.

    Exhaustive mode enumerates all 2^n sign vectors (n <= 20) and returns
    the exact expectation with zero standard error. Monte-Carlo mode uses
    the same antithetic sign streams as :func:`ball_rademacher`, so the two
    estimators see identical draws for a given seed.
    """
    X = _check_features(X)
    H = np.asarray(hypotheses, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] == 0:
        raise ValueError("hypotheses must be a non-empty (m, d) array")
    n = X.shape[0]
    if exhaustive:
        if n > 20:
            raise ValueError("exhaustive enumeration supports n <= 20")
        total = 0.0
        patterns = 1 << n
        block = 1 << 14
        for start in range(0, patterns, block):
            count = min(block, patterns - start)
            total += float(finite_class_draw_values(H, X, _exhaustive_signs(n, start, count)).sum())
        return RademacherEstimate(
            mean=total / patterns, std_error=0.0, draws=patterns, seed=seed
        )
    return _antithetic_estimate(
        lambda signs: finite_class_draw_values(H, X, signs), n, draws, seed
    )
