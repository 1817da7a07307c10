"""Euclidean geometry and the normed-space certificates the bounds rely on.

Hypotheses and features live in d-dimensional Euclidean space. Two facts
about that space feed every downstream constant and both are checked
numerically instead of assumed:

* 2-smoothness: ``||h + g||^2 + ||h - g||^2 <= 2||h||^2 + 2 D^2 ||g||^2``
  holds with ``D = 1`` (with equality: the parallelogram identity).
* type 2: ``E || sum_i s_i x_i || <= C_2 (sum_i ||x_i||^2)^(1/2)`` for
  independent signs ``s_i``, with ``C_2 = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import rademacher_signs, substream


def as_vector(v) -> np.ndarray:
    """Validate and return a finite 1-d float array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def parallelogram_defect(h, g, smoothness: float = 1.0) -> float:
    """Slack of the 2-smoothness inequality at a pair of vectors.

    Returns ``2||h||^2 + 2 D^2 ||g||^2 - (||h+g||^2 + ||h-g||^2)``. In
    Euclidean space with D=1 this is zero up to float cancellation, which
    is exactly what certifies the smoothness constant used everywhere else.
    """
    h = as_vector(h)
    g = as_vector(g)
    if h.shape != g.shape:
        raise ValueError(f"dimension mismatch: {h.size} vs {g.size}")
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    plus = float(np.linalg.norm(h + g)) ** 2
    minus = float(np.linalg.norm(h - g)) ** 2
    return (
        2.0 * float(h @ h) + 2.0 * smoothness**2 * float(g @ g) - (plus + minus)
    )


@dataclass(frozen=True)
class Type2Check:
    """Monte-Carlo estimate of the type-2 inequality at one vector set."""

    lhs_estimate: float
    rhs: float
    std_error: float
    draws: int
    seed: int

    @property
    def holds_within(self) -> float:
        """Margin rhs + 3*SE - lhs; non-negative when the check passes."""
        return self.rhs + 3.0 * self.std_error - self.lhs_estimate


def type2_check(xs, draws: int, seed: int) -> Type2Check:
    """Estimate E||sum_i s_i x_i|| and compare with (sum ||x_i||^2)^(1/2).

    The expectation is over independent uniform signs s_i; the right-hand
    side is the type-2 bound with constant 1. Deterministic given the seed.
    """
    X = np.asarray(xs, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("xs must be a non-empty collection of vectors")
    if not np.all(np.isfinite(X)):
        raise ValueError("vector entries must be finite")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = substream(seed, "type2")
    signs = rademacher_signs(rng, (draws, X.shape[0]))
    norms = np.linalg.norm(signs @ X, axis=1)
    lhs = float(norms.mean())
    se = float(norms.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    rhs = math.sqrt(float((X * X).sum()))
    return Type2Check(lhs_estimate=lhs, rhs=rhs, std_error=se, draws=draws, seed=seed)
