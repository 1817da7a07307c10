"""Euclidean geometry and the normed-space certificate the bounds rely on.

Hypotheses and features live in d-dimensional Euclidean space. Its
2-smoothness feeds every downstream constant and is checked numerically
instead of assumed: ``||h + g||^2 + ||h - g||^2 <= 2||h||^2 + 2 D^2 ||g||^2``
holds with ``D = 1`` (with equality: the parallelogram identity).
"""

from __future__ import annotations

import numpy as np


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
