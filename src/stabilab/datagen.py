"""Synthetic data distributions with known ground truth.

Features are drawn uniformly from a centered sphere or ball, and labels
come from a fixed teacher vector through one of three mechanisms:

* :class:`LinearNoise` - real labels ``<h*, x> + noise``, for squared loss.
* :class:`LogisticTeacher` - ±1 labels with log-odds ``<h*, x>``.
* :class:`SignFlip` - ±1 labels ``sign(<h*, x>)`` flipped with fixed
  probability (zero gives a noiseless, realizable problem).

:func:`true_risk` evaluates the population risk of a hypothesis, exactly
where a closed form exists and by seeded Monte Carlo otherwise.
:func:`fit_replicates` is the replicate path: one sample stack, one fit call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learners import Sample
from .losses import LossModel, _sigmoid
from .seeding import child_seed, draw_each, stream_key, substream

FEATURE_LAWS = ("sphere", "ball")

# A label mechanism may never actually produce labels outside the stated
# bound in a run of desk-scale length; this is the probability mass we are
# willing to ignore when certifying that.
_CLIP_MASS = 1e-12


@dataclass(frozen=True)
class LinearNoise:
    """y = <teacher, x> + noise_sd * standard normal, for real labels."""

    noise_sd: float

    def __post_init__(self):
        if self.noise_sd < 0 or not math.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be non-negative and finite")

    def labels(self, rng: np.random.Generator, margins: np.ndarray) -> np.ndarray:
        if self.noise_sd == 0:
            return margins.copy()
        return margins + self.noise_sd * rng.standard_normal(margins.shape[0])

    def classification(self) -> bool:
        return False


@dataclass(frozen=True)
class LogisticTeacher:
    """±1 labels with P(y = +1 | x) = sigmoid(<teacher, x>)."""

    def labels(self, rng: np.random.Generator, margins: np.ndarray) -> np.ndarray:
        p = _sigmoid(margins)
        return np.where(rng.random(margins.shape[0]) < p, 1.0, -1.0)

    def classification(self) -> bool:
        return True


@dataclass(frozen=True)
class SignFlip:
    """±1 labels sign(<teacher, x>), each flipped with probability flip_prob."""

    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")

    def labels(self, rng: np.random.Generator, margins: np.ndarray) -> np.ndarray:
        base = np.where(margins >= 0, 1.0, -1.0)
        if self.flip_prob == 0:
            return base
        flips = rng.random(margins.shape[0]) < self.flip_prob
        return base * np.where(flips, -1.0, 1.0)

    def classification(self) -> bool:
        return True


@dataclass(frozen=True)
class DistributionSpec:
    """A feature law, a teacher vector, and a label mechanism.

    For LinearNoise the label bound must leave enough headroom that a
    label outside it has probability below 1e-12 per draw; labels are then
    clipped to the bound so every emitted sample is in-domain.
    """

    dim: int
    feature_bound: float
    teacher: np.ndarray
    mechanism: object
    label_bound: float = 1.0
    feature_law: str = "sphere"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.feature_bound > 0 and math.isfinite(self.feature_bound)):
            raise ValueError("feature_bound must be positive and finite")
        if self.feature_law not in FEATURE_LAWS:
            raise ValueError(f"unknown feature law {self.feature_law!r}")
        teacher = np.array(self.teacher, dtype=np.float64, copy=True)
        if teacher.shape != (self.dim,) or not np.all(np.isfinite(teacher)):
            raise ValueError("teacher must be a finite vector of length dim")
        teacher.flags.writeable = False
        object.__setattr__(self, "teacher", teacher)
        if not hasattr(self.mechanism, "labels"):
            raise ValueError("mechanism must provide a labels() method")
        if self.mechanism.classification():
            if self.label_bound != 1.0:
                raise ValueError("classification mechanisms use label_bound 1")
        else:
            if not (self.label_bound > 0 and math.isfinite(self.label_bound)):
                raise ValueError("label_bound must be positive and finite")
            reach = float(np.linalg.norm(teacher)) * self.feature_bound
            margin = self.label_bound - reach
            sd = self.mechanism.noise_sd
            if margin < 0:
                raise ValueError(
                    "teacher reach exceeds the label bound; shrink the teacher"
                )
            if sd > 0 and math.erfc(margin / (sd * math.sqrt(2.0))) >= _CLIP_MASS:
                raise ValueError(
                    "label clipping would be non-negligible; lower noise_sd or "
                    "raise label_bound"
                )


def _draw_features(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, spec.dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), spec.dim))
        norms = np.linalg.norm(g, axis=1)
    X = g / norms[:, None] * spec.feature_bound
    if spec.feature_law == "ball":
        X = X * rng.random(n)[:, None] ** (1.0 / spec.dim)
    return X


def _draw(spec: DistributionSpec, rng: np.random.Generator, n: int):
    """n (features, label) rows from one generator, labels clipped to the bound."""
    X = _draw_features(spec, rng, n)
    y = spec.mechanism.labels(rng, X @ spec.teacher)
    if not spec.mechanism.classification():
        np.clip(y, -spec.label_bound, spec.label_bound, out=y)
    return X, y


def draw_sample(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """n i.i.d. examples; the same (spec, n, seed) always gives the same sample."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Sample(*_draw(spec, substream(seed, "datagen"), n))


def draw_samples(spec: DistributionSpec, n: int, seeds):
    """(C, n, d) features and (C, n) labels whose row c is bitwise
    ``draw_sample(spec, n, seeds[c])``, allocated once and filled in place.

    Raises ValueError if a label is not finite. Features always are (unit
    directions scaled by the finite bound), so the check skips them and
    keeps a temporary the size of the feature stack out of peak memory.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = list(seeds)
    X = np.empty((len(seeds), n, spec.dim))
    y = np.empty((len(seeds), n))
    rows = iter(zip(X, y))

    def fill(rng):
        x_c, y_c = next(rows)
        x_c[...], y_c[...] = _draw(spec, rng, n)

    draw_each((stream_key(seed, "datagen") for seed in seeds), fill)
    if not np.all(np.isfinite(y)):
        raise ValueError("drawn examples must be finite")
    return X, y


def draw_examples(spec: DistributionSpec, seeds):
    """(C, d) features and (C,) labels: row c is the one example of
    ``draw_sample(spec, 1, seeds[c])``, drawn as :func:`draw_samples` draws it."""
    X, y = draw_samples(spec, 1, seeds)
    return X[:, 0], y[:, 0]


def fit_replicates(algorithm, dist: DistributionSpec, n: int, count: int, seed: int, label: str):
    """(fits, features, labels) of ``count`` fresh samples of size n, drawn as
    one stack and fitted through one ``fit_many`` call.

    Replicate j draws on ``(seed, f"{label}-sample", j)`` and fits on
    ``(seed, f"{label}-fit", j)``.
    """
    replicates = range(count)
    X, y = draw_samples(dist, n, [child_seed(seed, f"{label}-sample", j) for j in replicates])
    try:
        fits = algorithm.fit_many(X, y, [child_seed(seed, f"{label}-fit", j) for j in replicates])
    except Exception as exc:
        raise RuntimeError(f"{label} replicate fits failed: {exc}") from exc
    return fits, X, y


@dataclass(frozen=True)
class RiskEstimate:
    """Population risk value with its Monte Carlo standard error."""

    value: float
    std_error: float
    exact: bool


def true_risk(
    loss: LossModel,
    h,
    spec: DistributionSpec,
    draws: int = 4096,
    seed: int = 0,
) -> RiskEstimate:
    """Population risk of h under the distribution.

    Squared loss with LinearNoise on the uniform sphere has the closed
    form ||h - teacher||^2 * B^2 / d + noise_sd^2 (plus the determinate
    ridge term); everything else falls back to Monte Carlo with the given
    number of draws.
    """
    h = loss.check_hypothesis(h)
    if h.shape != (spec.dim,):
        raise ValueError("hypothesis dimension does not match the distribution")
    closed = (
        loss.kind == "squared"
        and isinstance(spec.mechanism, LinearNoise)
        and spec.feature_law == "sphere"
    )
    if closed:
        gap = h - spec.teacher
        value = float(gap @ gap) * spec.feature_bound**2 / spec.dim
        value += spec.mechanism.noise_sd**2
        if loss.ridge_term:
            value += loss.ridge_term * float(h @ h)
        return RiskEstimate(value=value, std_error=0.0, exact=True)
    if draws < 2:
        raise ValueError("draws must be >= 2 for a Monte Carlo estimate")
    X, y = _draw(spec, substream(seed, "risk-mc"), draws)
    vals = loss.values_raw(h, X, y)
    se = float(vals.std(ddof=1) / math.sqrt(draws))
    return RiskEstimate(value=float(vals.mean()), std_error=se, exact=False)
