"""Synthetic data distributions with known ground truth.

Features are drawn uniformly from a centered sphere or ball, and labels
come from a fixed teacher vector through one of three mechanisms:

* :class:`LinearNoise` - real labels ``<h*, x> + noise``, for squared loss.
* :class:`LogisticTeacher` - ±1 labels with log-odds ``<h*, x>``.
* :class:`SignFlip` - ±1 labels ``sign(<h*, x>)`` flipped with fixed
  probability (zero gives a noiseless, realizable problem).

A mechanism labels in two steps: ``draw_raw(rng, out)`` reads its
randomness for each example of ``out`` from a stream, and
``labels_from(margins, raw)`` labels a whole block from margins and draws.

One private sampler, over one Philox key per sample, draws every sample:
:func:`draw_samples` (a (C, n, d) stack), its row 0 :func:`draw_sample`,
the replicate stacks of :func:`fit_replicates` (one stack, fitted once)
and the Monte-Carlo branch of :func:`true_risks` (exact where a closed
form exists), the risks of a stack of hypotheses. It reads each stream
straight into the output buffers, then does the arithmetic in place a
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learners import Sample
from .losses import LossModel, _matvec, _sigmoid
from .seeding import child_seed, draw_each, stream_key

FEATURE_LAWS = ("sphere", "ball")

# A label mechanism may never actually produce labels outside the stated
# bound in a run of desk-scale length; this is the probability mass we are
# willing to ignore when certifying that.
_CLIP_MASS = 1e-12
# A Gaussian feature row with a norm below this is redrawn before scaling.
_MIN_NORM = 1e-12
# Examples per block of the sampler's in-place arithmetic.
_BLOCK_EXAMPLES = 4096


@dataclass(frozen=True)
class LinearNoise:
    """y = <teacher, x> + noise_sd * standard normal, for real labels."""

    noise_sd: float

    def __post_init__(self):
        if self.noise_sd < 0 or not math.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be non-negative and finite")

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        if self.noise_sd != 0:
            rng.standard_normal(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        if self.noise_sd == 0:
            return margins
        return margins + self.noise_sd * raw

    def classification(self) -> bool:
        return False


@dataclass(frozen=True)
class LogisticTeacher:
    """±1 labels with P(y = +1 | x) = sigmoid(<teacher, x>)."""

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        return np.where(raw < _sigmoid(margins), 1.0, -1.0)

    def classification(self) -> bool:
        return True


@dataclass(frozen=True)
class SignFlip:
    """±1 labels sign(<teacher, x>), each flipped with probability flip_prob."""

    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        if self.flip_prob != 0:
            rng.random(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        base = np.where(margins >= 0, 1.0, -1.0)
        if self.flip_prob == 0:
            return base
        return base * np.where(raw < self.flip_prob, -1.0, 1.0)

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
        if not all(hasattr(self.mechanism, m) for m in ("draw_raw", "labels_from")):
            raise ValueError("mechanism must provide draw_raw() and labels_from()")
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


def _sample_stack(spec: DistributionSpec, n: int, keys: list):
    """(C, n, d) features and (C, n) labels, sample c read from the Philox
    stream of ``keys[c]``: its n x d standard normals, its n radii (ball law
    only), then its raw label draws. Rows with a norm below ``_MIN_NORM``
    get fresh normals before the radii. Raises ValueError if a label is not
    finite.
    """
    C, d = len(keys), spec.dim
    X, y = np.empty((C, n, d)), np.empty((C, n))
    step = max(1, _BLOCK_EXAMPLES // n)
    radii = np.empty((step, n)) if spec.feature_law == "ball" else None

    def read(rng, c, redraw=False):
        rng.standard_normal(out=X[c])
        while redraw and (low := np.linalg.norm(X[c], axis=1) < _MIN_NORM).any():
            X[c][low] = rng.standard_normal((int(low.sum()), d))
        if radii is not None:
            rng.random(out=radii[c % step])
        spec.mechanism.draw_raw(rng, y[c])

    for start in range(0, C, step):
        xb, yb = X[start : start + step], y[start : start + step]
        rows = iter(range(start, start + len(xb)))
        draw_each(keys[start : start + step], lambda rng: read(rng, next(rows)))
        norms = np.linalg.norm(xb, axis=-1)
        for c in start + np.flatnonzero((norms < _MIN_NORM).any(axis=1)):
            draw_each([keys[c]], lambda rng: read(rng, c, redraw=True))
            norms[c - start] = np.linalg.norm(X[c], axis=-1)
        xb /= norms[..., None]
        xb *= spec.feature_bound
        if radii is not None:
            rb = radii[: len(xb)]
            rb **= 1.0 / d  # the ** operator, which NumPy turns into sqrt for 1/2
            xb *= rb[..., None]
        yb[...] = spec.mechanism.labels_from(xb @ spec.teacher, yb)
    if not spec.mechanism.classification():
        np.clip(y, -spec.label_bound, spec.label_bound, out=y)
    if not np.all(np.isfinite(y)):
        raise ValueError("drawn examples must be finite")
    return X, y


def draw_sample(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """n i.i.d. examples, row 0 of ``draw_samples(spec, n, [seed])``."""
    X, y = draw_samples(spec, n, [seed])
    return Sample(X[0], y[0])


def draw_samples(spec: DistributionSpec, n: int, seeds):
    """(C, n, d) features and (C, n) labels; row c is drawn on ``(seeds[c],
    "datagen")``, so it depends only on (spec, n, seeds[c]). Raises
    ValueError if a label is not finite."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _sample_stack(spec, n, [stream_key(seed, "datagen") for seed in seeds])


def fit_replicates(algorithm, dist: DistributionSpec, n: int, count: int, seed: int, label: str):
    """(fits, features, labels) of ``count`` fresh samples of size n, drawn as
    one stack and fitted through one ``fit_many`` call.

    Replicate j reads the stream keyed by ``stream_key(seed, f"{label}-sample",
    j)``, so it depends only on (dist, n, seed, label, j). A stochastic
    preset fits it on ``child_seed(seed, f"{label}-fit", j)``; a
    deterministic one ignores its seed and gets 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    replicates = range(count)
    X, y = _sample_stack(dist, n, [stream_key(seed, f"{label}-sample", j) for j in replicates])
    seeds = [0] * count
    if algorithm.stochastic:
        seeds = [child_seed(seed, f"{label}-fit", j) for j in replicates]
    try:
        fits = algorithm.fit_many(X, y, seeds)
    except Exception as exc:
        raise RuntimeError(f"{label} replicate fits failed: {exc}") from exc
    return fits, X, y


def true_risks(loss: LossModel, H, spec: DistributionSpec, draws: int, seeds) -> np.ndarray:
    """The population risk of each row of a (C, d) stack of hypotheses.

    Squared loss with LinearNoise on the uniform sphere has the closed
    form ||h - teacher||^2 * B^2 / d + noise_sd^2 (plus the determinate
    ridge term); everything else falls back to Monte Carlo with the given
    number of draws, row c's drawn on ``(seeds[c], "risk-mc")``. Rows are
    drawn and scored by ``values_raw`` in blocks of at most
    ``_BLOCK_EXAMPLES`` points (one row at least); no row reads another.
    """
    H = loss.check_hypothesis(H)
    if H.ndim != 2 or H.shape[1] != spec.dim:
        raise ValueError("hypothesis dimension does not match the distribution")
    if len(seeds) != len(H):
        raise ValueError("true_risks needs one seed per hypothesis")
    closed = (
        loss.kind == "squared"
        and isinstance(spec.mechanism, LinearNoise)
        and spec.feature_law == "sphere"
    )
    if closed:
        G = H - spec.teacher
        values = _matvec(G[:, None, :], G)[:, 0] * spec.feature_bound**2 / spec.dim
        values += spec.mechanism.noise_sd**2
        if loss.ridge_term:
            values += loss.ridge_term * _matvec(H[:, None, :], H)[:, 0]
        return values
    if draws < 2:
        raise ValueError("draws must be >= 2 for a Monte Carlo estimate")
    values = np.empty(len(H))
    step = max(1, _BLOCK_EXAMPLES // draws)
    for start in range(0, len(H), step):
        rows = slice(start, start + step)
        X, y = _sample_stack(spec, draws, [stream_key(seed, "risk-mc") for seed in seeds[rows]])
        values[rows] = loss.values_raw(H[rows], X, y).mean(axis=1)
    return values
