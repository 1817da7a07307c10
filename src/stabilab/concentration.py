"""Simulation checks for the martingale arguments behind the bounds.

Three experiments:

* :func:`pinelis_tail_experiment` - a bounded vector-valued martingale
  (symmetric signs on cycling basis directions) is simulated and the rate
  of the prefix-maximum event ``max_t ||S_t|| >= c * eps`` is compared to
  the tail ``2 exp(-eps^2 / (2 D^2))``, with ``c = sqrt(sum b_t^2)``.
* :func:`doob_decomposition` - the conditional means
  E(h_S | first t examples), estimated by refitting with the suffix
  resampled, whose increments a stable algorithm keeps below alpha(n).
* :func:`center_concentration_experiment` - the rate at which a freshly
  trained hypothesis leaves the radius-r ball around the estimated mean,
  compared to the nominal level delta.

Both refit experiments draw replicate samples as (C, n, d) stacks and fit
them through the preset's ``fit_many``, so SGD and ridge presets fit many
replicates at once. The Doob experiment fits each prefix's batch as one
stack; the center experiment's two replicate groups are one fit plan
(``datagen.fit_plan``), drawn and fitted in stacks of one fixed memory
budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .complexity import ball_radius
from .datagen import DistributionSpec, FitGroup, draw_samples, fit_plan
from .learners import Sample
from .losses import _BLOCK_FLOATS
from .seeding import child_seed, child_seeds, sign_blocks


@dataclass(frozen=True)
class TailExperiment:
    """Observed frequency of a tail event next to its theoretical rate."""

    threshold: float
    trials: int
    violations: int
    empirical_rate: float
    theoretical_rate: float
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.violations <= self.trials:
            raise ValueError("violations must lie in [0, trials]")

    def to_dict(self) -> dict:
        return asdict(self)


def pinelis_tail_experiment(
    increment_bounds,
    dim: int,
    trials: int,
    epsilon: float,
    smooth_constant: float = 1.0,
    seed: int = 0,
) -> TailExperiment:
    """Tail of the prefix maximum of a bounded martingale in R^dim.

    Step t adds ``b_t * sign * e_{t mod dim}``; signs are independent and
    symmetric, so the sequence is a martingale difference sequence with
    ||D_t|| <= b_t surely. The event counted is
    ``max over prefixes ||S_t|| >= c * epsilon`` with c = sqrt(sum b_t^2),
    against the theoretical rate min(1, 2 exp(-epsilon^2 / (2 D^2))).

    Trial k's signs are row k of the one sign stream ``(seed, "pinelis")``
    (see :func:`sign_blocks`), so a trial replays alone and does not depend
    on ``trials``. The trials run in blocks of at most
    ``_BLOCK_FLOATS // dim`` and ``8 * _BLOCK_FLOATS // steps``, so that
    neither a block's coordinates nor its one sign byte a step pass 1 MiB
    and the steps run once a block; a trial's arithmetic does not depend on
    its block.
    """
    bounds = np.asarray(increment_bounds, dtype=np.float64)
    if bounds.ndim != 1 or bounds.size == 0:
        raise ValueError("increment_bounds must be a non-empty sequence")
    if not np.all(np.isfinite(bounds)) or np.any(bounds <= 0):
        raise ValueError("increment bounds must be positive and finite")
    if trials < 100:
        raise ValueError("trials must be >= 100 for a meaningful rate")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if smooth_constant <= 0:
        raise ValueError("smooth_constant must be positive")
    steps = bounds.size
    c = float(np.sqrt(np.sum(bounds**2)))
    threshold_sq = (c * epsilon) ** 2
    block = max(1, min(_BLOCK_FLOATS // dim, 8 * _BLOCK_FLOATS // steps))
    violations = 0
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        # Step t's signs are the contiguous row bits[t], one byte a trial.
        bits = np.empty((steps, hi - lo), dtype=np.uint8)
        at = 0
        for chunk in sign_blocks(seed, "pinelis", rows=range(lo, hi), n=steps):
            bits[:, at : at + len(chunk)] = chunk.T
            at += len(chunk)
        coords = np.zeros((hi - lo, dim))
        violated = np.zeros(hi - lo, dtype=bool)
        for t in range(steps):
            # A bit b gives b * 2 b_t - b_t, which is exactly +b_t or -b_t.
            coords[:, t % dim] += bits[t] * (2.0 * bounds[t]) - bounds[t]
            violated |= np.einsum("kd,kd->k", coords, coords) >= threshold_sq
        violations += int(violated.sum())
    theoretical = min(1.0, 2.0 * math.exp(-(epsilon**2) / (2.0 * smooth_constant**2)))
    return TailExperiment(
        threshold=epsilon,
        trials=trials,
        violations=violations,
        empirical_rate=violations / trials,
        theoretical_rate=theoretical,
        seed=seed,
    )


@dataclass(frozen=True)
class DoobDecomposition:
    """Estimated conditional means E(h_S | Z_1..Z_t) for t = 0..n.

    ``conditional_means[t]`` averages ``suffix_draws`` refits whose last
    n - t examples were resampled; row n is the plain fit on the full
    sample, so the increments telescope to h_S minus the row-0 center
    estimate by construction.
    """

    conditional_means: np.ndarray
    std_errors: np.ndarray
    suffix_draws: int
    seed: int

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.conditional_means, axis=0)

    def increment_norms(self) -> list:
        return [float(v) for v in np.linalg.norm(self.increments, axis=1)]

    def telescoping_residual(self) -> float:
        """||sum of increments - (h_S - center estimate)||; 0 up to rounding."""
        total = self.increments.sum(axis=0)
        direct = self.conditional_means[-1] - self.conditional_means[0]
        return float(np.linalg.norm(total - direct))


def doob_decomposition(
    algorithm,
    sample: Sample,
    dist: DistributionSpec,
    suffix_draws: int,
    seed: int = 0,
) -> DoobDecomposition:
    """Nested-Monte-Carlo estimate of the Doob martingale of h_S."""
    n = sample.n
    if n > 16:
        raise ValueError("doob estimation is budgeted for n <= 16")
    if suffix_draws < 256:
        raise ValueError("suffix_draws must be >= 256")
    if sample.dim != dist.dim:
        raise ValueError("sample dimension does not match the distribution")
    dim = sample.dim
    means = np.zeros((n + 1, dim))
    errors = np.zeros(n + 1)
    draws = range(suffix_draws)
    for t in range(n):
        # Every replicate keeps the first t examples and resamples the rest.
        X, y = np.empty((suffix_draws, n, dim)), np.empty((suffix_draws, n))
        X[:, :t], y[:, :t] = sample.features[:t], sample.labels[:t]
        X[:, t:], y[:, t:] = draw_samples(dist, n - t, child_seeds(seed, "suffix", t, items=draws))
        try:
            fits = algorithm.fit_many(X, y, child_seeds(seed, "suffix-fit", t, items=draws))
        except Exception as exc:
            raise RuntimeError(f"conditional mean at t={t} failed: {exc}") from exc
        means[t] = fits.mean(axis=0)
        errors[t] = float(
            np.linalg.norm(fits.std(axis=0, ddof=1)) / math.sqrt(suffix_draws)
        )
    try:
        means[n] = algorithm.fit(sample, seed=child_seed(seed, "doob-final"))
    except Exception as exc:
        raise RuntimeError(f"final fit failed: {exc}") from exc
    errors[n] = 0.0
    return DoobDecomposition(
        conditional_means=means,
        std_errors=errors,
        suffix_draws=suffix_draws,
        seed=seed,
    )


def tail_groups(trials: int, seed: int) -> list:
    """The (center, trial) replicate groups of :func:`center_concentration_experiment`."""
    center = FitGroup("center", child_seed(seed, "center"), 4 * trials)
    return [center, FitGroup("trial", seed, trials)]


def center_concentration_experiment(
    algorithm,
    dist: DistributionSpec,
    n: int,
    trials: int,
    delta: float,
    alpha: float,
    seed: int = 0,
) -> TailExperiment:
    """Rate of ||h_S - center|| exceeding the stability radius r(n, delta).

    The center is estimated from 4 * trials replicates drawn independently
    of the trial fits; the theoretical rate is delta itself.
    The fits are those of :func:`tail_groups`, and :func:`tail_of` summarizes them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    ball_radius(1.0, alpha, n, delta)  # checks alpha and n before any fit
    center_fits, trial_fits = fit_plan(algorithm, dist, n, tail_groups(trials, seed))
    return tail_of(center_fits, trial_fits, n, delta, alpha, seed)


def tail_of(center_fits, trial_fits, n: int, delta: float, alpha: float, seed: int):
    """The tail experiment of trial fits around the mean of the center fits,
    or around their one vector when all are equal, which a mean would round."""
    radius = ball_radius(1.0, alpha, n, delta)
    same = (center_fits == center_fits[0]).all()
    center = center_fits[0] if same else center_fits.mean(axis=0)
    distances = np.linalg.norm(trial_fits - center[None, :], axis=1)
    violations = int(np.sum(distances > radius))
    trials = len(trial_fits)
    return TailExperiment(
        threshold=radius,
        trials=trials,
        violations=violations,
        empirical_rate=violations / trials,
        theoretical_rate=delta,
        seed=seed,
    )
