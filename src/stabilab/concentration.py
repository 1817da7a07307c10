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

Both refit experiments draw each batch of replicate samples as one
(C, n, d) stack and fit it through the preset's ``fit_many``, so SGD and
ridge presets fit all replicates of a batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import ball_radius, estimate_center
from .datagen import DistributionSpec, draw_samples, fit_replicates
from .learners import Sample
from .seeding import child_seed, rademacher_rows, stream_keys


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

    def binomial_std_error(self) -> float:
        p = self.empirical_rate
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "trials": self.trials,
            "violations": self.violations,
            "empirical_rate": self.empirical_rate,
            "theoretical_rate": self.theoretical_rate,
            "seed": self.seed,
        }


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
    signs = rademacher_rows(
        stream_keys(seed, "pinelis", each=range(trials)), np.empty((trials, steps))
    )
    coords = np.zeros((trials, dim))
    violated = np.zeros(trials, dtype=bool)
    for t in range(steps):
        coords[:, t % dim] += bounds[t] * signs[:, t]
        norm_sq = np.einsum("kd,kd->k", coords, coords)
        violated |= norm_sq >= threshold_sq
    violations = int(violated.sum())
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

    def combined_std_error(self) -> float:
        return float(np.sqrt(np.sum(self.std_errors**2)))


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
        suffix_seeds = [child_seed(seed, "suffix", t, k) for k in draws]
        X[:, t:], y[:, t:] = draw_samples(dist, n - t, suffix_seeds)
        try:
            fits = algorithm.fit_many(X, y, [child_seed(seed, "suffix-fit", t, k) for k in draws])
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


def center_concentration_experiment(
    algorithm,
    dist: DistributionSpec,
    n: int,
    trials: int,
    delta: float,
    alpha: float,
    seed: int = 0,
    center_replicates: int | None = None,
) -> TailExperiment:
    """Rate of ||h_S - center|| exceeding the stability radius r(n, delta).

    The center is estimated from at least 4 * trials replicates drawn
    independently of the trial fits; the theoretical rate is delta itself.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if center_replicates is None:
        center_replicates = 4 * trials
    if center_replicates < 4 * trials:
        raise ValueError("center_replicates must be at least 4 * trials")
    radius = ball_radius(1.0, alpha, n, delta)
    center = estimate_center(
        algorithm, dist, n, m=center_replicates, seed=child_seed(seed, "center")
    )
    fits, _, _ = fit_replicates(algorithm, dist, n, trials, seed, "trial")
    distances = np.linalg.norm(fits - center.vector[None, :], axis=1)
    violations = int(np.sum(distances > radius))
    return TailExperiment(
        threshold=radius,
        trials=trials,
        violations=violations,
        empirical_rate=violations / trials,
        theoretical_rate=delta,
        seed=seed,
    )
