"""Serial reference for the replicate path.

One ``draw_sample`` and one ``algorithm.fit`` per replicate, as the center,
concentration-trial, Doob and coverage loops ran before they drew their
samples as one (C, n, d) stack and fitted it through ``fit_many``. Every
stacked path must give bitwise the same fits and reported values.
"""

import math

import numpy as np

from stabilab.bounds import deformed_gap
from stabilab.complexity import ball_radius
from stabilab.datagen import draw_sample, true_risk
from stabilab.learners import Sample, empirical_risk
from stabilab.seeding import child_seed


def serial_fits(algorithm, dist, n, count, seed, label):
    """(fits, samples): replicate j draws on (seed, label-sample, j), fits on (seed, label-fit, j)."""
    samples, fits = [], []
    for j in range(count):
        sample = draw_sample(dist, n, child_seed(seed, f"{label}-sample", j))
        samples.append(sample)
        fits.append(algorithm.fit(sample, seed=child_seed(seed, f"{label}-fit", j)))
    return np.stack(fits), samples


def serial_center(algorithm, dist, n, m, seed):
    """(mean, per-coordinate standard error or None) of m refits, as estimate_center reports them."""
    fits, _ = serial_fits(algorithm, dist, n, m, seed, "center")
    se = None if m == 1 else fits.std(axis=0, ddof=1) / math.sqrt(m)
    return fits.mean(axis=0), se


def serial_trials(algorithm, dist, n, trials, delta, alpha, seed):
    """(trial fits, violations) of center_concentration_experiment with 4 * trials center replicates."""
    center, _ = serial_center(algorithm, dist, n, 4 * trials, child_seed(seed, "center"))
    fits, _ = serial_fits(algorithm, dist, n, trials, seed, "trial")
    distances = np.linalg.norm(fits - center[None, :], axis=1)
    return fits, int(np.sum(distances > ball_radius(1.0, alpha, n, delta)))


def serial_doob(algorithm, sample, dist, suffix_draws, seed):
    """(conditional means, standard errors) of doob_decomposition."""
    n = sample.n
    means = np.zeros((n + 1, sample.dim))
    errors = np.zeros(n + 1)
    for t in range(n):
        fits = []
        for k in range(suffix_draws):
            suffix = draw_sample(dist, n - t, child_seed(seed, "suffix", t, k))
            replicate = Sample(
                np.concatenate([sample.features[:t], suffix.features]),
                np.concatenate([sample.labels[:t], suffix.labels]),
            )
            fits.append(algorithm.fit(replicate, seed=child_seed(seed, "suffix-fit", t, k)))
        fits = np.stack(fits)
        means[t] = fits.mean(axis=0)
        errors[t] = float(np.linalg.norm(fits.std(axis=0, ddof=1)) / math.sqrt(suffix_draws))
    means[n] = algorithm.fit(sample, seed=child_seed(seed, "doob-final"))
    return means, errors


def serial_coverage_rows(config, algorithm):
    """(trials, 2) plain and deformed gaps of the coverage replications at coverage_n."""
    n, seed = config.coverage_n, config.seed
    loss = algorithm.loss_for(n)
    rows = []
    for rep in range(config.trials):
        sample = draw_sample(config.distribution, n, child_seed(seed, "coverage-sample", rep))
        h = algorithm.fit(sample, seed=child_seed(seed, "coverage-fit", rep))
        emp = empirical_risk(loss, h, sample)
        risk_seed = child_seed(seed, "coverage-risk", rep)
        true = true_risk(loss, h, config.distribution, draws=2048, seed=risk_seed).value
        rows.append((true - emp, deformed_gap(true, emp, config.a)))
    return np.array(rows)
