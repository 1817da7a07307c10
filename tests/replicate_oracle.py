"""Serial reference for the replicate path.

One sample and one ``algorithm.fit`` per replicate, as the center,
concentration-trial, Doob and coverage loops ran before they drew their
samples as one (C, n, d) stack and fitted it through ``fit_many``. A
replicate sample is drawn alone by the frozen per-row sampler of
``stream_oracle`` on its one key, ``stream_key(seed, f"{label}-sample",
j)``. Every stacked path must give bitwise the same fits and reported
values.
"""

import math

import numpy as np

from stabilab.bounds import deformed_gap
from stabilab.complexity import ball_radius
from stabilab.datagen import draw_sample, true_risks
from stabilab.learners import Sample
from stabilab.seeding import child_seed, substream

from stream_oracle import serial_draw


def replicate_sample(dist, n, seed, label, j) -> Sample:
    """Replicate j's sample, drawn alone on the key of (seed, label-sample, j)."""
    return Sample(*serial_draw(dist, substream(seed, f"{label}-sample", j), n))


def serial_fits(algorithm, dist, n, count, seed, label):
    """(fits, samples): replicate j draws on the key of (seed, label-sample, j)
    and fits on (seed, label-fit, j)."""
    samples, fits = [], []
    for j in range(count):
        sample = replicate_sample(dist, n, seed, label, j)
        samples.append(sample)
        fits.append(algorithm.fit(sample, seed=child_seed(seed, f"{label}-fit", j)))
    return np.stack(fits), samples


def serial_plan(algorithm, dist, n, groups, sample=None) -> list:
    """The fits of each group of a fit plan, one group at a time: a fit of
    the sample alone on the group's seed, or a replicate group's serial
    fits."""
    fits = []
    for group in groups:
        if group.count is None:
            fits.append(algorithm.fit(sample, seed=group.seed)[None])
        else:
            fits.append(serial_fits(algorithm, dist, n, group.count, group.seed, group.label)[0])
    return fits


def serial_center(algorithm, dist, n, m, seed):
    """(mean, per-coordinate standard error) of m >= 2 refits, as a record's
    complexity stage summarizes its center replicates."""
    fits, _ = serial_fits(algorithm, dist, n, m, seed, "center")
    return fits.mean(axis=0), fits.std(axis=0, ddof=1) / math.sqrt(m)


def serial_trials(algorithm, dist, n, trials, delta, alpha, seed):
    """(trial fits, violations) of center_concentration_experiment with 4 *
    trials center replicates, centered on their mean, or on their one
    vector when every replicate is the same."""
    center_seed = child_seed(seed, "center")
    replicates, _ = serial_fits(algorithm, dist, n, 4 * trials, center_seed, "center")
    same = all(np.array_equal(row, replicates[0]) for row in replicates)
    center = replicates[0] if same else replicates.mean(axis=0)
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
    """(trials, 2) plain and deformed gaps of the coverage replications at
    coverage_n, each fit scored alone against its exact risk."""
    n, seed = config.coverage_n, config.seed
    loss = algorithm.loss_for(n)
    rows = []
    for rep in range(config.trials):
        sample = replicate_sample(config.distribution, n, seed, "coverage", rep)
        h = algorithm.fit(sample, seed=child_seed(seed, "coverage-fit", rep))
        X, y = sample.features, sample.labels
        loss.check_examples(X, y)
        emp = float(loss.values_raw(loss.check_hypothesis(h), X, y).mean())
        true = float(true_risks(loss, [h], config.distribution)[0])
        rows.append((true - emp, deformed_gap(true, emp, config.a)))
    return np.array(rows)
