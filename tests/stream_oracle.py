"""Serial reference for the batched random streams.

One fresh ``Generator(Philox(key=k))`` per item, as the per-trial, per-pair,
per-row and per-run loops built them before the batched primitives of
``stabilab.seeding`` replaced them. Every batched path must give bitwise
the same values.
"""

import numpy as np

from stabilab.datagen import _draw
from stabilab.seeding import rademacher_signs, stream_key, substream


def serial_stream_keys(master_seed, prefix, labels) -> list:
    return [stream_key(master_seed, *prefix, label) for label in labels]


def serial_draw_each(keys, draw) -> list:
    return [draw(np.random.Generator(np.random.Philox(key=key))) for key in keys]


def serial_rademacher_rows(keys, n: int) -> np.ndarray:
    rows = [
        rademacher_signs(np.random.Generator(np.random.Philox(key=key)), n) for key in keys
    ]
    return np.array(rows, dtype=np.float64).reshape(len(rows), n)


def serial_pinelis_signs(seed: int, trials: int, steps: int) -> np.ndarray:
    """The sign matrix of ``pinelis_tail_experiment``, one stream per trial."""
    signs = np.empty((trials, steps))
    for k in range(trials):
        signs[k] = rademacher_signs(substream(seed, "pinelis", k), steps)
    return signs


def serial_pinelis_violations(bounds, dim: int, trials: int, epsilon: float, seed: int) -> int:
    bounds = np.asarray(bounds, dtype=np.float64)
    signs = serial_pinelis_signs(seed, trials, bounds.size)
    threshold_sq = (float(np.sqrt(np.sum(bounds**2))) * epsilon) ** 2
    coords = np.zeros((trials, dim))
    violated = np.zeros(trials, dtype=bool)
    for t in range(bounds.size):
        coords[:, t % dim] += bounds[t] * signs[:, t]
        violated |= np.einsum("kd,kd->k", coords, coords) >= threshold_sq
    return int(violated.sum())


def serial_antithetic_signs(seed: int, pairs: int, n: int) -> np.ndarray:
    out = np.empty((2 * pairs, n))
    for k in range(pairs):
        sigma = rademacher_signs(substream(seed, "sigma", k), n)
        out[2 * k] = sigma
        out[2 * k + 1] = -sigma
    return out


def serial_draw_examples(spec, seeds):
    X = np.empty((len(seeds), spec.dim))
    y = np.empty(len(seeds))
    for c, seed in enumerate(seeds):
        X[c : c + 1], y[c : c + 1] = _draw(spec, substream(seed, "datagen"), 1)
    return X, y


def serial_sgd_index_streams(seeds, n: int, steps: int) -> np.ndarray:
    rows = [substream(s, "sgd-indices").integers(0, n, size=steps) for s in seeds]
    return np.array(rows, dtype=np.int64).reshape(len(rows), steps)
