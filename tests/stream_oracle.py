"""Serial reference for the batched random streams.

Per-item streams get one fresh ``Generator(Philox(key=k))`` per item, as
the per-row and per-run loops built them before the batched primitives of
``stabilab.seeding`` replaced them. Sign rows are replayed one at a time:
row j is the batch's Philox stream advanced to block j * ceil(n / 8), read
by ``rademacher_signs``, so the raw-word reading of ``sign_rows`` is not
shared. Every batched path must give bitwise the same values.
"""

import numpy as np

from stabilab.datagen import _draw
from stabilab.seeding import rademacher_signs, stream_key, substream


def serial_draw_each(keys, draw) -> list:
    return [draw(np.random.Generator(np.random.Philox(key=key))) for key in keys]


def serial_sign_row(master_seed, labels, n: int, j: int) -> np.ndarray:
    bit_generator = np.random.Philox(key=stream_key(master_seed, *labels))
    bit_generator.advance(j * ((n + 7) // 8))
    return rademacher_signs(np.random.Generator(bit_generator), n)


def serial_sign_rows(master_seed, labels, rows: int, n: int) -> np.ndarray:
    out = np.empty((rows, n))
    for j in range(rows):
        out[j] = serial_sign_row(master_seed, labels, n, j)
    return out


def serial_pinelis_signs(seed: int, trials: int, steps: int) -> np.ndarray:
    """The sign matrix of ``pinelis_tail_experiment``, replayed one trial at a time."""
    return serial_sign_rows(seed, ("pinelis",), trials, steps)


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
    """The sigma of each antithetic pair, replayed one pair at a time."""
    return serial_sign_rows(seed, ("sigma",), pairs, n)


def serial_draw_examples(spec, seeds):
    X = np.empty((len(seeds), spec.dim))
    y = np.empty(len(seeds))
    for c, seed in enumerate(seeds):
        X[c : c + 1], y[c : c + 1] = _draw(spec, substream(seed, "datagen"), 1)
    return X, y


def serial_sgd_index_streams(seeds, n: int, steps: int) -> np.ndarray:
    rows = [substream(s, "sgd-indices").integers(0, n, size=steps) for s in seeds]
    return np.array(rows, dtype=np.int64).reshape(len(rows), steps)
