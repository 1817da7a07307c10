"""Serial reference for the batched random streams.

Per-item streams get one fresh ``Generator(Philox(key=k))`` per item, as
the per-row and per-run loops built them before the batched primitives of
``stabilab.seeding`` replaced them. Sign rows are replayed one at a time:
row j is the batch's Philox stream advanced to block j * ceil(n / 8), read
by ``rademacher_signs``, so the raw-word reading of ``sign_rows`` is not
shared. Samples are drawn one at a time by a frozen copy of the per-row
sampler that ``stabilab.datagen`` used before its one blocked sampler: the
features, their norms, scaling and margins, then the mechanism's labels,
all from one generator per sample. Every batched path must give bitwise
the same values.
"""

import numpy as np

from stabilab.datagen import LinearNoise, LogisticTeacher, SignFlip
from stabilab.losses import _sigmoid
from stabilab.seeding import stream_key, substream


def rademacher_signs(rng: np.random.Generator, size) -> np.ndarray:
    """Independent uniform ±1 variables, read as ``integers(0, 2)``."""
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0


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


def _serial_labels(mechanism, rng, margins):
    if isinstance(mechanism, LinearNoise):
        if mechanism.noise_sd == 0:
            return margins.copy()
        return margins + mechanism.noise_sd * rng.standard_normal(margins.shape[0])
    if isinstance(mechanism, LogisticTeacher):
        p = _sigmoid(margins)
        return np.where(rng.random(margins.shape[0]) < p, 1.0, -1.0)
    if isinstance(mechanism, SignFlip):
        base = np.where(margins >= 0, 1.0, -1.0)
        if mechanism.flip_prob == 0:
            return base
        flips = rng.random(margins.shape[0]) < mechanism.flip_prob
        return base * np.where(flips, -1.0, 1.0)
    raise TypeError(f"no serial reference for {type(mechanism).__name__}")


def serial_draw(spec, rng, n: int, min_norm: float = 1e-12):
    """n (features, label) rows from one generator, labels clipped to the bound."""
    g = rng.standard_normal((n, spec.dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < min_norm):
        bad = norms < min_norm
        g[bad] = rng.standard_normal((int(bad.sum()), spec.dim))
        norms = np.linalg.norm(g, axis=1)
    X = g / norms[:, None] * spec.feature_bound
    if spec.feature_law == "ball":
        X = X * rng.random(n)[:, None] ** (1.0 / spec.dim)
    y = _serial_labels(spec.mechanism, rng, X @ spec.teacher)
    if not spec.mechanism.classification():
        np.clip(y, -spec.label_bound, spec.label_bound, out=y)
    return X, y


def serial_draw_samples(spec, n: int, seeds, min_norm: float = 1e-12):
    """(C, n, d) features and (C, n) labels, sample c drawn alone on (seeds[c], "datagen")."""
    X = np.empty((len(seeds), n, spec.dim))
    y = np.empty((len(seeds), n))
    for c, seed in enumerate(seeds):
        X[c], y[c] = serial_draw(spec, substream(seed, "datagen"), n, min_norm)
    return X, y


def serial_sgd_index_streams(seeds, n: int, steps: int) -> np.ndarray:
    rows = [substream(s, "sgd-indices").integers(0, n, size=steps) for s in seeds]
    return np.array(rows, dtype=np.int64).reshape(len(rows), steps)
