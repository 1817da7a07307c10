"""Deterministic derivation of independent random streams.

Every stochastic routine in the package takes an integer seed and derives
the streams it needs from (seed, label, ...) paths. Streams with distinct
paths are independent, replayable, and insensitive to execution order,
which is what makes reports bitwise reproducible.

A label names its path component by the ``repr`` of its plain Python
value: NumPy integers, floats and booleans hash as the ``int``, ``float``
and ``bool`` they equal, so a path does not depend on the type that
carries an index. Other label types are rejected.
"""

from __future__ import annotations

import hashlib

import numpy as np


_PLAIN_LABELS = frozenset((int, float, str, bool))


def _canonical_label(label):
    """The plain int, float, str or bool whose repr names the label's path component."""
    if type(label) in _PLAIN_LABELS:
        return label
    if isinstance(label, (bool, np.bool_)):
        return bool(label)
    if isinstance(label, (int, np.integer)):
        return int(label)
    if isinstance(label, (float, np.floating)):
        return float(label)
    if isinstance(label, str):
        return str(label)
    raise TypeError(
        f"seed labels must be int, float, str or bool, not {type(label).__name__}"
    )


def stream_key(master_seed: int, *labels: object) -> int:
    """128-bit Philox key derived from a master seed and a label path."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(master_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(repr(_canonical_label(label)).encode())
    return int.from_bytes(h.digest(), "big")


def child_seed(master_seed: int, *labels: object) -> int:
    """63-bit integer seed for handing to APIs that take a plain seed."""
    return stream_key(master_seed, *labels) & ((1 << 63) - 1)


def substream(master_seed: int, *labels: object) -> np.random.Generator:
    """Counter-based generator bound to (master_seed, labels)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *labels)))


def rademacher_signs(rng: np.random.Generator, size) -> np.ndarray:
    """Independent uniform ±1 variables."""
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
