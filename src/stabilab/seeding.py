"""Deterministic derivation of independent random streams.

Every stochastic routine in the package takes an integer seed and derives
the streams it needs from (seed, label, ...) paths. Streams with distinct
paths are independent, replayable, and insensitive to execution order,
which is what makes reports bitwise reproducible.

A label names its path component by the ``repr`` of its plain Python
value: NumPy integers, floats and booleans hash as the ``int``, ``float``
and ``bool`` they equal, so a path does not depend on the type that
carries an index. Other label types are rejected.

A batch of sign rows (the antithetic pairs of a Rademacher estimate, the
trials of a martingale tail) reads one Philox stream keyed by the batch
path, with each row at a fixed block offset (Salmon, Moraes, Dror & Shaw
2011, "Parallel random numbers: as easy as 1, 2, 3"). :func:`sign_rows`
fills them; any row replays alone through ``Philox.advance``, and a row
depends only on (seed, path, width, row index), so raising the number of
rows leaves the earlier rows unchanged.

Loops that need one stream per item (a sample of a stack, an SGD run) use
:func:`draw_each`, which runs a draw on the stream of each key through one
re-keyed generator. It gives bitwise what the per-item :func:`substream`
draw gives, because a Philox stream is fully defined by its 128-bit key:
re-keying puts the bit generator in the exact state of a fresh
``Philox(key=k)`` (counter 0, empty buffer, no cached 32-bit half).
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


def _extend(h, label) -> None:
    h.update(b"/" + repr(_canonical_label(label)).encode())


def _path_hash(master_seed: int, labels):
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(master_seed)).encode())
    for label in labels:
        _extend(h, label)
    return h


def stream_key(master_seed: int, *labels: object) -> int:
    """128-bit Philox key derived from a master seed and a label path."""
    return int.from_bytes(_path_hash(master_seed, labels).digest(), "big")


def child_seed(master_seed: int, *labels: object) -> int:
    """63-bit integer seed for handing to APIs that take a plain seed."""
    return stream_key(master_seed, *labels) & ((1 << 63) - 1)


def substream(master_seed: int, *labels: object) -> np.random.Generator:
    """Counter-based generator bound to (master_seed, labels)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *labels)))


_WORD = (1 << 64) - 1
_EMPTY = (0, 0, 0, 0)


def _rekey(bit_generator: np.random.Philox, key: int) -> None:
    """Put ``bit_generator`` in the exact state of a fresh ``Philox(key=key)``."""
    if not 0 <= key <= (1 << 128) - 1:
        raise ValueError("a Philox key must lie in [0, 2**128)")
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": (key & _WORD, key >> 64)},
        "buffer": _EMPTY,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def draw_each(keys, draw) -> list:
    """``[draw(Generator(Philox(key=k))) for k in keys]`` through one generator.

    The generator is re-keyed before every draw, so ``draw`` must not keep
    it past its own call.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    results = []
    for key in keys:
        _rekey(bit_generator, key)
        results.append(draw(rng))
    return results


# Raw 64-bit words held at once by sign_rows (at least one row's worth).
_CHUNK_WORDS = 1 << 16


def sign_rows(master_seed: int, *labels: object, out: np.ndarray) -> np.ndarray:
    """Fill the (rows, n) array ``out`` with uniform ±1 signs; returns ``out``.

    All rows come from one ``Philox(key=stream_key(master_seed, *labels))``.
    Row j reads the four-word blocks [j * B, (j + 1) * B) with
    B = ceil(n / 8): each sign is the top bit of one 32-bit half of a raw
    word, low half first, and the unused words at the end of a row are
    skipped. So row j is ``Generator(bg).integers(0, 2, n) * 2.0 - 1.0`` after
    ``bg = Philox(key=k); bg.advance(j * B)``, and it does not depend on
    how many rows ``out`` has. Raw words are read in chunks of whole rows,
    which bounds the memory held beside ``out``.
    """
    rows, n = out.shape
    words = 4 * ((n + 7) // 8)
    bit_generator = np.random.Philox(key=stream_key(master_seed, *labels))
    step = max(1, _CHUNK_WORDS // max(words, 1))
    for start in range(0, rows, step):
        block = out[start : start + step]
        raw = bit_generator.random_raw(len(block) * words).reshape(len(block), words)
        halves = raw.astype("<u8", copy=False).view("<u4")
        np.multiply(halves[:, :n] >> 31, 2.0, out=block)
        block -= 1.0
    return out
