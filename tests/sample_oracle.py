"""One-example helpers for the serial references.

The per-cell oracles read one example of a sample, or rebuild a sample
with one example swapped, to refit it alone; the library's stacked paths
never do either. An example is a pair (x, y): a copy of the feature row
and the label as a float.
"""

import numpy as np

from stabilab import Sample


def example(sample: Sample, i: int):
    if not 0 <= i < sample.n:
        raise ValueError(f"index {i} out of range for sample of size {sample.n}")
    return sample.features[i].copy(), float(sample.labels[i])


def replaced(sample: Sample, i: int, x, y) -> Sample:
    """A copy of the sample with example i swapped for (x, y)."""
    if not 0 <= i < sample.n:
        raise ValueError(f"index {i} out of range for sample of size {sample.n}")
    if np.shape(x) != (sample.dim,):
        raise ValueError("replacement example has the wrong dimension")
    X = sample.features.copy()
    y_all = sample.labels.copy()
    X[i] = x
    y_all[i] = y
    return Sample(X, y_all)
