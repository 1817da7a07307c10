"""One-example helpers for the serial references.

The per-cell oracles read one example of a sample, or rebuild a sample
with one example swapped, to refit it alone; the library's stacked paths
never do either.
"""

from stabilab import LabeledExample, Sample


def example(sample: Sample, i: int) -> LabeledExample:
    if not 0 <= i < sample.n:
        raise ValueError(f"index {i} out of range for sample of size {sample.n}")
    return LabeledExample(sample.features[i].copy(), float(sample.labels[i]))


def replaced(sample: Sample, i: int, z: LabeledExample) -> Sample:
    """A copy of the sample with example i swapped for z."""
    if not 0 <= i < sample.n:
        raise ValueError(f"index {i} out of range for sample of size {sample.n}")
    if z.x.shape != (sample.dim,):
        raise ValueError("replacement example has the wrong dimension")
    X = sample.features.copy()
    y = sample.labels.copy()
    X[i] = z.x
    y[i] = z.y
    return Sample(X, y)
