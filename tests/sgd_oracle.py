"""Serial reference for the stacked SGD kernel.

One example at a time through ``LossModel.gradient``, which checks the
domain of every iterate and example it sees. The library's kernel must
agree with it to rounding on every entry point: single runs, batched fits
and coupled twins.
"""

import numpy as np

from stabilab import NonFiniteIterateError
from stabilab.learners import check_sample_domain
from stabilab.seeding import substream


def serial_sgd(sample, loss, spec) -> np.ndarray:
    """The trajectory h_0 .. h_T of one SGD pass, as a (T + 1, d) array."""
    spec.validate_against(loss)
    check_sample_domain(loss, sample)
    alphas = spec.step_sizes()
    idx = substream(spec.seed, "sgd-indices").integers(0, sample.n, size=spec.steps)
    h = np.zeros(sample.dim)
    traj = [h]
    for t in range(spec.steps):
        h = h - alphas[t] * loss.gradient(h, sample.example(int(idx[t])))
        if spec.projection_radius is not None:
            nrm = float(np.linalg.norm(h))
            if nrm > spec.projection_radius:
                h = h * (spec.projection_radius / nrm)
        if not np.all(np.isfinite(h)):
            raise NonFiniteIterateError(step=t + 1)
        traj.append(h)
    return np.array(traj)
