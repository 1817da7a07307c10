"""Serial reference for the stacked SGD kernel.

One example at a time: each step checks the iterate and the example it
sees against the domain (``check_hypothesis``, ``check_examples``), then
moves along ``risk_gradient_raw`` on that one-row sample. The library's
kernel must agree with it to rounding on every entry point: single runs,
batched fits and coupled twins.
"""

import numpy as np

from stabilab import NonFiniteIterateError
from stabilab.seeding import substream

from sample_oracle import example


def serial_sgd(sample, loss, spec, seed) -> np.ndarray:
    """The trajectory h_0 .. h_T of one SGD pass with ``seed``, as a (T + 1, d) array."""
    consts = loss.constants()
    if spec.regime != "nonconvex":
        if consts.smoothness is None:
            raise ValueError(f"{spec.regime} regime requires a certified smoothness")
        spec.check_step_cap(consts.smoothness)
        if spec.regime == "strongly_convex" and consts.strong_convexity <= 0:
            raise ValueError("strongly_convex regime needs a strongly convex objective")
    loss.check_examples(sample.features, sample.labels)
    alphas = spec.step_sizes()
    idx = substream(seed, "sgd-indices").integers(0, sample.n, size=spec.steps)
    h = np.zeros(sample.dim)
    traj = [h]
    for t in range(spec.steps):
        x, y = example(sample, int(idx[t]))
        loss.check_hypothesis(h)
        loss.check_examples(x, y)
        h = h - alphas[t] * loss.risk_gradient_raw(h, x[None, :], np.array([y]))
        if spec.projection_radius is not None:
            nrm = float(np.linalg.norm(h))
            if nrm > spec.projection_radius:
                h = h * (spec.projection_radius / nrm)
        if not np.all(np.isfinite(h)):
            raise NonFiniteIterateError(step=t + 1)
        traj.append(h)
    return np.array(traj)
