"""Serial reference for the stacked ridge solve.

One sample at a time: the normal equations of that sample, a lone 2-D
``np.linalg.solve``, one refinement pass when the residual norm exceeds
1e-14, and the gradient certificate. The library's stacked solve must give
bitwise the same hypothesis on every entry point: single fits, batched
fits and replace-one twins.
"""

import numpy as np

from stabilab import ConvergenceError


def serial_ridge(sample, lam: float) -> np.ndarray:
    X, y = sample.features, sample.labels
    n, d = X.shape
    A = X.T @ X / n + lam * np.eye(d)
    b = X.T @ y / n
    h = np.linalg.solve(A, b)
    resid = b - A @ h
    if np.linalg.norm(resid) > 1e-14:
        h = h + np.linalg.solve(A, resid)
    grad_norm = 2.0 * float(np.linalg.norm(A @ h - b))
    if grad_norm >= 1e-10:
        raise ConvergenceError("ridge normal equations left a large residual", grad_norm)
    return h
