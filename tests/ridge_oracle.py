"""Serial reference for the stacked ridge solve.

One sample at a time: the normal equations of that sample, a lone 2-D
``np.linalg.solve``, one refinement pass when the residual norm exceeds
1e-14, and the gradient certificate. The library's stacked solve must give
bitwise the same hypothesis for single and batched fits.

A replace-one twin is a rank-two update of the sample's Gram matrix and
moment, so ``serial_ridge_twin`` forms that update for one cell and solves
it the same way; the library's twin rows must equal it bitwise, and the
fit on the replaced sample's own normal equations to rounding.
"""

import numpy as np

from stabilab import ConvergenceError


def serial_ridge(sample, lam: float) -> np.ndarray:
    X, y = sample.features, sample.labels
    n, d = X.shape
    return serial_solve(X.T @ X / n + lam * np.eye(d), X.T @ y / n)


def serial_ridge_twin(sample, lam: float, i: int, z, z_y: float) -> np.ndarray:
    """The fit on ``sample`` with example i swapped for (z, z_y), by the rank-two update."""
    return serial_solve(*twin_normal_equations(sample, lam, i, z, z_y))


def twin_normal_equations(sample, lam: float, i: int, z, z_y: float):
    """(A, b) of the rank-two update: (G + z z^T - x_i x_i^T)/n + lam I, (g + z z_y - x_i y_i)/n."""
    X, y = sample.features, sample.labels
    n, d = X.shape
    A = (X.T @ X + np.outer(z, z) - np.outer(X[i], X[i])) / n + lam * np.eye(d)
    b = (X.T @ y + z * z_y - X[i] * y[i]) / n
    return A, b


def serial_solve(A, b) -> np.ndarray:
    h = np.linalg.solve(A, b)
    resid = b - A @ h
    if np.linalg.norm(resid) > 1e-14:
        h = h + np.linalg.solve(A, resid)
    grad_norm = 2.0 * float(np.linalg.norm(A @ h - b))
    if grad_norm >= 1e-10:
        raise ConvergenceError("ridge normal equations left a large residual", grad_norm)
    return h
