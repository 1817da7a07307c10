"""Serial references for penalized ERM: the bisection prox and the one-sample solver.

``bisection_prox`` is the coordinatewise bisection the elementwise prox
replaced: it halves [0, |v|] on the first-order condition until the widest
coordinate's bracket is below 1e-12, then returns the midpoints (the prox
keeps this bisection for p other than 3/2 and 2, with a stop per entry).
``serial_rerm`` fits one sample at a time with ``PenaltySpec.prox``, the
objective and gradients of ``LossModel`` and ``np.linalg.norm``. The
library's stacked ``fit_rerm`` must give bitwise the same hypothesis on
every entry point: single fits, batched fits and replace-one twins.
"""

import math

import numpy as np

from stabilab import ConvergenceError


def bisection_prox(penalty, v, step: float) -> np.ndarray:
    w = step * penalty.lam
    a = np.abs(v)
    lo = np.zeros_like(a)
    hi = a.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        g = mid + w * penalty.p * mid ** (penalty.p - 1.0) - a
        high = g > 0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if float(np.max(hi - lo)) < 1e-12:
            break
    return np.sign(v) * 0.5 * (lo + hi)


def serial_rerm(sample, loss, penalty, tol: float, max_iter: int) -> np.ndarray:
    loss.check_examples(sample.features, sample.labels)
    X, y = sample.features, sample.labels

    def objective(h):
        return float(loss.values_raw(h, X, y).mean()) + penalty.lam * penalty.value(h)

    smoothness = loss.constants().smoothness
    if smoothness is not None:
        eta = 1.0 / smoothness
        x = np.zeros(sample.dim)
        fx = objective(x)
        mom = x
        tk = 1.0
        for _ in range(max_iter):
            z = penalty.prox(mom - eta * loss.risk_gradient_raw(mom, X, y), eta)
            fz = objective(z)
            if fz > fx:
                z = penalty.prox(x - eta * loss.risk_gradient_raw(x, X, y), eta)
                fz = objective(z)
                tk = 1.0
            tnext = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            mom = z + ((tk - 1.0) / tnext) * (z - x)
            x, fx, tk = z, fz, tnext
            grad = loss.risk_gradient_raw(x, X, y) + penalty.lam * penalty.gradient(x)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < tol:
                return x
        raise ConvergenceError("proximal gradient exhausted max_iter", gnorm)

    radius = (loss.value_at_zero() / penalty.lam) ** (1.0 / penalty.p)
    ggrad = loss.feature_bound + penalty.lam * penalty.p * radius ** (penalty.p - 1.0)
    step0 = max(radius, 1.0) / ggrad
    x = np.zeros(sample.dim)
    best = x
    fbest = objective(x)
    mark = fbest
    for k in range(max_iter):
        step = step0 / math.sqrt(k + 1.0)
        z = penalty.prox(x - step * loss.risk_gradient_raw(x, X, y), step)
        nrm = float(np.linalg.norm(z))
        if nrm > radius:
            z = z * (radius / nrm)
        x = z
        fz = objective(z)
        if fz < fbest:
            best, fbest = z, fz
        if (k + 1) % 64 == 0:
            if mark - fbest < tol:
                return best
            mark = fbest
    raise ConvergenceError("subgradient method exhausted max_iter", mark - fbest)
