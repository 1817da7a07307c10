"""Learning algorithms whose replace-one stability the package measures.

Three trainers are provided, each returning a hypothesis vector for a
linear predictor:

* :func:`fit_ridge` - exact minimizer of mean squared error plus
  ``lam * ||h||^2``, by the normal equations.
* :func:`fit_rerm` - minimizer of a certified margin loss plus
  ``lam * ||h||_p^p`` for ``p`` in (1, 2], by proximal gradient descent
  (proximal subgradient descent for the hinge).
* :func:`run_sgd` - one pass of stochastic gradient descent with a
  per-regime step-size schedule, uniform with-replacement sampling from a
  seeded index stream, and optional projection onto a centered ball.

Algorithm presets bundle a trainer with the loss model it certifies, so
experiment configs can address them by name. Every preset fits a (C, n, d)
stack of samples at once (``fit_many``, the one batch entry point) and the
replace-one twins of one sample (``fit_twins``). Every ridge fit goes through
one stacked, certified normal-equation solve, :func:`solve_ridge_stack`. All
SGD goes through one kernel that advances a stacked (rows, d) state: C
independent runs for ``fit_many``, one run with its trajectory for
:func:`run_sgd`, and 2C coupled rows for :func:`sgd_twin_distances`. In
both, a row's arithmetic does not depend on the other rows, so every entry
point gives bitwise the same hypothesis for the same sample and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from .exceptions import ConvergenceError, DomainError, NonFiniteIterateError
from .losses import LabeledExample, LossModel, _slack, make_loss, margin_slopes
from .seeding import draw_each, stream_key

SGD_REGIMES = ("nonconvex", "convex", "strongly_convex")


# ---------------------------------------------------------------------------
# samples


@dataclass(frozen=True)
class Sample:
    """An ordered training set of n labeled examples in d dimensions."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64, copy=True)
        y = np.array(self.labels, dtype=np.float64, copy=True)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError("features must be a non-empty (n, d) array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector with one entry per row of features")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("sample entries must be finite")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def example(self, i: int) -> LabeledExample:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for sample of size {self.n}")
        return LabeledExample(self.features[i].copy(), float(self.labels[i]))

    def replaced(self, i: int, z: LabeledExample) -> "Sample":
        """A copy of the sample with example i swapped for z."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range for sample of size {self.n}")
        if z.x.shape != (self.dim,):
            raise ValueError("replacement example has the wrong dimension")
        X = self.features.copy()
        y = self.labels.copy()
        X[i] = z.x
        y[i] = z.y
        return Sample(X, y)


def check_sample_domain(loss: LossModel, sample: Sample) -> None:
    """Raise DomainError if any example violates the loss model's domain."""
    _check_examples(loss, sample.features, sample.labels)


def _check_examples(loss: LossModel, features: np.ndarray, labels: np.ndarray) -> None:
    """check_sample_domain on raw arrays: features (..., d), labels (...).

    Every test is written as "all within the limit", so NaN fails it.
    """
    norms = np.linalg.norm(features, axis=-1)
    if not np.all(norms <= _slack(loss.feature_bound)):
        worst = float(norms.max())
        raise DomainError(
            f"feature norm {worst:.6g} exceeds bound {loss.feature_bound:.6g}"
        )
    if loss.kind in ("hinge", "logistic"):
        if not np.all(np.abs(np.abs(labels) - 1.0) <= 1e-12):
            raise DomainError("classification labels must be exactly +1 or -1")
    else:
        if not np.all(np.abs(labels) <= _slack(loss.label_bound)):
            raise DomainError(
                f"label magnitude {float(np.abs(labels).max()):.6g} exceeds bound "
                f"{loss.label_bound:.6g}"
            )


def empirical_risk(loss: LossModel, h, sample: Sample) -> float:
    """Mean loss of h over the sample."""
    h = loss.check_hypothesis(h)
    if h.shape != (sample.dim,):
        raise ValueError("hypothesis dimension does not match the sample")
    check_sample_domain(loss, sample)
    return float(loss.values_raw(h, sample.features, sample.labels).mean())


# ---------------------------------------------------------------------------
# ridge regression


def fit_ridge(sample: Sample, lam: float) -> np.ndarray:
    """Exact minimizer of (1/n) sum (<h,x_i> - y_i)^2 + lam ||h||^2.

    The one-sample case of :func:`solve_ridge_stack`.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    A, b = _normal_equations(sample.features, sample.labels, lam)
    return solve_ridge_stack(A[None], b[None])[0]


def _normal_equations(X: np.ndarray, y: np.ndarray, lam: float):
    """(A, b) with A = X^T X / n + lam I and b = X^T y / n."""
    n, d = X.shape
    return X.T @ X / n + lam * np.eye(d), X.T @ y / n


def solve_ridge_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve C ridge normal equations A[c] h = b[c] at once; (C, d, d), (C, d) -> (C, d).

    One stacked solve, then one refinement pass for every cell whose
    residual norm exceeds 1e-14, then a per-cell certificate: the gradient
    norm 2 ||A h - b|| must stay below 1e-10, or ConvergenceError names the
    first failing cell. Every cell goes through the same LAPACK and BLAS
    calls as a lone solve, so a row does not depend on the other cells.
    """
    H = np.linalg.solve(A, b[..., None])[..., 0]
    resid = b - _matvec(A, H)
    refine = _row_norms(resid) > 1e-14
    if refine.any():
        H[refine] += np.linalg.solve(A[refine], resid[refine][..., None])[..., 0]
    grad_norms = 2.0 * _row_norms(_matvec(A, H) - b)
    failed = np.flatnonzero(~(grad_norms < 1e-10))
    if failed.size:
        cell = int(failed[0])
        raise ConvergenceError(
            f"ridge normal equations of cell {cell} left a large residual",
            float(grad_norms[cell]),
        )
    return H


def _matvec(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Row c is A[c] @ H[c], by the matrix-vector product a lone (d, d) @ (d,) uses."""
    return (A @ H[..., None])[..., 0]


def _row_norms(R: np.ndarray) -> np.ndarray:
    """Row c is ||R[c]||, by the dot product np.linalg.norm takes of a lone vector."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


# ---------------------------------------------------------------------------
# penalized ERM


@dataclass(frozen=True)
class PenaltySpec:
    """The penalty lam * ||h||_p^p with p in (1, 2]."""

    p: float
    lam: float

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError("penalty exponent p must lie in (1, 2]")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("penalty weight lam must be positive and finite")

    def value(self, h) -> float:
        h = np.asarray(h, dtype=np.float64)
        return float(np.sum(np.abs(h) ** self.p))

    def gradient(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        return self.p * np.sign(h) * np.abs(h) ** (self.p - 1.0)

    def prox(self, v: np.ndarray, step: float) -> np.ndarray:
        """argmin_u 0.5 ||u - v||^2 + step * lam * ||u||_p^p, coordinatewise.

        Closed form at p = 2; otherwise a monotone bisection on each
        coordinate, run to absolute tolerance 1e-12.
        """
        w = step * self.lam
        if self.p == 2.0:
            return v / (1.0 + 2.0 * w)
        a = np.abs(v)
        lo = np.zeros_like(a)
        hi = a.copy()
        # First-order condition u + w*p*u^(p-1) = |v| on [0, |v|]; the left
        # side is increasing, so bisection converges unconditionally.
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            g = mid + w * self.p * mid ** (self.p - 1.0) - a
            high = g > 0
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
            if float(np.max(hi - lo)) < 1e-12:
                break
        return np.sign(v) * 0.5 * (lo + hi)


def fit_rerm(
    sample: Sample,
    loss: LossModel,
    penalty: PenaltySpec,
    tol: float = 1e-8,
    max_iter: int = 50000,
) -> np.ndarray:
    """Minimize empirical risk plus lam * ||h||_p^p.

    Smooth losses use a monotone accelerated proximal-gradient iteration
    with step 1/s and stop when the objective gradient norm drops below
    ``tol`` (the penalty is differentiable for p > 1). The hinge uses a
    projected proximal-subgradient iteration with diminishing steps and
    stops when the best objective value improves by less than ``tol`` over
    a sweep of 64 iterations. Raises ConvergenceError, carrying the
    achieved certificate, if ``max_iter`` is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    check_sample_domain(loss, sample)
    X, y = sample.features, sample.labels
    d = sample.dim

    def objective(h: np.ndarray) -> float:
        return float(loss.values_raw(h, X, y).mean()) + penalty.lam * penalty.value(h)

    smoothness = loss.constants().smoothness
    if smoothness is not None:
        eta = 1.0 / smoothness
        x = np.zeros(d)
        fx = objective(x)
        mom = x
        tk = 1.0
        gnorm = math.inf
        for _ in range(max_iter):
            z = penalty.prox(mom - eta * loss.risk_gradient_raw(mom, X, y), eta)
            fz = objective(z)
            if fz > fx:
                # Accelerated step overshot; fall back to the plain descent
                # step from x, which cannot increase the objective.
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

    # Hinge path. Iterates are projected onto the ball that provably
    # contains the minimizer (lam * ||h*||_p^p <= objective(0)).
    radius = (loss.value_at_zero() / penalty.lam) ** (1.0 / penalty.p)
    ggrad = loss.feature_bound + penalty.lam * penalty.p * radius ** (penalty.p - 1.0)
    step0 = max(radius, 1.0) / ggrad
    x = np.zeros(d)
    best = x
    fbest = objective(x)
    mark = fbest
    sweep = 64
    for k in range(max_iter):
        step = step0 / math.sqrt(k + 1.0)
        g = loss.risk_gradient_raw(x, X, y)
        z = penalty.prox(x - step * g, step)
        nrm = float(np.linalg.norm(z))
        if nrm > radius:
            z = z * (radius / nrm)
        x = z
        fz = objective(z)
        if fz < fbest:
            best, fbest = z, fz
        if (k + 1) % sweep == 0:
            if mark - fbest < tol:
                return best
            mark = fbest
    raise ConvergenceError("subgradient method exhausted max_iter", mark - fbest)


# ---------------------------------------------------------------------------
# stochastic gradient descent


@dataclass(frozen=True)
class SgdSpec:
    """Schedule and sampling plan for one SGD run.

    ``regime`` selects the step-size rule: "nonconvex" uses the decaying
    schedule ``alpha_t = c/t``; "convex" and "strongly_convex" use a
    constant step, capped at 2/s and 1/s respectively against the loss's
    certified smoothness when the run starts. The strongly convex regime
    additionally requires projection onto a centered ball.
    """

    regime: str
    steps: int
    seed: int
    step: float | None = None
    step_constant: float | None = None
    projection_radius: float | None = None

    def __post_init__(self):
        if self.regime not in SGD_REGIMES:
            raise ValueError(f"unknown SGD regime {self.regime!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.regime == "nonconvex":
            if self.step_constant is None or not (
                self.step_constant > 0 and math.isfinite(self.step_constant)
            ):
                raise ValueError("nonconvex regime needs a positive step constant c")
        else:
            if self.step is None or not (self.step > 0 and math.isfinite(self.step)):
                raise ValueError(f"{self.regime} regime needs a positive constant step")
        if self.regime == "strongly_convex" and self.projection_radius is None:
            raise ValueError("strongly_convex regime requires a projection radius")
        if self.projection_radius is not None and not (
            self.projection_radius > 0 and math.isfinite(self.projection_radius)
        ):
            raise ValueError("projection radius must be positive and finite")

    def step_sizes(self) -> np.ndarray:
        if self.regime == "nonconvex":
            return self.step_constant / np.arange(1.0, self.steps + 1.0)
        return np.full(self.steps, float(self.step))

    def check_step_cap(self, smoothness: float) -> None:
        """Constant steps must stay at or below 2/s (convex) or 1/s (strongly convex)."""
        cap = (2.0 if self.regime == "convex" else 1.0) / smoothness
        if self.step > cap * (1.0 + 1e-12):
            raise ValueError(
                f"step {self.step:.6g} exceeds the {self.regime} cap {cap:.6g}"
            )

    def validate_against(self, loss: LossModel) -> None:
        """Check the regime's step cap against the loss's certified constants."""
        consts = loss.constants()
        if self.regime == "nonconvex":
            return
        if consts.smoothness is None:
            raise ValueError(f"{self.regime} regime requires a certified smoothness")
        self.check_step_cap(consts.smoothness)
        if self.regime == "strongly_convex" and consts.strong_convexity <= 0:
            raise ValueError(
                "strongly_convex regime needs a strongly convex objective; "
                "augment the loss with a ridge term first"
            )


@dataclass(frozen=True)
class SgdRun:
    """Final iterate and the full trajectory h_0 .. h_T."""

    final: np.ndarray
    trajectory: np.ndarray


def run_sgd(sample: Sample, loss: LossModel, spec: SgdSpec) -> SgdRun:
    """One SGD pass from h_0 = 0 with uniform with-replacement sampling.

    The index stream is drawn up front from ``spec.seed``, so two runs
    with equal (sample, spec) produce bitwise-equal trajectories, and twin
    runs on S and a replaced copy of S share their index stream when given
    the same spec.
    """
    traj = _sgd_kernel(
        loss, spec, [spec.seed], sample.features, sample.labels, trajectory=True
    )[:, 0]
    return SgdRun(final=traj[-1].copy(), trajectory=traj)


def _sgd_index_streams(seeds, n: int, steps: int) -> np.ndarray:
    """(len(seeds), steps) example indices: row c is the with-replacement
    stream of ``substream(seeds[c], "sgd-indices")`` over n examples."""
    keys = [stream_key(s, "sgd-indices") for s in seeds]
    return np.array(
        draw_each(keys, lambda rng: rng.integers(0, n, size=steps)), dtype=np.int64
    ).reshape(len(keys), steps)


def _sgd_kernel(
    loss: LossModel,
    spec: SgdSpec,
    seeds,
    features: np.ndarray,
    labels: np.ndarray,
    twin: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    trajectory: bool = False,
) -> np.ndarray:
    """Advance stacked SGD states from h_0 = 0 in lockstep: the one SGD update.

    Run c follows the index stream of ``seeds[c]`` (``spec.seed`` is not
    read) on ``features``, one shared (n, d) sample or a per-run (C, n, d)
    stack. With ``twin = (replaced_index, repl_x, repl_y)`` the state has
    2C rows: row C + c shares run c's stream but reads example
    ``replaced_index[c]`` as ``(repl_x[c], repl_y[c])``.

    The examples, the replacements and every row after every step are
    checked against the loss's certified domain: a non-finite row raises
    NonFiniteIterateError, a row outside the certified radius DomainError.
    Returns the final (rows, d) state, or with ``trajectory`` all T + 1
    states as (T + 1, rows, d).
    """
    spec.validate_against(loss)
    _check_examples(loss, features, labels)
    n, d = features.shape[-2:]
    streams = _sgd_index_streams(seeds, n, spec.steps)
    runs = len(streams)
    gather_rows = None if features.ndim == 2 else np.arange(runs)
    if twin is not None:
        rep_i, rep_x, rep_y = twin
        _check_examples(loss, rep_x, rep_y)
    alphas = spec.step_sizes()
    radius = spec.projection_radius
    limit = _slack(loss.radius)
    rho = loss.ridge_term
    H = np.zeros((runs if twin is None else 2 * runs, d))
    traj = np.zeros((spec.steps + 1, *H.shape)) if trajectory else None
    for t in range(spec.steps):
        it = streams[:, t]
        if gather_rows is None:
            x, y = features[it], labels[it]
        else:
            x, y = features[gather_rows, it], labels[gather_rows, it]
        if twin is not None:
            hit = it == rep_i
            x = np.concatenate([x, np.where(hit[:, None], rep_x, x)])
            y = np.concatenate([y, np.where(hit, rep_y, y)])
        u = np.einsum("cd,cd->c", H, x)
        g = margin_slopes(loss.kind, u, y)[:, None] * x
        if rho:
            g = g + 2.0 * rho * H
        H = H - alphas[t] * g
        nrm = np.linalg.norm(H, axis=1)
        if radius is not None and nrm.max() > radius:
            over = nrm > radius
            H[over] *= (radius / nrm[over])[:, None]
            nrm[over] = np.linalg.norm(H[over], axis=1)
        if not nrm.max() <= limit:  # also true when a row is NaN
            if not np.all(np.isfinite(H)):
                raise NonFiniteIterateError(step=t + 1)
            raise DomainError(
                f"SGD iterate norm {float(nrm.max()):.6g} at step {t + 1} exceeds "
                f"certified radius {loss.radius:.6g}"
            )
        if traj is not None:
            traj[t + 1] = H
    return H if traj is None else traj


# ---------------------------------------------------------------------------
# algorithm presets


class _Preset:
    """The fitting protocol every preset implements.

    ``fit`` fits one sample; ``fit_many`` checks a stack of C samples and
    fits it through ``_fit_stack``, one row each; ``fit_twins`` fits the
    coupled pairs of a replace-one measurement. The defaults fit one sample
    at a time; ridge overrides both with its stacked solve, SGD with its kernel.
    """

    stochastic = False

    def fit_many(self, features, labels, seeds) -> np.ndarray:
        """Fit (C, n, d) features and (C, n) labels; row c fits sample c with ``seeds[c]``."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        seeds = list(seeds)
        if features.ndim != 3 or 0 in features.shape:
            raise ValueError("need a non-empty (C, n, d) stack of samples")
        if labels.shape != features.shape[:2]:
            raise ValueError("labels must be a (C, n) stack matching the features")
        if len(seeds) != len(features):
            raise ValueError("need one seed per sample")
        return self._fit_stack(features, labels, seeds)

    def _fit_stack(self, features, labels, seeds) -> np.ndarray:
        rows = zip(features, labels, seeds)
        return np.stack([self.fit(Sample(X, y), seed=k) for X, y, k in rows])

    def fit_twins(self, sample: Sample, replaced_index, repl_x, repl_y, seeds, base):
        """Fits (HA, HB) on S and on the replaced samples, one row per cell.

        Cell c swaps example ``replaced_index[c]`` for ``(repl_x[c],
        repl_y[c])`` and fits with ``seeds[c]``; a deterministic preset is
        given ``seeds=None`` and fits with the default seed. A deterministic
        fit on S does not depend on the cell, so HA repeats ``base``, the
        fit on S. Replaced samples are built one at a time.
        """
        if seeds is None:
            seeds = [0] * len(replaced_index)
        HB = np.stack(
            [
                self.fit(sample.replaced(int(i), LabeledExample(x, float(y))), seed=k)
                for i, x, y, k in zip(replaced_index, repl_x, repl_y, seeds)
            ]
        )
        return np.broadcast_to(base, HB.shape), HB


class ConstantAlgorithm(_Preset):
    """Outputs a fixed vector regardless of the sample. Used as a null case."""

    name = "constant"

    def __init__(self, output, loss: LossModel | None = None):
        out = np.asarray(output, dtype=np.float64)
        if out.ndim != 1 or out.size == 0 or not np.all(np.isfinite(out)):
            raise ValueError("output must be a finite non-empty vector")
        self.output = out
        self._loss = loss
        self.feature_bound = loss.feature_bound if loss is not None else 1.0

    def loss_for(self, n: int) -> LossModel | None:
        return self._loss

    def fit(self, sample: Sample, seed: int = 0) -> np.ndarray:
        return self.output.copy()


class RidgeAlgorithm(_Preset):
    """Squared loss with an l2 penalty, solved exactly.

    The certified hypothesis radius comes from lam * ||h_S||^2 being at
    most the objective at zero, which the label bound caps at Y^2.
    """

    name = "ridge"

    def __init__(self, lam: float, feature_bound: float, label_bound: float):
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError("lam must be positive and finite")
        self.lam = float(lam)
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        probe = make_loss("squared", feature_bound, 1.0, label_bound)
        self._loss = _dc_replace(probe, radius=math.sqrt(probe.value_at_zero() / lam))

    def loss_for(self, n: int) -> LossModel:
        return self._loss

    def fit(self, sample: Sample, seed: int = 0) -> np.ndarray:
        return fit_ridge(sample, self.lam)

    def _fit_stack(self, features, labels, seeds) -> np.ndarray:
        """One stacked solve over the samples' normal equations, formed one sample at a time."""
        A, b = zip(*(_normal_equations(X, y, self.lam) for X, y in zip(features, labels)))
        return solve_ridge_stack(np.stack(A), np.stack(b))

    def fit_twins(self, sample: Sample, replaced_index, repl_x, repl_y, seeds, base):
        """HB from one stacked solve; HA repeats ``base``.

        Cell c's normal equations come from the base features with row
        ``replaced_index[c]`` swapped in place, the arithmetic fit_ridge
        does on ``sample.replaced(...)``, so each HB row equals that fit
        bit for bit. No replaced Sample is built.
        """
        index = np.asarray(replaced_index)
        repl_x = np.asarray(repl_x, dtype=np.float64)
        repl_y = np.asarray(repl_y, dtype=np.float64)
        n, d = sample.features.shape
        cells = len(index)
        if repl_x.shape != (cells, d) or repl_y.shape != (cells,):
            raise ValueError("need one replacement example of the sample's dimension per cell")
        if cells and not (index.min() >= 0 and index.max() < n):
            raise ValueError(f"replaced indices must lie in [0, {n})")
        if not (np.all(np.isfinite(repl_x)) and np.all(np.isfinite(repl_y))):
            raise ValueError("replacement examples must be finite")
        X, y = sample.features.copy(), sample.labels.copy()
        A, b = np.empty((cells, d, d)), np.empty((cells, d))
        for c, i in enumerate(index):
            X[i], y[i] = repl_x[c], repl_y[c]
            A[c], b[c] = _normal_equations(X, y, self.lam)
            X[i], y[i] = sample.features[i], sample.labels[i]
        HB = solve_ridge_stack(A, b)
        return np.broadcast_to(base, HB.shape), HB


class LpRermAlgorithm(_Preset):
    """A certified margin loss with an l_p^p penalty, p in (1, 2]."""

    name = "rerm-lp"

    def __init__(
        self,
        loss_kind: str,
        penalty: PenaltySpec,
        feature_bound: float,
        label_bound: float = 1.0,
        tol: float = 1e-9,
        max_iter: int = 50000,
    ):
        self.penalty = penalty
        self.feature_bound = float(feature_bound)
        self.tol = tol
        self.max_iter = max_iter
        probe = make_loss(loss_kind, feature_bound, 1.0, label_bound)
        radius = (probe.value_at_zero() / penalty.lam) ** (1.0 / penalty.p)
        self._loss = _dc_replace(probe, radius=radius)

    def loss_for(self, n: int) -> LossModel:
        return self._loss

    def fit(self, sample: Sample, seed: int = 0) -> np.ndarray:
        return fit_rerm(sample, self._loss, self.penalty, self.tol, self.max_iter)


# Per policy kind, the modes it takes and the keys each mode takes beside 'mode'.
_POLICY_MODES = {
    "step": {"constant": {"value"}, "inverse_smoothness": set(), "inverse_gamma_n": set()},
    "steps": {"fixed": {"value"}, "multiple_of_n": {"factor"}, "n_squared": {"factor"}},
    "c": {"constant": {"value"}, "inverse_smoothness": set()},
}


def _norm_policy(value, kind: str) -> dict:
    """Normalize step/steps/c policies to {'mode': ..., ...} dictionaries."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        mode = "fixed" if kind == "steps" else "constant"
        out = {"mode": mode, "value": float(value)}
    elif isinstance(value, str):
        out = {"mode": value}
    elif isinstance(value, dict):
        out = dict(value)
        if "mode" not in out:
            raise ValueError(f"{kind} policy needs a 'mode' key")
    else:
        raise ValueError(f"cannot interpret {kind} policy {value!r}")
    mode = out["mode"]
    if not isinstance(mode, str) or mode not in _POLICY_MODES[kind]:
        raise ValueError(f"unknown {kind} policy mode {mode!r}")
    if mode == "n_squared":
        out.setdefault("factor", 1.0)
    keys = _POLICY_MODES[kind][mode]
    extra = set(out) - keys - {"mode"}
    if extra:
        raise ValueError(f"{kind} policy {mode!r} takes no keys {sorted(extra)}")
    missing = keys - set(out)
    if missing:
        raise ValueError(f"{kind} policy {mode!r} needs the keys {sorted(missing)}")
    return out


class SgdAlgorithm(_Preset):
    """SGD preset with per-n schedule resolution and loss certification.

    Projected runs certify the loss on the projection ball; unprojected
    runs certify it on the worst-case reach of the iterates, computed from
    the step schedule and the loss's own gradient bound.
    """

    stochastic = True

    def __init__(
        self,
        regime: str,
        loss_kind: str,
        feature_bound: float,
        label_bound: float = 1.0,
        *,
        step=None,
        steps=None,
        c=None,
        gamma: float = 0.0,
        projection_radius: float | None = None,
    ):
        if regime not in SGD_REGIMES:
            raise ValueError(f"unknown SGD regime {regime!r}")
        self.regime = regime
        self.name = f"sgd-{regime.replace('_', '-')}"
        self.loss_kind = loss_kind
        self.feature_bound = float(feature_bound)
        self.label_bound = float(label_bound)
        self.gamma = float(gamma)
        self.projection_radius = projection_radius
        if regime == "strongly_convex":
            if not (self.gamma > 0 and math.isfinite(self.gamma)):
                raise ValueError("strongly_convex regime needs gamma > 0")
            if projection_radius is None:
                raise ValueError("strongly_convex regime needs a projection radius")
        elif self.gamma:
            raise ValueError("gamma is only meaningful for the strongly_convex regime")
        self.ridge_term = self.gamma / 2.0
        if steps is None:
            raise ValueError("an SGD preset needs a steps policy")
        self.steps_policy = _norm_policy(steps, "steps")
        if regime == "nonconvex":
            if c is None:
                raise ValueError("nonconvex regime needs a step-constant policy c")
            self.c_policy = _norm_policy(c, "c")
            self.step_policy = None
        else:
            if step is None:
                raise ValueError(f"{regime} regime needs a step policy")
            self.step_policy = _norm_policy(step, "step")
            self.c_policy = None
        # Smoothness does not depend on the certified radius, so a probe
        # model with radius 1 yields the constant used by step policies.
        probe = make_loss(loss_kind, feature_bound, 1.0, label_bound, self.ridge_term)
        self._smoothness = probe.constants().smoothness

    # -- schedule resolution --------------------------------------------------

    def steps_for(self, n: int) -> int:
        mode = self.steps_policy["mode"]
        if mode == "fixed":
            return int(self.steps_policy["value"])
        if mode == "multiple_of_n":
            return int(round(self.steps_policy["factor"] * n))
        return int(round(self.steps_policy["factor"] * n * n))

    def _inverse_smoothness(self) -> float:
        if self._smoothness is None:
            raise ValueError(
                "loss has no certified smoothness; give an explicit step value"
            )
        return 1.0 / self._smoothness

    def step_for(self, n: int) -> float | None:
        if self.step_policy is None:
            return None
        mode = self.step_policy["mode"]
        if mode == "constant":
            return float(self.step_policy["value"])
        if mode == "inverse_smoothness":
            return self._inverse_smoothness()
        return 1.0 / (self.gamma * n)

    def c_for(self, n: int) -> float | None:
        if self.c_policy is None:
            return None
        if self.c_policy["mode"] == "constant":
            return float(self.c_policy["value"])
        return self._inverse_smoothness()

    def spec_for(self, n: int, seed: int) -> SgdSpec:
        return SgdSpec(
            regime=self.regime,
            steps=self.steps_for(n),
            seed=seed,
            step=self.step_for(n),
            step_constant=self.c_for(n),
            projection_radius=self.projection_radius,
        )

    def loss_for(self, n: int) -> LossModel:
        if self.projection_radius is not None:
            radius = self.projection_radius
        else:
            radius = _drift_radius(
                self.loss_kind,
                self.spec_for(n, 0).step_sizes(),
                self.feature_bound,
                self.label_bound,
            )
            if not math.isfinite(radius):
                raise ValueError(
                    "cannot certify a finite reach radius for this schedule; "
                    "use a projection or a shorter run"
                )
            radius = max(radius, 1e-9)
        return make_loss(
            self.loss_kind,
            self.feature_bound,
            radius,
            self.label_bound,
            self.ridge_term,
        )

    def fit(self, sample: Sample, seed: int = 0) -> np.ndarray:
        loss = self.loss_for(sample.n)
        return run_sgd(sample, loss, self.spec_for(sample.n, seed)).final

    def _fit_stack(self, features, labels, seeds) -> np.ndarray:
        n = features.shape[1]
        return _sgd_kernel(self.loss_for(n), self.spec_for(n, 0), seeds, features, labels)

    def fit_twins(self, sample: Sample, replaced_index, repl_x, repl_y, seeds, base):
        """Coupled twins: HA and HB share each cell's index stream."""
        _, HA, HB = sgd_twin_distances(
            self,
            sample.features,
            sample.labels,
            replaced_index,
            repl_x,
            repl_y,
            seeds,
            return_states=True,
        )
        return HA, HB


def _drift_radius(kind: str, alphas: np.ndarray, B: float, Y: float) -> float:
    """Worst-case iterate norm of unprojected SGD from the origin."""
    if kind in ("hinge", "logistic"):
        # Margin slope is at most 1, so each step moves by at most alpha*B.
        return B * float(np.sum(alphas))
    # Python floats reach inf without a NumPy overflow warning.
    r = 0.0
    for a in alphas.tolist():
        r = r * (1.0 + 2.0 * a * B * B) + 2.0 * a * B * Y
        if not math.isfinite(r):
            return math.inf
    return r


def make_algorithm(
    preset: str,
    loss_kind: str,
    feature_bound: float,
    label_bound: float = 1.0,
    **params,
):
    """Build a named algorithm preset bound to a loss and data domain."""
    if preset == "constant":
        output = np.asarray(params.pop("vector"), dtype=np.float64)
        _reject_extra(preset, params)
        radius = max(1.0, 2.0 * float(np.linalg.norm(output)))
        loss = make_loss(loss_kind, feature_bound, radius, label_bound)
        return ConstantAlgorithm(output, loss)
    if preset == "ridge":
        if loss_kind != "squared":
            raise ValueError("the ridge preset trains the squared loss")
        lam = params.pop("lam")
        _reject_extra(preset, params)
        return RidgeAlgorithm(lam, feature_bound, label_bound)
    if preset == "rerm-lp":
        penalty = PenaltySpec(p=params.pop("p"), lam=params.pop("lam"))
        tol = params.pop("tol", 1e-9)
        max_iter = int(params.pop("max_iter", 50000))
        _reject_extra(preset, params)
        return LpRermAlgorithm(
            loss_kind, penalty, feature_bound, label_bound, tol=tol, max_iter=max_iter
        )
    if preset in ("sgd-nonconvex", "sgd-convex", "sgd-strongly-convex"):
        regime = preset[len("sgd-") :].replace("-", "_")
        kwargs = {
            "steps": params.pop("steps"),
            "projection_radius": params.pop("projection_radius", None),
        }
        if regime == "nonconvex":
            kwargs["c"] = params.pop("c")
        else:
            kwargs["step"] = params.pop("step")
        if regime == "strongly_convex":
            kwargs["gamma"] = params.pop("gamma")
        _reject_extra(preset, params)
        return SgdAlgorithm(regime, loss_kind, feature_bound, label_bound, **kwargs)
    raise ValueError(f"unknown algorithm preset {preset!r}")


def _reject_extra(preset: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for preset {preset!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# batched entry points


def sgd_twin_distances(
    algorithm: SgdAlgorithm,
    features: np.ndarray,
    labels: np.ndarray,
    replaced_index: np.ndarray,
    repl_x: np.ndarray,
    repl_y: np.ndarray,
    seeds,
    return_states: bool = False,
):
    """Final-iterate distances between coupled runs on S and on S with one
    example replaced, one entry per cell.

    ``features`` is a shared (n, d) sample or a per-cell (C, n, d) stack;
    cell c replaces index ``replaced_index[c]`` with ``(repl_x[c],
    repl_y[c])`` and drives both runs with the index stream derived from
    ``seeds[c]``, exactly as run_sgd would.
    """
    n = features.shape[-2]
    H = _sgd_kernel(
        algorithm.loss_for(n),
        algorithm.spec_for(n, 0),
        seeds,
        features,
        labels,
        twin=(np.asarray(replaced_index), np.asarray(repl_x), np.asarray(repl_y)),
    )
    HA, HB = np.split(H, 2)
    distances = np.linalg.norm(HA - HB, axis=1)
    if return_states:
        return distances, HA, HB
    return distances
