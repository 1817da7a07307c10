"""Learning algorithms whose replace-one stability the package measures.

Three trainers are provided, each returning a hypothesis vector for a
linear predictor:

* ridge - exact minimizer of mean squared error plus ``lam * ||h||^2``, by
  the normal equations in stacked, certified solves,
  :func:`solve_ridge_stack`; the replace-one twins of a sample update its
  Gram matrix by rank two, and are solved a block at a time.
* :func:`fit_rerm` - minimizer of a certified margin loss plus
  ``lam * ||h||_p^p`` for ``p`` in (1, 2], by accelerated proximal
  gradient descent (proximal subgradient descent for the hinge) on a
  (C, n, d) stack of samples at once, with an elementwise prox that is
  closed-form at p = 2 and p = 3/2.
* SGD - one pass of stochastic gradient descent with a per-regime
  step-size schedule, uniform with-replacement sampling from a seeded
  index stream, and optional projection onto a centered ball.

Algorithm presets bundle a trainer with the loss model it certifies, so
experiment configs can address them by name. Every preset fits a (C, n, d)
stack of samples at once (``fit_many``, the one batch entry point); a
single ``fit`` is the one-sample stack. The replace-one twins of one sample
(``fit_twins``) are one more stack: row c is the sample with one example
swapped in, checked once for every preset. All SGD goes through one kernel
that advances a stacked (rows, d) state, in calls whose index streams fit
the stack budget: C independent runs for ``fit_many``, and 2C coupled rows
for the twins. In both, and in the stacked ridge and penalized-ERM solves,
a row's arithmetic does not depend on the other rows, so every entry point
gives bitwise the same hypothesis for the same sample and seed. The one
exception is a ridge twin row: its normal equations come from the rank-two
update, so it equals the fit on the replaced sample to rounding, not
bitwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from .exceptions import ConvergenceError, DomainError, NonFiniteIterateError
from .losses import (
    _BLOCK_FLOATS,
    _STACK_FLOATS,
    LossModel,
    _matvec,
    _slack,
    make_loss,
    margin_slopes,
)
from .seeding import draw_each, stream_key

SGD_REGIMES = ("nonconvex", "convex", "strongly_convex")
# The most steps an SGD run takes: 400^2, what the n_squared policy gives at
# the largest sample size (lab.MAX_N).
MAX_SGD_STEPS = 160_000


def _integral(value, name: str, what: str = "an integer") -> int:
    """``value`` as an int: an integer or an integral float, never a bool."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float: a real number, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a finite number, got an integer beyond the float range"
        ) from None


def _count(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int in [lo, hi], checked as :func:`_integral` checks it."""
    value = _integral(value, name)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _as_list(value, name: str):
    """``value``, checked to be a list (or tuple)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _keys(raw, where: str, required=(), optional=()) -> dict:
    """``raw``, checked to be a dict with every ``required`` key and no key
    outside ``required`` and ``optional``: the one check of an outside dict."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a dict, got {type(raw).__name__}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    missing = set(required) - set(raw)
    if missing:
        raise ValueError(f"{where} needs the keys {sorted(missing)}")
    return raw


def _tagged(raw, tag: str, table: dict, where: str) -> str:
    """``raw[tag]``, checked to name an entry of ``table``: the (required,
    optional) keys ``raw`` then must and may have beside ``tag``, checked
    by :func:`_keys` as the ``f"{name} {where}"``."""
    name = _keys(raw, where, (tag,), raw)[tag]  # its other keys are checked below
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {where} {tag} {name!r}")
    required, optional = table[name]
    _keys(raw, f"{name} {where}", {tag, *required}, optional)
    return name


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


# ---------------------------------------------------------------------------
# ridge regression


def solve_ridge_stack(A: np.ndarray, b: np.ndarray, first: int = 0) -> np.ndarray:
    """Solve C ridge normal equations A[c] h = b[c] at once; (C, d, d), (C, d) -> (C, d).

    One stacked solve, then one refinement pass for every cell whose
    residual norm exceeds 1e-14, then a per-cell certificate: the gradient
    norm 2 ||A h - b|| must stay below 1e-10, or ConvergenceError names the
    first failing cell, the cells numbered from ``first``. Every cell goes
    through the same LAPACK and BLAS calls as a lone solve, so a row does
    not depend on the other cells.
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
            f"ridge normal equations of cell {first + cell} left a large residual",
            float(grad_norms[cell]),
        )
    return H


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

    def value(self, h):
        """||h||_p^p; for a (C, d) stack, one value per row."""
        h = np.asarray(h, dtype=np.float64)
        return np.sum(np.abs(h) ** self.p, axis=-1)

    def gradient(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        return self.p * np.sign(h) * np.abs(h) ** (self.p - 1.0)

    def prox(self, v: np.ndarray, step: float) -> np.ndarray:
        """argmin_u 0.5 ||u - v||^2 + step * lam * ||u||_p^p, elementwise.

        Each entry is sign(v) times the root u in [0, |v|] of
        u + w p u^(p-1) = |v|, with w = step * lam. p = 2 and p = 3/2 have
        closed forms (Chaux, Combettes, Pesquet & Wajs 2007); any other p
        bisects [0, |v|], each entry until its own bracket is narrower than
        1e-12. No entry reads another, so the prox of a (C, d) stack is
        bitwise the prox of each row.
        """
        v = np.asarray(v, dtype=np.float64)
        w = step * self.lam
        if self.p == 2.0:
            return v / (1.0 + 2.0 * w)
        a = np.abs(v)
        if self.p == 1.5:
            # s = sqrt(u) solves s^2 + 1.5 w s = |v|; this root does not
            # cancel when w is large.
            s = 2.0 * a / (1.5 * w + np.sqrt(2.25 * w * w + 4.0 * a))
            return np.sign(v) * (s * s)
        lo = np.zeros_like(a)
        hi = a.copy()
        # The left side of the first-order condition is increasing, so
        # bisection converges unconditionally.
        for _ in range(80):
            live = hi - lo >= 1e-12
            if not live.any():
                break
            mid = 0.5 * (lo + hi)
            high = mid + w * self.p * mid ** (self.p - 1.0) - a > 0
            hi = np.where(live & high, mid, hi)
            lo = np.where(live & ~high, mid, lo)
        return np.sign(v) * 0.5 * (lo + hi)


def fit_rerm(
    features,
    labels,
    loss: LossModel,
    penalty: PenaltySpec,
    tol: float = 1e-8,
    max_iter: int = 50000,
) -> np.ndarray:
    """Minimize empirical risk plus lam * ||h||_p^p on each of a stack of samples.

    ``features`` (C, n, d) and ``labels`` (C, n) hold C samples; row c of
    the (C, d) result is the fit on sample c. Smooth losses use a monotone
    accelerated proximal-gradient iteration (FISTA, Beck & Teboulle 2009)
    with step 1/s, falling back to the plain step in any row whose
    objective would rise, and a row stops when its objective gradient norm
    drops below ``tol`` (the penalty is differentiable for p > 1). The
    hinge uses a projected proximal-subgradient iteration with diminishing
    steps, and a row stops when its best objective value improves by less
    than ``tol`` over a sweep of 64 iterations. A row's result is stored
    when it stops; stopped rows stay in the held block, iterating unread,
    until at most half of the held rows run, and then the block is compacted
    to its running rows, so each compaction copies at most twice the
    running rows. Every row goes through the arithmetic of a one-sample
    fit, so it is bitwise the fit of its sample alone. Raises
    ConvergenceError, naming the first row still running and its
    certificate, if ``max_iter`` is exhausted.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    max_iter = _integral(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    X = np.ascontiguousarray(features, dtype=np.float64)
    Y = np.ascontiguousarray(labels, dtype=np.float64)
    if X.ndim != 3 or 0 in X.shape or Y.shape != X.shape[:2]:
        raise ValueError("need (C, n, d) features and (C, n) labels")
    loss.check_examples(X, Y)
    C, d = X.shape[0], X.shape[2]

    def objective(H, X, Y):
        return loss.values_raw(H, X, Y).mean(axis=1) + penalty.lam * penalty.value(H)

    out = np.empty((C, d))
    rows = np.arange(C)  # the result row of each held row
    live = np.ones(C, dtype=bool)  # the held rows still running
    H = np.zeros((C, d))
    F = objective(H, X, Y)
    smoothness = loss.constants().smoothness
    if smoothness is not None:
        eta = 1.0 / smoothness
        G = loss.risk_gradient_raw(H, X, Y)  # the risk gradient at H
        M = H
        T = np.ones(C)
        for _ in range(max_iter):
            Z = penalty.prox(M - eta * loss.risk_gradient_raw(M, X, Y), eta)
            FZ = objective(Z, X, Y)
            over = FZ > F
            if over.any():
                # The accelerated step overshot; fall back to the plain
                # descent step from H, which cannot increase the objective.
                Z[over] = penalty.prox(H[over] - eta * G[over], eta)
                FZ[over] = objective(Z[over], X[over], Y[over])
                T[over] = 1.0
            T_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * T * T))
            M = Z + ((T - 1.0) / T_next)[:, None] * (Z - H)
            H, F, T = Z, FZ, T_next
            G = loss.risk_gradient_raw(H, X, Y)
            gnorm = _row_norms(G + penalty.lam * penalty.gradient(H))
            done = live & (gnorm < tol)
            if done.any():
                out[rows[done]] = H[done]
                live &= ~done
                if not live.any():
                    return out
                if 2 * np.count_nonzero(live) <= len(live):
                    held = (rows, X, Y, H, F, G, M, T, gnorm, live)
                    rows, X, Y, H, F, G, M, T, gnorm, live = (a[live] for a in held)
        first = np.flatnonzero(live)[0]
        raise ConvergenceError(
            "proximal gradient exhausted max_iter", float(gnorm[first]), int(rows[first])
        )

    # Hinge path. Iterates are projected onto the ball that provably
    # contains the minimizer (lam * ||h*||_p^p <= objective(0)).
    radius = (loss.value_at_zero() / penalty.lam) ** (1.0 / penalty.p)
    ggrad = loss.feature_bound + penalty.lam * penalty.p * radius ** (penalty.p - 1.0)
    step0 = max(radius, 1.0) / ggrad
    best, mark = H, F
    sweep = 64
    for k in range(max_iter):
        step = step0 / math.sqrt(k + 1.0)
        Z = penalty.prox(H - step * loss.risk_gradient_raw(H, X, Y), step)
        nrm = _row_norms(Z)
        over = nrm > radius
        Z[over] *= (radius / nrm[over])[:, None]
        H = Z
        FZ = objective(Z, X, Y)
        better = FZ < F
        best = np.where(better[:, None], Z, best)
        F = np.where(better, FZ, F)
        if (k + 1) % sweep == 0:
            done = live & (mark - F < tol)
            out[rows[done]] = best[done]
            live &= ~done
            if not live.any():
                return out
            if 2 * np.count_nonzero(live) <= len(live):
                held = (rows, X, Y, H, F, best, live)
                rows, X, Y, H, F, best, live = (a[live] for a in held)
            mark = F
    first = np.flatnonzero(live)[0]
    raise ConvergenceError(
        "subgradient method exhausted max_iter", float(mark[first] - F[first]), int(rows[first])
    )


# ---------------------------------------------------------------------------
# stochastic gradient descent


@dataclass(frozen=True)
class SgdSpec:
    """Schedule and sampling plan for one SGD run.

    ``regime`` selects the step-size rule: "nonconvex" uses the decaying
    schedule ``alpha_t = c/t``; "convex" and "strongly_convex" use a
    constant step, capped at 2/s and 1/s respectively against the loss's
    certified smoothness by :meth:`check_step_cap`, which
    :meth:`SgdAlgorithm.spec_for` and :func:`sgd_alpha` call. The strongly
    convex regime additionally requires projection onto a centered ball.
    ``steps`` lies in [0, MAX_SGD_STEPS], checked before any schedule is built.
    """

    regime: str
    steps: int
    step: float | None = None
    step_constant: float | None = None
    projection_radius: float | None = None

    def __post_init__(self):
        if self.regime not in SGD_REGIMES:
            raise ValueError(f"unknown SGD regime {self.regime!r}")
        object.__setattr__(self, "steps", _count(self.steps, "steps", 0, MAX_SGD_STEPS))
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


def _sgd_index_streams(seeds, n: int, steps: int) -> np.ndarray:
    """(len(seeds), steps) example indices: row c is the with-replacement
    stream of ``substream(seeds[c], "sgd-indices")`` over n examples.

    Row c is bitwise ``rng.integers(0, n, size=steps)`` on that stream, read
    from its raw words. For n <= 2**32 (any sample) NumPy takes index t as
    the high word of u * n, with u the next 32-bit half of the raw words
    (the low half of each word first), and draws u again when the low word
    of the product falls below 2**32 mod n (Lemire 2019). So ceil(steps / 2)
    words give a row, and a row with such a rejection is drawn through
    ``integers`` itself; n = 1 draws nothing. The raw words are read a block
    of rows at a time, each block's products no larger than
    ``_BLOCK_FLOATS`` entries.
    """
    keys = [stream_key(s, "sgd-indices") for s in seeds]
    out = np.zeros((len(keys), steps), dtype=np.int64)
    if n == 1 or steps == 0:
        return out
    words, reject = (steps + 1) // 2, (1 << 32) % n
    block = max(1, _BLOCK_FLOATS // steps)
    raw = np.empty((min(block, len(keys)), words), dtype=np.uint64)
    for start in range(0, len(keys), block):
        rows = iter(raw)
        chunk = keys[start : start + block]
        draw_each(chunk, lambda rng: np.copyto(next(rows), rng.bit_generator.random_raw(words)))
        halves = raw[: len(chunk)].astype("<u8", copy=False).view("<u4")[:, :steps]
        product = np.multiply(halves, np.uint64(n), dtype=np.uint64)
        np.right_shift(product, 32, out=out[start : start + len(chunk)], casting="unsafe")
        if reject:
            low = np.bitwise_and(product, 0xFFFFFFFF, out=product)
            for c in start + np.flatnonzero((low < reject).any(axis=1)):
                out[c] = draw_each([keys[c]], lambda rng: rng.integers(0, n, size=steps))[0]
    return out


def _sgd_kernel(
    loss: LossModel,
    spec: SgdSpec,
    seeds,
    features: np.ndarray,
    labels: np.ndarray,
    twin: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Advance stacked SGD states from h_0 = 0 in lockstep: the one SGD update.

    Run c follows the index stream of ``seeds[c]`` on ``features``, one shared
    (n, d) sample or a per-run (C, n, d) stack. With ``twin = (replaced_index,
    repl_x, repl_y)`` the state has 2C rows: row C + c shares run c's stream
    but reads example ``replaced_index[c]`` as ``(repl_x[c], repl_y[c])``.

    Step t moves every row in place, h <- (1 - 2 alpha_t rho) h - alpha_t
    phi'(<h, x>, y) x, with rho the loss's ridge term, then scales each row
    past the projection radius back onto the ball. The examples of a block
    of steps are gathered at once, the block no larger than
    ``_BLOCK_FLOATS`` entries. The block's examples and gather indices, and
    each step's margins, slopes, moves and norms, live in buffers allocated
    once per call; the index streams are checked against [0, n) once, up
    front, so the gathers need no range check of their own.

    The examples, the replacements and every row after every step are
    checked against the loss's certified domain: a non-finite row raises
    NonFiniteIterateError, a row outside the certified radius DomainError.
    Returns the final (rows, d) state. The spec's step rules are checked
    where it is made, :meth:`SgdAlgorithm.spec_for`.
    """
    loss.check_examples(features, labels)
    n, d = features.shape[-2:]
    streams = _sgd_index_streams(seeds, n, spec.steps)
    if streams.size and not (streams.min() >= 0 and streams.max() < n):
        raise IndexError(f"SGD index streams must lie in [0, {n})")
    runs = len(streams)
    flat_x, flat_y = features.reshape(-1, d), labels.reshape(-1)
    # Run c of a stack reads rows c*n .. c*n + n - 1 of the flat view.
    offsets = 0 if features.ndim == 2 else n * np.arange(runs)
    rows = runs
    if twin is not None:
        rep_i, rep_x, rep_y = twin
        loss.check_examples(rep_x, rep_y)
        rows = 2 * runs
    alphas = spec.step_sizes()
    rho = loss.ridge_term
    radius = spec.projection_radius
    limit = _slack(loss.radius)
    H = np.zeros((rows, d))
    move = np.empty((rows, d))
    margins, slopes, nrm = np.empty(rows), np.empty(rows), np.empty(rows)
    block = max(1, min(spec.steps, _BLOCK_FLOATS // (rows * d)))
    X, Y = np.empty((block, rows, d)), np.empty((block, rows))
    index = np.empty((block, runs), dtype=np.int64)
    # A row that overflows is caught below, so its warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, spec.steps, block):
            it = streams[:, start : start + block].T  # (steps, runs)
            size = len(it)
            Xb, Yb = X[:size], Y[:size]
            at = np.add(it, offsets, out=index[:size])
            np.take(flat_x, at, axis=0, out=Xb[:, :runs], mode="clip")
            np.take(flat_y, at, out=Yb[:, :runs], mode="clip")
            if twin is not None:
                hit = it == rep_i
                Xb[:, runs:], Yb[:, runs:] = Xb[:, :runs], Yb[:, :runs]
                np.copyto(Xb[:, runs:], rep_x, where=hit[..., None])
                np.copyto(Yb[:, runs:], rep_y, where=hit)
            for k in range(size):
                t = start + k
                x = Xb[k]
                np.einsum("cd,cd->c", H, x, out=margins)
                margin_slopes(loss.kind, margins, Yb[k], out=slopes)
                if rho:
                    H *= 1.0 - 2.0 * alphas[t] * rho
                slopes *= -alphas[t]
                np.multiply(slopes[:, None], x, out=move)
                H += move
                np.sqrt(np.einsum("cd,cd->c", H, H, out=nrm), out=nrm)
                top = nrm.max()
                if radius is not None and top > radius:
                    over = nrm > radius
                    H[over] *= (radius / nrm[over])[:, None]
                    nrm[over] = np.sqrt(np.einsum("cd,cd->c", H[over], H[over]))
                    top = nrm.max()
                if not top <= limit:  # also true when a row is NaN
                    if not np.all(np.isfinite(H)):
                        raise NonFiniteIterateError(step=t + 1)
                    raise DomainError(
                        f"SGD iterate norm {float(top):.6g} at step {t + 1} exceeds "
                        f"certified radius {loss.radius:.6g}"
                    )
    return H


# ---------------------------------------------------------------------------
# algorithm presets


class _Preset:
    """The fitting protocol every preset implements.

    A preset defines ``_fit_stack(features, labels, seeds, twin=None)``,
    which fits one row per seed. Without ``twin`` it fits a checked
    (C, n, d) stack of samples, row c sample c. With ``twin = (index,
    repl_x, repl_y)`` it is given one (n, d) sample, and row c fits that
    sample with example ``index[c]`` swapped for ``(repl_x[c], repl_y[c])``.
    ``fit_many`` checks a stack and hands it over; ``fit`` is row 0 of a
    one-sample ``fit_many``; ``fit_twins`` checks the replace-one cells and
    hands them over.
    """

    stochastic = False

    def loss_for(self, n: int) -> LossModel:
        """The certified loss the preset fits at n; only SGD's depends on n."""
        return self._loss

    def fit(self, sample: Sample, seed: int = 0) -> np.ndarray:
        """Fit one sample with ``seed``: the one-sample case of ``fit_many``."""
        return self.fit_many(sample.features[None], sample.labels[None], [seed])[0]

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

    def fit_twins(self, sample: Sample, replaced_index, repl_x, repl_y, seeds, base):
        """Fits (HA, HB) on S and on the replaced samples, one row per cell.

        Cell c swaps example ``replaced_index[c]`` for ``(repl_x[c],
        repl_y[c])`` and fits with ``seeds[c]``; ``seeds=None`` fits every
        cell with the default seed 0. A stochastic preset's twins are coupled,
        each pair on its cell's index stream; a deterministic fit on S does
        not depend on the cell, so HA repeats ``base``, the fit on S.
        """
        twin, seeds = _twin_cells(sample, replaced_index, repl_x, repl_y, seeds)
        H = self._fit_stack(sample.features, sample.labels, seeds, twin)
        if self.stochastic:
            return np.split(H, 2)
        return np.broadcast_to(base, H.shape), H


def _twin_cells(sample: Sample, replaced_index, repl_x, repl_y, seeds):
    """Checked ``(twin, seeds)`` of a replace-one cell list, as ``_fit_stack`` takes them.

    Raises ValueError unless there is at least one cell, each cell has an
    integer index in [0, n), a replacement of the sample's dimension and
    one seed; DomainError when a replacement is not finite.
    """
    index = np.asarray(replaced_index)
    repl_x = np.asarray(repl_x, dtype=np.float64)
    repl_y = np.asarray(repl_y, dtype=np.float64)
    n, d = sample.features.shape
    cells = len(index)
    if index.shape != (cells,) or cells == 0 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError("replaced indices must be a non-empty vector of integers")
    if repl_x.shape != (cells, d) or repl_y.shape != (cells,):
        raise ValueError("need one replacement example of the sample's dimension per cell")
    if not (index.min() >= 0 and index.max() < n):
        raise ValueError(f"replaced indices must lie in [0, {n})")
    if not (np.all(np.isfinite(repl_x)) and np.all(np.isfinite(repl_y))):
        raise DomainError("replacement examples must be finite")
    seeds = [0] * cells if seeds is None else list(seeds)
    if len(seeds) != cells:
        raise ValueError("need one seed per cell")
    return (index, repl_x, repl_y), seeds


class ConstantAlgorithm(_Preset):
    """Outputs a fixed vector regardless of the sample. Used as a null case."""

    name = "constant"

    def __init__(self, output, loss: LossModel):
        out = np.asarray(output, dtype=np.float64)
        if out.ndim != 1 or out.size == 0 or not np.all(np.isfinite(out)):
            raise ValueError("output must be a finite non-empty vector")
        self.output = out
        self._loss = loss

    def _fit_stack(self, features, labels, seeds, twin=None) -> np.ndarray:
        return np.tile(self.output, (len(seeds), 1))


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
        probe = make_loss("squared", feature_bound, 1.0, label_bound)
        self._loss = _dc_replace(probe, radius=math.sqrt(probe.value_at_zero() / lam))

    def _fit_stack(self, features, labels, seeds, twin=None) -> np.ndarray:
        """One stacked solve of the normal equations (X^T X / n + lam I) h = X^T y / n.

        A stack's Gram matrices and moments are one stacked matmul each,
        bitwise the lone ``X.T @ X`` and ``X.T @ y`` of every row. The twins
        of one sample update its G = X^T X and g = X^T y by rank two: cell c,
        which swaps example i for (z, y'), solves with (G + z z^T - x_i x_i^T)
        / n + lam I and (g + z y' - x_i y_i) / n. The cells are filled and
        solved one block of at most ``_BLOCK_FLOATS`` matrix entries at a
        time, a failed certificate naming its cell's place in the whole stack.
        """
        n, d = features.shape[-2:]
        ridge = self.lam * np.eye(d)
        if twin is None:
            Xt = np.swapaxes(features, -1, -2)
            return solve_ridge_stack(Xt @ features / n + ridge, _matvec(Xt, labels) / n)
        index, z, z_y = twin
        G, g = features.T @ features, features.T @ labels
        H = np.empty((len(index), d))
        block = max(1, _BLOCK_FLOATS // (d * d))
        A = np.empty((min(block, len(index)), d, d))
        for start in range(0, len(index), block):
            c = slice(start, start + block)
            x, x_y = features[index[c]], labels[index[c]]
            # In place, in the order of (G + z z^T - x_i x_i^T) / n + lam I.
            Ac = np.multiply(z[c, :, None], z[c, None, :], out=A[: len(x)])
            Ac += G
            Ac -= x[:, :, None] * x[:, None, :]
            Ac /= n
            Ac += ridge
            b = (g + z[c] * z_y[c, None] - x * x_y[:, None]) / n
            H[c] = solve_ridge_stack(Ac, b, start)
        return H


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
        if not (tol > 0 and math.isfinite(tol)):
            raise ValueError("tol must be positive and finite")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.penalty = penalty
        self.tol = tol
        self.max_iter = max_iter
        probe = make_loss(loss_kind, feature_bound, 1.0, label_bound)
        radius = (probe.value_at_zero() / penalty.lam) ** (1.0 / penalty.p)
        self._loss = _dc_replace(probe, radius=radius)

    def _fit_stack(self, features, labels, seeds, twin=None) -> np.ndarray:
        """One :func:`fit_rerm` solve per block of rows, the block's (rows,
        n, d) features no larger than ``_BLOCK_FLOATS`` entries.

        A block of a stack is a slice of it; a block of twins repeats the
        sample once per cell and scatters each cell's example in. Every row
        is bitwise its sample's lone fit, so the block size moves no result.
        A row that does not converge is named by its place in the whole
        stack.
        """
        n, d = features.shape[-2:]
        block = max(1, _BLOCK_FLOATS // (n * d))
        settings = (self._loss, self.penalty, self.tol, self.max_iter)
        fits = []
        for start in range(0, len(seeds), block):
            rows = slice(start, start + block)
            if twin is None:
                X, y = features[rows], labels[rows]
            else:
                index, z, z_y = (part[rows] for part in twin)
                cells = np.arange(len(index))
                X = np.repeat(features[None], len(index), axis=0)
                y = np.repeat(labels[None], len(index), axis=0)
                X[cells, index], y[cells, index] = z, z_y
            try:
                fits.append(fit_rerm(X, y, *settings))
            except ConvergenceError as err:
                raise ConvergenceError(err.message, err.achieved, start + err.row) from None
        return np.concatenate(fits)


# Per policy kind and mode: the keys the mode needs beside 'mode', and those it may take.
_POLICY_KEYS = {
    "step": {
        "constant": ({"value"}, ()),
        "inverse_smoothness": ((), ()),
        "inverse_gamma_n": ((), ()),
    },
    "steps": {
        "fixed": ({"value"}, ()),
        "multiple_of_n": ({"factor"}, ()),
        "n_squared": ((), {"factor"}),
    },
    "c": {"constant": ({"value"}, ()), "inverse_smoothness": ((), ())},
}


def _norm_policy(value, kind: str) -> dict:
    """Normalize a step/steps/c policy to a checked {'mode': ..., ...} dictionary.

    A string names a mode; anything else but a dict is a fixed step count or
    a constant value.
    """
    if isinstance(value, str):
        value = {"mode": value}
    elif not isinstance(value, dict):
        value = {"mode": "fixed" if kind == "steps" else "constant", "value": value}
    out = dict(value)
    mode = _tagged(out, "mode", _POLICY_KEYS[kind], f"{kind} policy")
    if mode == "fixed":
        out["value"] = _integral(out["value"], "steps")
        return out
    if mode == "n_squared":
        out.setdefault("factor", 1.0)
    for key in set(out) - {"mode"}:  # a constant value or a factor of n: a positive real
        name = kind if key == "value" else f"{kind} factor"
        out[key] = _real(out[key], name)
        if not (out[key] > 0 and math.isfinite(out[key])):
            raise ValueError(f"{name} must be positive and finite, got {out[key]!r}")
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
        self.gamma = _real(gamma, "gamma")
        if projection_radius is not None:
            projection_radius = _real(projection_radius, "projection_radius")
        self.projection_radius = projection_radius
        if regime == "strongly_convex":
            if not (self.gamma > 0 and math.isfinite(self.gamma)):
                raise ValueError("strongly_convex regime needs gamma > 0")
            if projection_radius is None:
                raise ValueError("strongly_convex regime needs a projection radius")
        elif self.gamma:
            raise ValueError("gamma is only meaningful for the strongly_convex regime")
        self.ridge_term = self.gamma / 2.0
        # The one step policy: the constant c of c/t when nonconvex, else the step.
        kind, policy = ("c", c) if regime == "nonconvex" else ("step", step)
        if steps is None or policy is None:
            raise ValueError(f"the {regime} regime needs a steps policy and a {kind} policy")
        self.steps_policy = _norm_policy(steps, "steps")
        self.step_policy = _norm_policy(policy, kind)
        # Smoothness does not depend on the certified radius, so a probe
        # model with radius 1 yields the constant the step policies and cap read.
        probe = make_loss(loss_kind, feature_bound, 1.0, label_bound, self.ridge_term)
        self._smoothness = probe.constants().smoothness

    def _resolve(self, policy: dict, n: int):
        """A policy's value at n: a step count, a step or a step constant."""
        mode = policy["mode"]
        if mode in ("fixed", "constant"):
            return policy["value"]
        if mode == "multiple_of_n":
            return int(round(policy["factor"] * n))
        if mode == "n_squared":
            return int(round(policy["factor"] * n * n))
        if mode == "inverse_gamma_n":
            return 1.0 / (self.gamma * n)
        if self._smoothness is None:
            raise ValueError("loss has no certified smoothness; give an explicit step value")
        return 1.0 / self._smoothness

    def spec_for(self, n: int) -> SgdSpec:
        """The run's plan at n: the one place a schedule is read and checked.

        A constant step must come with a certified smoothness and stay under
        its regime's cap; the strongly convex regime's gamma > 0 already
        makes the objective strongly convex.
        """
        step = self._resolve(self.step_policy, n)
        nonconvex = self.regime == "nonconvex"
        spec = SgdSpec(
            regime=self.regime,
            steps=self._resolve(self.steps_policy, n),
            step=None if nonconvex else step,
            step_constant=step if nonconvex else None,
            projection_radius=self.projection_radius,
        )
        if not nonconvex:
            if self._smoothness is None:
                raise ValueError(f"{self.regime} regime requires a certified smoothness")
            spec.check_step_cap(self._smoothness)
        return spec

    def loss_for(self, n: int) -> LossModel:
        if self.projection_radius is not None:
            radius = self.projection_radius
        else:
            radius = _drift_radius(
                self.loss_kind,
                self.spec_for(n).step_sizes(),
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

    def _fit_stack(self, features, labels, seeds, twin=None) -> np.ndarray:
        """Final kernel states, ``features`` and ``twin`` as :func:`_sgd_kernel`
        takes them, in calls of at most ``_STACK_FLOATS // steps`` runs, so no
        call's index streams exceed the stack budget; a run does not depend on its call.
        """
        n = features.shape[-2]
        loss, spec = self.loss_for(n), self.spec_for(n)
        size = max(1, _STACK_FLOATS // max(spec.steps, 1))
        parts = []
        for start in range(0, len(seeds), size):
            rows = slice(start, start + size)
            if twin is None:
                part = (features[rows], labels[rows], None)
            else:
                part = (features, labels, tuple(t[rows] for t in twin))
            parts.append(_sgd_kernel(loss, spec, seeds[rows], *part))
        if twin is not None:  # every call's HA rows, then every call's HB rows
            parts = [half for side in zip(*(np.split(H, 2) for H in parts)) for half in side]
        return np.concatenate(parts)


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


# Per preset: the parameters it needs, and those it may take.
_PRESET_KEYS = {
    "constant": ({"vector"}, ()),
    "ridge": ({"lam"}, ()),
    "rerm-lp": ({"p", "lam"}, {"tol", "max_iter"}),
    "sgd-nonconvex": ({"steps", "c"}, {"projection_radius"}),
    "sgd-convex": ({"steps", "step"}, {"projection_radius"}),
    "sgd-strongly-convex": ({"steps", "step", "gamma", "projection_radius"}, ()),
}


def make_algorithm(
    preset: str,
    loss_kind: str,
    feature_bound: float,
    label_bound: float = 1.0,
    **params,
):
    """Build a named algorithm preset bound to a loss and data domain.

    ``params`` are the preset's parameters, checked against ``_PRESET_KEYS``.
    """
    _tagged({"preset": preset, **params}, "preset", _PRESET_KEYS, "algorithm")
    if preset == "constant":
        output = np.array([_real(v, "vector entry") for v in _as_list(params["vector"], "vector")])
        radius = max(1.0, 2.0 * float(np.linalg.norm(output)))
        return ConstantAlgorithm(output, make_loss(loss_kind, feature_bound, radius, label_bound))
    if preset == "ridge":
        if loss_kind != "squared":
            raise ValueError("the ridge preset trains the squared loss")
        return RidgeAlgorithm(_real(params["lam"], "lam"), feature_bound, label_bound)
    if preset == "rerm-lp":
        penalty = PenaltySpec(p=_real(params["p"], "p"), lam=_real(params["lam"], "lam"))
        tol = _real(params.get("tol", 1e-9), "tol")
        max_iter = _integral(params.get("max_iter", 50000), "max_iter")
        return LpRermAlgorithm(
            loss_kind, penalty, feature_bound, label_bound, tol=tol, max_iter=max_iter
        )
    regime = preset[len("sgd-") :].replace("-", "_")
    return SgdAlgorithm(regime, loss_kind, feature_bound, label_bound, **params)
