"""Loss models for linear prediction, with certified analytic constants.

Every loss here is of margin form ``loss(h, (x, y)) = phi(<h, x>, y)``,
optionally plus a ridge term ``rho * ||h||^2`` used to make an objective
strongly convex. The model certifies, over the domain
``{||h|| <= radius} x {||x|| <= feature_bound}``:

=========  =======================  ==========================  ============
kind       margin Lipschitz L       value bound M               smoothness s
=========  =======================  ==========================  ============
hinge      1                        1 + R*B                     (none)
logistic   1                        log(1 + exp(R*B))           B^2 / 4
squared    2*(R*B + Y)              (R*B + Y)^2                 2*B^2
=========  =======================  ==========================  ============

with R the hypothesis radius, B the feature bound, and Y the label bound
(labels of the classification losses are hard ±1, so Y = 1 there). L is
stated so that ``|loss(h,z) - loss(g,z)| <= L * |<h,x> - <g,x>|`` for the
pure margin losses; the gradient-norm bound ``||grad|| <= L*B`` holds for
all of them, and for ridge-augmented models L is enlarged by ``2*rho*R/B``
so that the same product L*B stays a gradient bound over the domain. The
ridge term adds ``rho * R^2`` to M, ``2*rho`` to s, and makes the model
``2*rho``-strongly convex.

Logistic values (and M) are the split softplus max(t, 0) + log1p(exp(-|t|))
at t = -y*<h,x>, in place by NumPy ufuncs. NumPy's AVX512 exp and log1p can
round unlike libm's, so logistic report digests follow its SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .seeding import substream

KINDS = ("hinge", "logistic", "squared")

# Entries of one block-sized temporary (1 MiB of float64): feature norms,
# ridge twin cells, penalized-ERM rows and SGD steps are worked through in
# blocks no larger.
_BLOCK_FLOATS = 1 << 17
# Features and labels of one fit plan call (8 MiB of float64): replicate
# stacks are drawn and fitted in calls no larger (see datagen.plan_blocks).
_STACK_FLOATS = 8 * _BLOCK_FLOATS


@dataclass(frozen=True)
class LossConstants:
    """Certified constants of a loss model over its declared domain."""

    lipschitz: float
    bound: float
    smoothness: float | None
    strong_convexity: float


def _slack(bound: float) -> float:
    """A domain limit widened by the round-off that norms and projections leave."""
    return bound * (1.0 + 1e-9) + 1e-12


def _sigmoid(t: np.ndarray, out=None) -> np.ndarray:
    """1/(1+exp(-t)) without overflow on either tail, in one pass.

    With e = exp(-|t|) <= 1, one 1 + e divides a numerator that is 1 where
    t >= 0 and e below, which is bitwise the split form exp(t)/(1+exp(t))
    for t < 0. The value is computed in place in ``out``, a float64 array of
    t's shape (``t`` itself allowed), allocated when not given.
    """
    t = np.asarray(t, dtype=np.float64)
    high = t >= 0
    e = np.abs(t, out=np.empty_like(t) if out is None else out)
    np.exp(np.negative(e, out=e), out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=high)
    return np.divide(e, den, out=e)


def _matvec(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A @ h; for stacks A (C, m, d) and h (C, d), row c is A[c] @ h[c] by
    the matrix-vector product a lone (m, d) @ (d,) uses."""
    return A @ h if h.ndim == 1 else (A @ h[..., None])[..., 0]


def margin_values(kind: str, margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """phi(u, y) for a batch of margins, without domain checks."""
    u = np.asarray(margins, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - y * u)
    if kind == "logistic":
        t = np.asarray(-y * u)
        high = np.maximum(t, 0.0)
        np.negative(np.abs(t, out=t), out=t)
        np.log1p(np.exp(t, out=t), out=t)
        return np.add(t, high, out=t)
    if kind == "squared":
        return (u - y) ** 2
    raise ValueError(f"unknown loss kind {kind!r}")


def margin_slopes(kind: str, margins: np.ndarray, labels: np.ndarray, out=None) -> np.ndarray:
    """d phi / d u for a batch of margins, without domain checks.

    The slopes are computed in place in ``out``, a float64 array of the
    broadcast shape that shares no memory with the inputs, allocated when
    not given. The hinge slope at margin exactly 1 is taken to be 0 (a
    valid subgradient, and the convention every calculation here relies
    on). The logistic slope is -y sigmoid(-y u), by :func:`_sigmoid`.
    """
    u = np.asarray(margins, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, y.shape))
    if kind == "hinge":
        below = np.multiply(y, u, out=out) < 1.0
        out.fill(0.0)
        return np.negative(y, out=out, where=below)
    if kind == "logistic":
        neg_y = np.negative(y)
        _sigmoid(np.multiply(neg_y, u, out=out), out=out)
        return np.multiply(neg_y, out, out=out)
    if kind == "squared":
        np.subtract(u, y, out=out)
        return np.multiply(out, 2.0, out=out)
    raise ValueError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True)
class LossModel:
    """A margin loss plus optional ridge term, certified on a bounded domain.

    Use :func:`make_loss` rather than the constructor; it validates the
    domain parameters and fixes the label bound of classification losses.
    """

    kind: str
    feature_bound: float
    radius: float
    label_bound: float
    ridge_term: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (self.feature_bound > 0 and math.isfinite(self.feature_bound)):
            raise ValueError("feature bound must be positive and finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("hypothesis radius must be positive and finite")
        if not (self.label_bound > 0 and math.isfinite(self.label_bound)):
            raise ValueError("label bound must be positive and finite")
        if self.ridge_term < 0 or not math.isfinite(self.ridge_term):
            raise ValueError("ridge term must be non-negative and finite")

    # -- certified constants -------------------------------------------------

    def constants(self) -> LossConstants:
        rb = self.radius * self.feature_bound
        if self.kind == "hinge":
            base_l, base_m, base_s = 1.0, 1.0 + rb, None
        elif self.kind == "logistic":
            base_l = 1.0
            base_m = float(margin_values("logistic", np.array([rb]), np.array([-1.0]))[0])
            base_s = self.feature_bound**2 / 4.0
        else:
            base_l = 2.0 * (rb + self.label_bound)
            base_m = (rb + self.label_bound) ** 2
            base_s = 2.0 * self.feature_bound**2
        rho = self.ridge_term
        lipschitz = base_l + 2.0 * rho * self.radius / self.feature_bound
        bound = base_m + rho * self.radius**2
        smoothness = None if base_s is None else base_s + 2.0 * rho
        return LossConstants(
            lipschitz=lipschitz,
            bound=bound,
            smoothness=smoothness,
            strong_convexity=2.0 * rho,
        )

    def value_at_zero(self) -> float:
        """Largest loss value at h = 0 over labels in the domain."""
        return float(margin_values(self.kind, np.zeros(1), np.array([self.label_bound]))[0])

    # -- domain checks -------------------------------------------------------

    def check_hypothesis(self, h: np.ndarray) -> np.ndarray:
        """h as float64, a vector (d,) or a stack (C, d); DomainError if a row leaves the ball."""
        h = np.asarray(h, dtype=np.float64)
        if h.ndim not in (1, 2):
            raise ValueError("hypothesis must be a vector (d,) or a stack (C, d)")
        if not np.all(np.isfinite(h)):
            raise ValueError("hypothesis entries must be finite")
        norms = np.linalg.norm(h, axis=-1)
        if not np.all(norms <= _slack(self.radius)):
            raise DomainError(
                f"hypothesis norm {float(norms.max()):.6g} exceeds certified radius "
                f"{self.radius:.6g}"
            )
        return h

    def check_examples(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Raise DomainError if an example leaves the domain: features (..., d), labels (...).

        Every test is written as "all within the limit", so NaN fails it.
        The norms are np.linalg.norm's, sqrt(add.reduce(x * x)), with the
        squares taken a block of at most ``_BLOCK_FLOATS`` entries at a time,
        so no temporary the size of a stack is made.
        """
        flat = np.asarray(features, dtype=np.float64)
        flat = flat.reshape(-1, flat.shape[-1])
        norms = np.empty(len(flat))
        block = max(1, _BLOCK_FLOATS // max(1, flat.shape[-1]))
        for start in range(0, len(flat), block):
            rows = flat[start : start + block]
            np.add.reduce(rows * rows, axis=-1, out=norms[start : start + block])
        np.sqrt(norms, out=norms)
        if not np.all(norms <= _slack(self.feature_bound)):
            raise DomainError(
                f"feature norm {float(norms.max()):.6g} exceeds bound {self.feature_bound:.6g}"
            )
        if self.kind in ("hinge", "logistic"):
            if not np.all(np.abs(np.abs(labels) - 1.0) <= 1e-12):
                raise DomainError("classification labels must be exactly +1 or -1")
        elif not np.all(np.abs(labels) <= _slack(self.label_bound)):
            raise DomainError(
                f"label magnitude {float(np.abs(labels).max()):.6g} exceeds bound "
                f"{self.label_bound:.6g}"
            )

    # -- batch helpers (no domain checks; used by solvers and experiments) ---

    # Each takes one hypothesis h (d,) on X (n, d) and y (n,), or a stack:
    # h (C, d) on X (C, n, d) and y (C, n), row c by the arithmetic of the
    # one-hypothesis form on sample c.

    def values_raw(self, h: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The loss at each example: (n,), or (C, n) for a stack."""
        vals = margin_values(self.kind, _matvec(X, h), y)
        if self.ridge_term:
            sq = float(h @ h) if h.ndim == 1 else _matvec(h[:, None, :], h)
            vals = vals + self.ridge_term * sq
        return vals

    def expected_values(self, margins: np.ndarray, label_means) -> np.ndarray:
        """E[phi(m, y)] at each margin m for a ±1 label y with the given mean,
        without the ridge term."""
        up = 0.5 * (1.0 + np.asarray(label_means, dtype=np.float64))
        plus = margin_values(self.kind, margins, np.ones_like(margins))
        return up * plus + (1.0 - up) * margin_values(self.kind, margins, -np.ones_like(margins))

    def risk_gradient_raw(self, h: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The gradient of the mean loss: (d,), or (C, d) for a stack."""
        slopes = margin_slopes(self.kind, _matvec(X, h), y)
        grad = _matvec(np.swapaxes(X, -1, -2), slopes) / X.shape[-2]
        if self.ridge_term:
            grad = grad + 2.0 * self.ridge_term * h
        return grad


def make_loss(
    kind: str,
    feature_bound: float,
    hypothesis_radius: float,
    label_bound: float = 1.0,
    ridge_term: float = 0.0,
) -> LossModel:
    """Build a loss model certified on the given domain.

    Classification losses (hinge, logistic) take hard ±1 labels, so their
    stored label bound is always 1 regardless of the argument.
    """
    if kind in ("hinge", "logistic"):
        label_bound = 1.0
    return LossModel(
        kind=kind,
        feature_bound=float(feature_bound),
        radius=float(hypothesis_radius),
        label_bound=float(label_bound),
        ridge_term=float(ridge_term),
    )


def _certify_draws(loss: LossModel, rng, count: int, dim: int, margin_gap: float):
    """Draw (H, X, y) with hypotheses strictly inside the certified ball.

    For the hinge loss, points whose margin lies within ``margin_gap`` of
    the kink at y*<h,x> = 1 are redrawn so directional derivatives exist.
    """
    hs, xs, ys = [], [], []
    needed = count
    while needed > 0:
        m = 2 * needed
        hdir = rng.normal(size=(m, dim))
        hdir /= np.linalg.norm(hdir, axis=1, keepdims=True)
        H = hdir * (loss.radius * (1.0 - 1e-4) * rng.random(size=(m, 1)))
        xdir = rng.normal(size=(m, dim))
        xdir /= np.linalg.norm(xdir, axis=1, keepdims=True)
        X = xdir * (loss.feature_bound * rng.random(size=(m, 1)) ** (1.0 / dim))
        if loss.kind in ("hinge", "logistic"):
            y = np.where(rng.random(size=m) < 0.5, -1.0, 1.0)
        else:
            y = rng.uniform(-loss.label_bound, loss.label_bound, size=m)
        keep = np.ones(m, dtype=bool)
        if loss.kind == "hinge" and margin_gap > 0.0:
            margins = np.einsum("td,td->t", H, X)
            keep = np.abs(1.0 - y * margins) > margin_gap
        take = min(needed, int(keep.sum()))
        idx = np.flatnonzero(keep)[:take]
        hs.append(H[idx])
        xs.append(X[idx])
        ys.append(y[idx])
        needed -= take
    return np.concatenate(hs), np.concatenate(xs), np.concatenate(ys)


def certify_loss(
    loss: LossModel,
    dim: int = 4,
    points: int = 1000,
    triples: int = 10000,
    seed: int = 0,
    fd_tolerance: float = 1e-5,
) -> dict:
    """Monte-Carlo certification of a loss model's gradient and constants.

    Three checks over the certified domain, all seeded:

    * finite differences: central differences of the value along a random
      direction agree with the analytic gradient to ``fd_tolerance``
      relative error on ``points`` draws (hinge draws avoid the kink);
    * Lipschitz and value bound: on ``triples`` random (h, g, z) triples,
      ``|loss(h,z) - loss(g,z)| <= L*B*||h-g||`` and ``0 <= loss <= M``;
    * smoothness (when certified): gradient differences are bounded by
      ``s * ||h-g||`` on the same triples.

    Returns a nested dict of observed extremes with an overall "ok" flag.
    """
    if dim < 1 or points < 1 or triples < 1:
        raise ValueError("dim, points and triples must be positive")
    rng = substream(seed, "loss-certify")
    consts = loss.constants()

    # Row t of each draw is one hypothesis on a one-example sample: the batch
    # helpers on (t, 1, d) stacks.
    H, X, y = _certify_draws(loss, rng, points, dim, margin_gap=1e-3)
    X, y = X[:, None, :], y[:, None]
    V = rng.normal(size=(points, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    eps = 1e-6 * loss.radius
    plus = loss.values_raw(H + eps * V, X, y)[:, 0]
    minus = loss.values_raw(H - eps * V, X, y)[:, 0]
    fd = (plus - minus) / (2.0 * eps)
    dots = np.einsum("td,td->t", loss.risk_gradient_raw(H, X, y), V)
    fd_rel = float(np.max(np.abs(fd - dots) / np.maximum(1.0, np.abs(dots))))

    H1, X2, y2 = _certify_draws(loss, rng, triples, dim, margin_gap=0.0)
    H2, _, _ = _certify_draws(loss, rng, triples, dim, margin_gap=0.0)
    X2, y2 = X2[:, None, :], y2[:, None]
    vals1 = loss.values_raw(H1, X2, y2)[:, 0]
    vals2 = loss.values_raw(H2, X2, y2)[:, 0]
    dists = np.linalg.norm(H1 - H2, axis=1)
    lip_limit = _slack(consts.lipschitz * loss.feature_bound) * dists + 1e-15
    lip_excess = float(np.max(np.abs(vals1 - vals2) - lip_limit))
    all_vals = np.concatenate([vals1, vals2])
    value_low = float(all_vals.min())
    value_high = float(all_vals.max())
    bound_ok = value_low >= -1e-12 and value_high <= _slack(consts.bound)

    smooth = None
    if consts.smoothness is not None:
        G1 = loss.risk_gradient_raw(H1, X2, y2)
        G2 = loss.risk_gradient_raw(H2, X2, y2)
        grad_diffs = np.linalg.norm(G1 - G2, axis=1)
        smooth_limit = _slack(consts.smoothness) * dists + 1e-15
        smooth_excess = float(np.max(grad_diffs - smooth_limit))
        smooth = {
            "triples": triples,
            "max_excess": smooth_excess,
            "ok": smooth_excess <= 0.0,
        }

    report = {
        "kind": loss.kind,
        "ridge_term": loss.ridge_term,
        "finite_difference": {
            "points": points,
            "max_rel_error": fd_rel,
            "tolerance": fd_tolerance,
            "ok": fd_rel <= fd_tolerance,
        },
        "lipschitz": {
            "triples": triples,
            "max_excess": lip_excess,
            "ok": lip_excess <= 0.0,
        },
        "bound": {
            "triples": triples,
            "min_value": value_low,
            "max_value": value_high,
            "limit": consts.bound,
            "ok": bound_ok,
        },
        "smoothness": smooth,
    }
    checks = [report["finite_difference"], report["lipschitz"], report["bound"]]
    if smooth is not None:
        checks.append(smooth)
    report["ok"] = all(c["ok"] for c in checks)
    return report
