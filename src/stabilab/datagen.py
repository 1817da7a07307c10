"""Synthetic data distributions with known ground truth.

Features are drawn uniformly from a centered sphere or ball, and labels
come from a fixed teacher vector through one of three mechanisms:

* :class:`LinearNoise` - real labels ``<h*, x> + noise``, for squared loss.
* :class:`LogisticTeacher` - ±1 labels with log-odds ``<h*, x>``.
* :class:`SignFlip` - ±1 labels ``sign(<h*, x>)`` flipped with fixed
  probability (zero gives a noiseless, realizable problem).

A mechanism labels in two steps: ``draw_raw(rng, out)`` reads its
randomness for each example of ``out`` from a stream, and
``labels_from(margins, raw)`` labels a whole block from margins and draws.
The ±1 mechanisms also give ``label_mean(margins)``, E[y | margin].

One private sampler, over one Philox key per sample, draws every sample:
:func:`draw_samples` (a (C, n, d) stack), its row 0 :func:`draw_sample`
and the replicate stacks of :func:`plan_blocks`. It reads each stream
straight into the output buffers, then does the arithmetic in place a
block at a time. :func:`plan_blocks` draws and fits groups of replicates,
and fits of a sample S, in ``fit_many`` calls of one fixed memory budget,
drawing each call's stack in the buffer of the last; :func:`fit_plan`
collects their fits.

:func:`true_risks` takes the population risk of a stack of hypotheses
exactly, with no sampling. The projection of a uniform point of the unit
sphere in R^D onto a k-dimensional subspace has density proportional to
(1 - ||u||^2)^((D - k)/2 - 1) (Fang, Kotz & Ng 1990), and a linear
hypothesis's risk depends on x only through its projection onto
span(h, teacher). So each risk is a closed form or an integral of at most
two dimensions, taken by Gauss-Legendre rules split at the kinks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .learners import Sample
from .losses import _STACK_FLOATS, LossModel, _matvec, _sigmoid
from .seeding import child_seeds, draw_each, stream_key, stream_keys

FEATURE_LAWS = ("sphere", "ball")

# A label mechanism may never actually produce labels outside the stated
# bound in a run of desk-scale length; this is the probability mass we are
# willing to ignore when certifying that.
_CLIP_MASS = 1e-12
# A Gaussian feature row with a norm below this is redrawn before scaling.
_MIN_NORM = 1e-12
# Examples per block of the sampler's in-place arithmetic, and quadrature
# nodes per block of the exact risk.
_BLOCK_EXAMPLES = 4096
# Gauss-Legendre nodes per piece of the exact risk's quadrature; doubling
# them moves no risk by 1e-12 relative (see _nodes for steep margins).
_NODES = 32
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class LinearNoise:
    """y = <teacher, x> + noise_sd * standard normal, for real labels."""

    noise_sd: float

    def __post_init__(self):
        if self.noise_sd < 0 or not math.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be non-negative and finite")

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        if self.noise_sd != 0:
            rng.standard_normal(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        if self.noise_sd == 0:
            return margins
        return margins + self.noise_sd * raw

    def classification(self) -> bool:
        return False


@dataclass(frozen=True)
class LogisticTeacher:
    """±1 labels with P(y = +1 | x) = sigmoid(<teacher, x>)."""

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        return np.where(raw < _sigmoid(margins), 1.0, -1.0)

    def label_mean(self, margins: np.ndarray) -> np.ndarray:
        """E[y | margin] = 2 sigmoid(margin) - 1."""
        return np.tanh(0.5 * np.asarray(margins, dtype=np.float64))

    def classification(self) -> bool:
        return True


@dataclass(frozen=True)
class SignFlip:
    """±1 labels sign(<teacher, x>), each flipped with probability flip_prob."""

    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")

    def draw_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        if self.flip_prob != 0:
            rng.random(out=out)

    def labels_from(self, margins: np.ndarray, raw: np.ndarray) -> np.ndarray:
        base = np.where(margins >= 0, 1.0, -1.0)
        if self.flip_prob == 0:
            return base
        return base * np.where(raw < self.flip_prob, -1.0, 1.0)

    def label_mean(self, margins: np.ndarray) -> np.ndarray:
        """E[y | margin], with a zero margin labelled +1 as labels_from does."""
        return (1.0 - 2.0 * self.flip_prob) * np.where(np.asarray(margins) >= 0, 1.0, -1.0)

    def classification(self) -> bool:
        return True


@dataclass(frozen=True)
class DistributionSpec:
    """A feature law, a teacher vector, and a label mechanism.

    For LinearNoise the label bound must leave enough headroom that a
    label outside it has probability below 1e-12 per draw; labels are then
    clipped to the bound so every emitted sample is in-domain.
    """

    dim: int
    feature_bound: float
    teacher: np.ndarray
    mechanism: object
    label_bound: float = 1.0
    feature_law: str = "sphere"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.feature_bound > 0 and math.isfinite(self.feature_bound)):
            raise ValueError("feature_bound must be positive and finite")
        if self.feature_law not in FEATURE_LAWS:
            raise ValueError(f"unknown feature law {self.feature_law!r}")
        teacher = np.array(self.teacher, dtype=np.float64, copy=True)
        if teacher.shape != (self.dim,) or not np.all(np.isfinite(teacher)):
            raise ValueError("teacher must be a finite vector of length dim")
        teacher.flags.writeable = False
        object.__setattr__(self, "teacher", teacher)
        if not all(hasattr(self.mechanism, m) for m in ("draw_raw", "labels_from")):
            raise ValueError("mechanism must provide draw_raw() and labels_from()")
        if self.mechanism.classification():
            if self.label_bound != 1.0:
                raise ValueError("classification mechanisms use label_bound 1")
        else:
            if not (self.label_bound > 0 and math.isfinite(self.label_bound)):
                raise ValueError("label_bound must be positive and finite")
            reach = float(np.linalg.norm(teacher)) * self.feature_bound
            margin = self.label_bound - reach
            sd = self.mechanism.noise_sd
            if margin < 0:
                raise ValueError(
                    "teacher reach exceeds the label bound; shrink the teacher"
                )
            if sd > 0 and math.erfc(margin / (sd * math.sqrt(2.0))) >= _CLIP_MASS:
                raise ValueError(
                    "label clipping would be non-negligible; lower noise_sd or "
                    "raise label_bound"
                )


def _sample_stack(spec: DistributionSpec, n: int, keys: list, out=None):
    """(C, n, d) features and (C, n) labels, sample c read from the Philox
    stream of ``keys[c]``: its n x d standard normals, its n radii (ball law
    only), then its raw label draws. Rows with a norm below ``_MIN_NORM``
    get fresh normals before the radii. ``out``, a pair of such arrays, is
    filled in place and returned. Raises ValueError if a label is not
    finite, or if n < 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    C, d = len(keys), spec.dim
    X, y = (np.empty((C, n, d)), np.empty((C, n))) if out is None else out
    step = max(1, _BLOCK_EXAMPLES // n)
    radii = np.empty((step, n)) if spec.feature_law == "ball" else None

    def read(rng, c, redraw=False):
        rng.standard_normal(out=X[c])
        while redraw and (low := np.linalg.norm(X[c], axis=1) < _MIN_NORM).any():
            X[c][low] = rng.standard_normal((int(low.sum()), d))
        if radii is not None:
            rng.random(out=radii[c % step])
        spec.mechanism.draw_raw(rng, y[c])

    for start in range(0, C, step):
        xb, yb = X[start : start + step], y[start : start + step]
        rows = iter(range(start, start + len(xb)))
        draw_each(keys[start : start + step], lambda rng: read(rng, next(rows)))
        norms = np.linalg.norm(xb, axis=-1)
        for c in start + np.flatnonzero((norms < _MIN_NORM).any(axis=1)):
            draw_each([keys[c]], lambda rng: read(rng, c, redraw=True))
            norms[c - start] = np.linalg.norm(X[c], axis=-1)
        xb /= norms[..., None]
        xb *= spec.feature_bound
        if radii is not None:
            rb = radii[: len(xb)]
            rb **= 1.0 / d  # the ** operator, which NumPy turns into sqrt for 1/2
            xb *= rb[..., None]
        yb[...] = spec.mechanism.labels_from(xb @ spec.teacher, yb)
    if not spec.mechanism.classification():
        np.clip(y, -spec.label_bound, spec.label_bound, out=y)
    if not np.all(np.isfinite(y)):
        raise ValueError("drawn examples must be finite")
    return X, y


def draw_sample(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """n i.i.d. examples, row 0 of ``draw_samples(spec, n, [seed])``."""
    X, y = draw_samples(spec, n, [seed])
    return Sample(X[0], y[0])


def draw_samples(spec: DistributionSpec, n: int, seeds):
    """(C, n, d) features and (C, n) labels; row c is drawn on ``(seeds[c],
    "datagen")``, so it depends only on (spec, n, seeds[c]). Raises
    ValueError if a label is not finite."""
    return _sample_stack(spec, n, [stream_key(seed, "datagen") for seed in seeds])


@dataclass(frozen=True)
class FitGroup:
    """Rows of a fit plan: ``count`` replicate samples, or one fit of the sample S.

    Replicate j of a group reads the stream keyed by ``stream_key(seed,
    f"{label}-sample", j)``, so it depends only on (dist, n, seed, label,
    j); a stochastic preset fits it on ``child_seed(seed, f"{label}-fit",
    j)``, a deterministic one on 0. With ``count=None`` the group is one fit
    of S on the fit seed ``seed``; ``label`` then only names it. Any run of
    a group's replicates can be drawn and fitted apart from the others.
    """

    label: str
    seed: int
    count: int | None = None

    @property
    def rows(self) -> int:
        """The group's rows in a fit plan: its replicates, or S's one row."""
        return 1 if self.count is None else self.count


def _draw_group(algorithm, dist, group: FitGroup, rows: slice, X, y, sample=None) -> list:
    """Fill the stack slices ``X``, ``y`` with the group's samples ``rows``;
    returns their fit seeds."""
    if group.count is None:
        X[...], y[...] = sample.features, sample.labels
        return [group.seed]
    seed, label, replicates = group.seed, group.label, range(group.count)[rows]
    _sample_stack(dist, X.shape[1], stream_keys(seed, f"{label}-sample", items=replicates), (X, y))
    if algorithm.stochastic:
        return child_seeds(seed, f"{label}-fit", items=replicates)
    return [0] * len(replicates)


def _cut(groups, cap: int) -> list:
    """The parts of each call: the groups' rows laid out group after group
    and cut every ``cap`` rows. A part (i, rows, at) puts the rows ``rows``
    of group i at the call's rows ``at``."""
    calls, filled = [], cap
    for i, group in enumerate(groups):
        start = 0
        while start < group.rows:
            if filled == cap:
                calls.append([])
                filled = 0
            take = min(cap - filled, group.rows - start)
            calls[-1].append((i, slice(start, start + take), slice(filled, filled + take)))
            start, filled = start + take, filled + take
    return calls


def plan_blocks(algorithm, dist: DistributionSpec, n: int, groups, sample=None):
    """Yield (parts, X, y, H) for each ``fit_many`` call of a fit plan.

    The groups' rows (S's one row for a group of S) are laid out group after
    group and cut every ``max(1, _STACK_FLOATS // (n (d + 1)))`` rows, so no
    call's features and labels exceed ``_STACK_FLOATS`` floats. A part (i,
    rows, at) puts the rows ``rows`` of group i at the call's rows ``at``.
    Each call draws its stack ``X``, ``y`` in place in one buffer, on each
    group's own keys and fit seeds, and fits it to ``H``; the next call
    redraws the buffer. A replicate is drawn from its key alone and every
    preset fits a row as it fits that sample alone, so no row depends on
    the cut. Raises ValueError if n < 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = max(1, _STACK_FLOATS // (n * (dist.dim + 1)))
    size = min(cap, sum(group.rows for group in groups))
    features, labels = np.empty((size, n, dist.dim)), np.empty((size, n))
    for parts in _cut(groups, cap):
        end = parts[-1][2].stop
        X, y = features[:end], labels[:end]
        seeds = []
        for i, rows, at in parts:
            seeds += _draw_group(algorithm, dist, groups[i], rows, X[at], y[at], sample)
        try:
            H = algorithm.fit_many(X, y, seeds)
        except Exception as exc:
            names = ", ".join(groups[i].label for i, _, _ in parts)
            raise RuntimeError(f"{names} fits failed: {exc}") from exc
        yield parts, X, y, H


def fit_plan(algorithm, dist: DistributionSpec, n: int, groups, sample=None) -> list:
    """The (rows, d) fits of each :class:`FitGroup` at n, through the calls
    of :func:`plan_blocks`; they do not depend on how the calls cut the
    groups."""
    fits = [np.empty((group.rows, dist.dim)) for group in groups]
    for parts, _, _, H in plan_blocks(algorithm, dist, n, groups, sample):
        for i, rows, at in parts:
            fits[i][rows] = H[at]
    return fits


def _sphere_dim(spec: DistributionSpec) -> int:
    """D such that x / B is distributed as the first dim coordinates of a
    uniform point of the unit sphere in R^D: dim for the sphere law and
    dim + 2 for the ball (the uniform ball in R^d is the projection of the
    uniform sphere in R^(d+2))."""
    return spec.dim + (2 if spec.feature_law == "ball" else 0)


@functools.lru_cache(maxsize=None)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use.

    Newton's method on P_n(cos theta) from Tricomi's estimates of the root
    angles; a root x = cos theta has weight 2 / (sin theta P_n'(x))^2.
    Elementwise arithmetic only: no LAPACK call, and no import of
    numpy.polynomial, which costs about 1.3 MiB of resident memory.
    """

    def legendre(x):
        # P_n and P_n' by P_(k+1) = ((2k+1) x P_k - k P_(k-1)) / (k+1) and
        # P_(k+1)' = P_(k-1)' + (2k+1) P_k.
        p0, p1, d0, d1 = np.ones_like(x), x, np.zeros_like(x), np.ones_like(x)
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            d0, d1 = d1, d0 + (2 * k + 1) * p0
        return p1, d1

    theta = math.pi * (np.arange(n) + 0.75) / (n + 0.5)
    for _ in range(6):
        value, slope = legendre(np.cos(theta))
        theta = theta + value / (np.sin(theta) * slope)
    _, slope = legendre(np.cos(theta))
    nodes, weights = np.cos(theta), 2.0 / (np.sin(theta) * slope) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _cos_mass(k: int) -> float:
    """The integral of cos^k over [-pi/2, pi/2]."""
    mass = math.pi if k % 2 == 0 else 2.0
    for j in range(k % 2 + 2, k + 1, 2):
        mass *= (j - 1) / j
    return mass


def _arc_rule(lo, hi, power: int, n: int, bent: bool = False):
    """Angles (..., n) and weights of an n-point Gauss-Legendre rule for the
    integral over [lo, hi] against cos^power / _cos_mass(power).

    A bent rule puts the nodes at hi - (hi - lo) w^2 for Gauss nodes w in
    [0, 1], which makes an integrand that behaves as sqrt(hi - angle)
    polynomial in w.
    """
    x, g = _legendre(n)
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    if bent:
        w = 0.5 * (x + 1.0)
        angles, weights = hi - (hi - lo) * w * w, (hi - lo) * w * g
    else:
        angles, weights = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * g
    return angles, weights * np.cos(angles) ** power / _cos_mass(power)


def _nodes(steepest: float) -> int:
    """Nodes per piece for a smooth integrand of margins up to ``steepest``:
    _NODES up to 16, and more in proportion beyond."""
    return _NODES * max(1, math.ceil(steepest / 16.0))


def _hinge_excess(mech, D: int, M, cos_b, sin_b, c: float, n: int) -> np.ndarray:
    """E[(M p - 1)_+ (1 + mu(a))] for each row with M > 1, where p is the
    coordinate along h, a = c (cos_b p + sin_b q) the teacher margin and mu
    the label mean.

    The outer integral runs over the angle psi = arcsin p from arcsin(1/M),
    the hinge kink, to pi/2. It is split where the line a = 0 leaves the
    circle (tan psi = |tan b|); just below that angle the inner mean moves
    as a half-integer power of the distance to it, which a bent rule makes
    polynomial. Given p, q is sqrt(1 - p^2) sin phi, and the inner integral
    over phi is split where a changes sign, so that a SignFlip mean is
    constant on each piece. D = 2 has the two-point inner law
    q = ±sqrt(1 - p^2).
    """
    lo = np.arcsin(1.0 / M)
    mid = np.clip(np.arctan2(sin_b, np.abs(cos_b)), lo, _HALF_PI)
    bent_at, bent_w = _arc_rule(lo, mid, D - 2, n, bent=True)
    flat_at, flat_w = _arc_rule(mid, _HALF_PI, D - 2, n)
    psi = np.concatenate([bent_at, flat_at], axis=-1)
    weights = np.concatenate([bent_w, flat_w], axis=-1)
    ramp = M[:, None] * np.sin(psi) - 1.0
    if c == 0.0:
        return np.einsum("ri,ri->r", ramp, weights)
    along = c * cos_b[:, None] * np.sin(psi)
    across = c * sin_b[:, None] * np.cos(psi)
    if D == 2:
        mean = 0.5 * (mech.label_mean(along - across) + mech.label_mean(along + across))
    else:
        edge = np.where(along >= 0.0, -1.0, 1.0)
        np.divide(-along, across, out=edge, where=across > 0.0)
        edge = np.arcsin(np.clip(edge, -1.0, 1.0))
        below = _arc_rule(-_HALF_PI, edge, D - 3, n)
        above = _arc_rule(edge, _HALF_PI, D - 3, n)
        phi = np.concatenate([below[0], above[0]], axis=-1)
        inner = np.concatenate([below[1], above[1]], axis=-1)
        margins = along[..., None] + across[..., None] * np.sin(phi)
        mean = np.einsum("rij,rij->ri", mech.label_mean(margins), inner)
    return np.einsum("ri,ri->r", ramp * (1.0 + mean), weights)


def _classification_risks(loss: LossModel, H: np.ndarray, spec: DistributionSpec):
    """Risks without the ridge term of each row under a ±1 label mechanism.

    With mu(a) = E[y | teacher margin a] and the margin m = <h, x>, the risk
    is E[S(m)] + E[mu(a) A(m)] for S and A the even and odd parts
    (phi(m, +1) +- phi(m, -1)) / 2. A is linear for the squared (-2m) and
    logistic (-m/2) losses, and E[mu(a) <h, x>] = B <h, t/||t||> J with
    J = E[u mu(c u)] over one coordinate u of the unit sphere in R^D and
    c = B ||t||; so both are one-dimensional. The hinge's A is
    -(m + clip(m, -1, 1)) / 2, which leaves the two-dimensional
    :func:`_hinge_excess` for rows with B ||h|| > 1.
    """
    kind, mech, B, t = loss.kind, spec.mechanism, spec.feature_bound, spec.teacher
    D = _sphere_dim(spec)
    if D == 1:
        x = np.array([-B, B])
        return 0.5 * np.einsum("ci->c", loss.expected_values(H * x, mech.label_mean(t[0] * x)))
    t_norm = math.sqrt(float(np.einsum("d,d->", t, t)))
    c = B * t_norm
    ht = np.einsum("cd,d->c", H, t / t_norm) if t_norm else np.zeros(len(H))
    hh = np.einsum("cd,cd->c", H, H)
    along = B * ht
    n = _nodes(c)
    psi, w = _arc_rule(0.0, _HALF_PI, D - 2, n)
    J = 2.0 * float(np.einsum("i,i->", np.sin(psi) * mech.label_mean(c * np.sin(psi)), w))
    if kind == "squared":
        return B * B * hh / D + 1.0 - 2.0 * along * J
    M = B * np.sqrt(hh)
    if kind == "logistic":
        # The even part varies on the margin scale, up to B times the certified radius.
        n = _nodes(B * loss.radius)
        psi, w = _arc_rule(0.0, _HALF_PI, D - 2, n)
        values = np.empty(len(H))
        step = max(1, _BLOCK_EXAMPLES // n)
        for start in range(0, len(H), step):
            even = loss.expected_values(M[start : start + step, None] * np.sin(psi), 0.0)
            values[start : start + step] = 2.0 * np.einsum("ri,i->r", even, w)
        return values - 0.5 * along * J
    # hinge: S(m) = 1 + (|m| - 1)_+ / 2, and by the symmetry u -> -u
    # E[mu(a) A(m)] = -B <h, t/||t||> J + E[(M p - 1)_+ mu(a)]; the two
    # expectations with a ramp are _hinge_excess, which only rows with M > 1 reach.
    values = 1.0 - along * J
    rows = np.flatnonzero(M > 1.0)
    step = max(1, _BLOCK_EXAMPLES // (4 * n * n))
    for start in range(0, len(rows), step):
        r = rows[start : start + step]
        norm = np.sqrt(hh[r])
        cos_b, sin_b = ht[r] / norm, np.sqrt(np.maximum(hh[r] - ht[r] ** 2, 0.0)) / norm
        values[r] += _hinge_excess(mech, D, M[r], cos_b, sin_b, c, n)
    return values


def true_risks(loss: LossModel, H, spec: DistributionSpec) -> np.ndarray:
    """The exact population risk of each row of a (C, d) stack of hypotheses.

    A linear hypothesis's risk depends on x only through (<teacher, x>,
    <h, x>), whose law is that of a 2-D projection of the uniform sphere
    (see :func:`_sphere_dim`). Squared loss with LinearNoise has the closed
    form ||h - teacher||^2 * B^2 / D + noise_sd^2; the ±1 mechanisms, which
    provide ``label_mean``, reduce to the one- and two-dimensional
    integrals of :func:`_classification_risks`, taken by Gauss-Legendre
    rules split at every kink. The ridge term is added as rho * ||h||^2.
    Sums run in a fixed order, and a row reads no other row.
    """
    H = loss.check_hypothesis(H)
    if H.ndim != 2 or H.shape[1] != spec.dim:
        raise ValueError("hypothesis dimension does not match the distribution")
    mech = spec.mechanism
    if isinstance(mech, LinearNoise) and loss.kind == "squared":
        G = H - spec.teacher
        values = _matvec(G[:, None, :], G)[:, 0] * spec.feature_bound**2 / _sphere_dim(spec)
        values += mech.noise_sd**2
    elif mech.classification() and hasattr(mech, "label_mean"):
        values = _classification_risks(loss, H, spec)
    else:
        raise ValueError(f"no exact risk for {loss.kind} loss under {type(mech).__name__}")
    if loss.ridge_term:
        values += loss.ridge_term * _matvec(H[:, None, :], H)[:, 0]
    return values
