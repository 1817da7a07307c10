"""Serial dense-grid reference for the exact population risk.

One hypothesis at a time, the risk E_x E_y[loss(h, (x, y))] is summed by
the midpoint rule over the projection u of x / B onto the plane of the
teacher direction and h:

* the sphere in R^1 is the two points ±1, and the ball in R^1 the interval
  [-1, 1] with the uniform density;
* the sphere in R^2 is the unit circle, by its angle;
* otherwise u fills the unit disc with density proportional to
  (1 - r^2)^alpha, alpha = (d - 4)/2 on the sphere and (d - 2)/2 on the
  ball (Fang, Kotz & Ng 1990). The disc is summed in polar coordinates,
  with v = sqrt(1 - r^2) in place of the radius, which turns the density
  times r dr into v^(2 alpha + 1) dv.

The cells are cut where the integrand jumps or kinks: where the teacher
margin changes sign (a SignFlip label jumps) and where <h, x> = ±1 (the
hinge's kink). Within each piece the midpoint rule runs on a smooth
change of variable (see :func:`_cells`). The label law is written out
from the mechanism's definition, P(y = +1 | margin a) = sigmoid(a), or
1 - flip_prob for a >= 0 and flip_prob below, without the library's
``label_mean``; the loss is the library's ``margin_values``. No
decomposition of the loss is used.
"""

import math

import numpy as np

from stabilab.datagen import LinearNoise, LogisticTeacher, SignFlip
from stabilab.losses import _sigmoid, margin_values

# Midpoint cells per piece: of the interval or circle, and of the angle and
# of v along the disc's radius.
LINE_CELLS = 400
ANGLE_CELLS = 30
RADIUS_CELLS = 80


def _cells(lo, hi, cells: int):
    """Points and weights of the midpoint rule over [lo, hi] in s, where
    x = lo + (hi - lo) (s - sin(2 pi s) / (2 pi)) for s in [0, 1]. The map's
    derivative vanishes to second order at both ends, so the rule's error on
    an integrand smooth up to the ends falls as cells^-4 rather than
    cells^-2. lo and hi may be arrays; the cells run along a new last axis."""
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    s = (np.arange(cells) + 0.5) / cells
    x = lo + (hi - lo) * (s - np.sin(2.0 * math.pi * s) / (2.0 * math.pi))
    return x, (hi - lo) * (1.0 - np.cos(2.0 * math.pi * s)) / cells


def _pieces(cuts, cells: int):
    """The cells of the pieces between consecutive sorted cuts (..., k),
    flattened to (..., (k - 1) * cells)."""
    x, w = _cells(cuts[..., :-1], cuts[..., 1:], cells)
    return x.reshape(*x.shape[:-2], -1), w.reshape(*w.shape[:-2], -1)


def _angles(r, direction: float, reach: float, cells: int):
    """Angles from the teacher direction over one turn on circles of radius
    r (k,), cut at ±pi/2 and where each circle crosses the lines
    <u, e> = ±reach for e the unit vector at ``direction``."""
    cross = np.arccos(np.clip(reach / r, -1.0, 1.0))
    cuts = [np.full_like(r, -0.5 * math.pi), np.full_like(r, 0.5 * math.pi)]
    for centre in (direction, direction + math.pi):
        cuts += [centre - cross, centre + cross]
    cuts = np.sort((np.stack(cuts, axis=-1) + 0.5 * math.pi) % (2.0 * math.pi), axis=-1)
    cuts = np.concatenate([cuts, cuts[..., :1] + 2.0 * math.pi], axis=-1) - 0.5 * math.pi
    return _pieces(cuts, cells)


def _projection(d: int, law: str, direction: float, reach: float):
    """Points (u1, u2) of the projected law, u1 along the teacher, and their
    weights, summing to 1; h lies at ``direction`` and its kinks at
    <u, h / ||h||> = ±reach."""
    if d == 1 and law == "sphere":
        u1, weights = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    elif d == 1:
        u1, weights = _pieces(np.array([-1.0, -reach, 0.0, reach, 1.0]), LINE_CELLS)
    if d == 1:
        return u1, np.zeros_like(u1), weights / weights.sum()
    if d == 2 and law == "sphere":
        theta, weights = _angles(np.ones(1), direction, reach, LINE_CELLS)
        return np.cos(theta[0]), np.sin(theta[0]), weights[0] / weights.sum()
    alpha = (d - 4) / 2 if law == "sphere" else (d - 2) / 2
    # The kink lines touch the circle of radius reach, v = sqrt(1 - reach^2).
    v, w_v = _pieces(np.array([0.0, math.sqrt(1.0 - reach * reach), 1.0]), RADIUS_CELLS)
    r = np.sqrt(1.0 - v * v)
    theta, w_theta = _angles(r, direction, reach, ANGLE_CELLS)
    u1, u2 = (r[:, None] * np.cos(theta)).ravel(), (r[:, None] * np.sin(theta)).ravel()
    weights = ((v ** (2 * alpha + 1) * w_v)[:, None] * w_theta).ravel()
    return u1, u2, weights / weights.sum()


def _coordinates(teacher: np.ndarray, h: np.ndarray):
    """h's coordinates (along, across) in the plane of the teacher direction:
    the law is rotation invariant, so they fix the margin."""
    t_norm = float(np.linalg.norm(teacher))
    unit = teacher / t_norm if t_norm > 0 else np.eye(len(teacher))[0]
    along = float(h @ unit)
    return along, float(np.linalg.norm(h - along * unit))


def serial_risk(loss, h, spec) -> float:
    """The population risk of one hypothesis, loss's ridge term included."""
    h = np.asarray(h, dtype=np.float64)
    B, t = spec.feature_bound, spec.teacher
    along, across = _coordinates(t, h)
    # <h, x> = ±1 on the lines at distance 1 / (B ||h||) from the centre.
    reach = 1.0 / max(B * math.hypot(along, across), 1.0)
    u1, u2, weights = _projection(spec.dim, spec.feature_law, math.atan2(across, along), reach)
    margin = B * (along * u1 + across * u2)
    teacher_margin = B * float(np.linalg.norm(t)) * u1
    mech = spec.mechanism
    if isinstance(mech, LinearNoise):
        values = (margin - teacher_margin) ** 2 + mech.noise_sd**2
    else:
        if isinstance(mech, LogisticTeacher):
            up = _sigmoid(teacher_margin)
        elif isinstance(mech, SignFlip):
            up = np.where(teacher_margin >= 0, 1.0 - mech.flip_prob, mech.flip_prob)
        else:
            raise ValueError(f"no reference for {type(mech).__name__}")
        values = up * margin_values(loss.kind, margin, np.ones_like(margin))
        values += (1.0 - up) * margin_values(loss.kind, margin, -np.ones_like(margin))
    return float(values @ weights) + loss.ridge_term * float(h @ h)


def serial_risks(loss, H, spec) -> np.ndarray:
    return np.array([serial_risk(loss, h, spec) for h in np.asarray(H, dtype=np.float64)])
