"""Position loci from timing measurements, and the solvers over them.

A timing-advance value confines the UE to a ring around the eNodeB; a
recovered ``ue_delay + probe_delay`` sum confines it to an ellipse with
the eNodeB and the uplink probe as foci. This module builds those loci,
intersects them, and runs weighted nonlinear least squares over any
mixture of them.

Ring and ellipse share the eNodeB as centre and focus, which gives their
intersection a closed form; ``intersect`` refuses any other ring, and the
solver any loci without one shared focus. With that focus at the origin
and R the UE's range, every locus is one equation linear in (x, y, R):
the spherical-intersection method of multistatic passive radar. Its
roots, one or a pair of crossings, are the solver's starts, and
Levenberg-Marquardt only polishes them, with fixed step and gradient
tolerances.

When every locus is a circle about one point (each ring centred there,
each ellipse with both foci there, as for a sniffer beside the eNodeB),
the measurements fix a range and no bearing. ``multilaterate`` recognises
this from the loci themselves, before it builds any array, and returns
the weighted least-squares range in closed form, computed in Python
floats, places it on the +x axis from that centre, gives the tangential
direction an infinite variance and sets ``PositionEstimate.range_only``.
Only the iterative solver packs the loci into numpy arrays.

All geometry is 2-D; distances are metres as floats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .timebase import RING_WIDTH_M, Span, TaIndex, ps_to_m

#: Soft 1-sigma assigned to a TA ring when it enters the least-squares
#: solver: the uniform-distribution equivalent of the ring width.
ANNULUS_SIGMA_M = RING_WIDTH_M / math.sqrt(12.0)

#: Stand-in sigma for loci declared noiseless, so weights stay finite.
_SIGMA_FLOOR_M = 1e-3

_TWO_PI = 2.0 * math.pi

#: Levenberg-Marquardt convergence: a step shorter than _XTOL relative to
#: the iterate, or a gradient whose largest component is below _GTOL.
_XTOL = 1e-9
_GTOL = 1e-9

#: Levenberg-Marquardt iteration budget for each start.
_MAX_ITER = 100


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class AnnulusLocus:
    """Ring of possible UE positions around an eNodeB."""

    center: Position
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError(
                f"bad annulus radii [{self.r_inner}, {self.r_outer}]")

    @property
    def mid_radius(self) -> float:
        return 0.5 * (self.r_inner + self.r_outer)


@dataclass(frozen=True)
class EllipseLocus:
    """Range-sum locus: d(p, focus_enb) + d(p, focus_probe) = sum_dist."""

    focus_enb: Position
    focus_probe: Position
    sum_dist: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.sum_dist < self.focus_enb.distance_to(self.focus_probe):
            raise InfeasibleSumError(
                self.focus_enb.distance_to(self.focus_probe) - self.sum_dist)


@dataclass(frozen=True)
class CandidateArc:
    """A connected piece of an ellipse lying inside an annulus.

    Parameterized by eccentric anomaly; e_start is in [0, 2pi) and
    e_end in (e_start, e_start + 2pi]. A full ellipse is (0, 2pi).
    """

    e_start: float
    e_end: float
    midpoint: Position


@dataclass(frozen=True)
class PositionEstimate:
    """A solver's fix; ``range_only`` when the loci fixed no bearing."""

    position: Position
    residual_rms: float
    covariance: Optional[np.ndarray] = None
    candidates: tuple[Position, ...] = field(default_factory=tuple)
    range_only: bool = False


class InfeasibleSumError(ValueError):
    """Measured range sum is below the focal separation.

    Carries the deficit in metres; a large deficit usually means noise or
    a wrong eNodeB/probe association rather than a borderline rounding.
    """

    def __init__(self, deficit_m: float):
        super().__init__(f"range sum {deficit_m:.3f} m below focal distance")
        self.deficit_m = deficit_m


class ConvergenceError(RuntimeError):
    """Least squares failed to converge; .best holds the last iterate."""

    def __init__(self, best: PositionEstimate, n_iter: int):
        super().__init__(f"no convergence after {n_iter} iterations")
        self.best = best
        self.n_iter = n_iter


# ---------------------------------------------------------------------------
# Locus construction


def annulus_from_ta(enb: Position, ta: TaIndex) -> AnnulusLocus:
    """Ring of ground distance consistent with a TA index.

    Mid-radius is ta * c * 8Ts (exactly ta times the ring width); the ring
    extends half a width to each side, clamped at zero for ta = 0.
    """
    mid = ta * RING_WIDTH_M
    half = 0.5 * RING_WIDTH_M
    return AnnulusLocus(enb, max(0.0, mid - half), mid + half)


def ellipse_from_sum(enb: Position, probe: Position, sum_delay_ps: Span,
                     sigma: float = 0.0) -> EllipseLocus:
    """Ellipse with the eNodeB and uplink probe as foci.

    ``sum_delay_ps`` is the recovered ue_delay + probe_delay; the locus is
    all points whose distances to the two foci add up to c times that.
    Raises InfeasibleSumError if the sum falls short of the focal distance.
    """
    return EllipseLocus(enb, probe, ps_to_m(sum_delay_ps), sigma)


# ---------------------------------------------------------------------------
# Ellipse parameterization


def _ellipse_points(e: EllipseLocus, anomalies: np.ndarray) -> np.ndarray:
    """Points on the ellipse at the given eccentric anomalies, shape (N, 2)."""
    f1 = e.focus_enb.as_array()
    f2 = e.focus_probe.as_array()
    centre = 0.5 * (f1 + f2)
    d = f2 - f1
    focal = 0.5 * float(np.hypot(*d))
    if focal > 0.0:
        u = d / (2.0 * focal)
    else:
        u = np.array([1.0, 0.0])
    v = np.array([-u[1], u[0]])
    a = 0.5 * e.sum_dist
    b = math.sqrt(max(a * a - focal * focal, 0.0))
    ca = a * np.cos(anomalies)
    sb = b * np.sin(anomalies)
    return centre[None, :] + ca[:, None] * u[None, :] + sb[:, None] * v[None, :]


def ellipse_point(e: EllipseLocus, anomaly: float) -> Position:
    """Point on the ellipse at the given eccentric anomaly."""
    x, y = _ellipse_points(e, np.array([anomaly]))[0]
    return Position(float(x), float(y))


# ---------------------------------------------------------------------------
# Intersection


def intersect(annulus: AnnulusLocus,
              ellipse: EllipseLocus) -> list[CandidateArc]:
    """Arcs of the ellipse lying inside the annulus (hard bounds).

    The ring must be centred on the ellipse's eNodeB focus (else
    ValueError). From that focus the ellipse point at eccentric anomaly E
    lies a + c cos E away, a being the semi-major axis and c half the
    focal distance, so the ring edges bound cos E. That leaves no arc, the
    full ellipse, one arc around an apsis, or two arcs mirrored across the
    foci axis.
    """
    if annulus.center != ellipse.focus_enb:
        raise ValueError("ring must be centred on the eNodeB focus")
    a = 0.5 * ellipse.sum_dist
    c = 0.5 * ellipse.focus_enb.distance_to(ellipse.focus_probe)
    if annulus.r_inner > a + c or annulus.r_outer < a - c:
        return []
    # Inside for E in [near, far] and in its mirror image [-far, -near].
    near = (0.0 if annulus.r_outer >= a + c
            else math.acos((annulus.r_outer - a) / c))
    far = (math.pi if annulus.r_inner <= a - c
           else math.acos((annulus.r_inner - a) / c))
    if near >= far:  # the ring only touches an apsis
        spans = []
    elif near == 0.0 and far == math.pi:
        spans = [(0.0, _TWO_PI)]
    elif near == 0.0:  # around E = 0, the apsis far from the eNodeB
        spans = [(_TWO_PI - far, _TWO_PI + far)]
    elif far == math.pi:  # around E = pi, the apsis near it
        spans = [(near, _TWO_PI - near)]
    else:
        spans = [(near, far), (_TWO_PI - far, _TWO_PI - near)]
    return [CandidateArc(s, e, ellipse_point(ellipse, 0.5 * (s + e)))
            for s, e in spans]


# ---------------------------------------------------------------------------
# Least squares


class _Packed(NamedTuple):
    """Loci as arrays, built once per solve.

    Row i's misfit is d(p, a_i) + e_i d(p, b_i) - (target_i - k_i s) for
    a shared offset s, and its residual that misfit times w_i. An ellipse
    has its foci as a and b, e = k = 1 and its range sum as target; a ring
    has its centre as a and b, e = 0, k = 1/2 and its mid radius as target.
    """

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    k: np.ndarray
    target: np.ndarray
    w: np.ndarray


def _rows(loci) -> list:
    """Each locus as its ``_Packed`` row (a, b, e, k, target, w).

    Raises ValueError for no loci or for loci without one shared eNodeB
    focus, and TypeError for an unknown locus.
    """
    if not loci:
        raise ValueError("need at least one locus")
    rows = []
    for locus in loci:
        if isinstance(locus, EllipseLocus):
            w = 1.0 / max(locus.sigma, _SIGMA_FLOOR_M)
            rows.append((locus.focus_enb, locus.focus_probe, 1.0, 1.0,
                         locus.sum_dist, w))
        elif isinstance(locus, AnnulusLocus):
            rows.append((locus.center, locus.center, 0.0, 0.5,
                         locus.mid_radius, 1.0 / ANNULUS_SIGMA_M))
        else:
            raise TypeError(f"unknown locus type {type(locus).__name__}")
    if any(row[0] != rows[0][0] for row in rows):
        raise ValueError("loci must share one eNodeB focus")
    return rows


def _pack(rows) -> _Packed:
    """Pack ``_rows``' output into arrays, one row each."""
    a, b, e, k, target, w = zip(*rows)
    return _Packed(np.array([[p.x, p.y] for p in a]),
                   np.array([[p.x, p.y] for p in b]), np.array(e),
                   np.array(k), np.array(target), np.array(w))


def _misfit(pk: _Packed, x: np.ndarray):
    """Unweighted misfit of every row in metres, and its (x, y) gradient.

    At (x, y, offset) the shared offset models a UE that transmits its
    random access early on purpose: every measured range sum is inflated
    by the same unknown amount, and every TA-derived mid radius by half.
    """
    offset_m = float(x[2]) if len(x) == 3 else 0.0
    da = x[:2] - pk.a
    db = x[:2] - pk.b
    d1 = np.maximum(np.hypot(da[:, 0], da[:, 1]), 1e-12)
    d2 = np.maximum(np.hypot(db[:, 0], db[:, 1]), 1e-12)
    m = d1 + pk.e * d2 - (pk.target - pk.k * offset_m)
    grad = da / d1[:, None] + pk.e[:, None] * (db / d2[:, None])
    return m, grad


def _residuals(pk: _Packed, x: np.ndarray):
    """Weighted residual vector and Jacobian at (x, y [, offset])."""
    m, grad = _misfit(pk, x)
    f = m * pk.w
    J = np.empty((len(f), len(x)))
    J[:, :2] = grad * pk.w[:, None]
    if len(x) == 3:
        J[:, 2] = pk.k * pk.w
    return f, J


def _metric_rms(pk: _Packed, x: np.ndarray) -> float:
    """Unweighted RMS misfit in metres at (x, y [, offset])."""
    m, _ = _misfit(pk, x)
    return math.sqrt(float(m @ m) / len(m))


def _levenberg_marquardt(pk: _Packed, x0: np.ndarray, max_iter: int):
    """Minimise the weighted residual sum of squares: (ok, cost, x, it)."""
    x = x0.astype(float).copy()
    f, J = _residuals(pk, x)
    cost = float(f @ f)
    lam = 1e-3
    window = deque([cost], maxlen=11)
    for it in range(1, max_iter + 1):
        g = J.T @ f
        if float(np.max(np.abs(g))) < _GTOL:
            return True, cost, x, it
        A = J.T @ J
        D = np.diag(np.maximum(np.diag(A), 1e-12))
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            f_new, J_new = _residuals(pk, x_new)
            cost_new = float(f_new @ f_new)
            if cost_new < cost:
                x, f, J, cost = x_new, f_new, J_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # Trust region collapsed: no descent direction exists at float
            # precision, which is convergence to a stationary point.
            return True, cost, x, it
        x_norm = float(np.linalg.norm(x))
        if float(np.linalg.norm(step)) < _XTOL * (x_norm + _XTOL):
            return True, cost, x, it
        window.append(cost)
    # Rank-deficient loci (e.g. concentric ones with an offset) leave a
    # curve of optima that the iterate creeps along with strictly falling
    # cost, so neither tolerance fires: a cost flat over ten iterations is
    # taken as converged. It also accepts some stops short of the optimum,
    # but without it test_one_sniffer_crowd_views_all_get_a_position fails.
    stalled = (len(window) == window.maxlen
               and window[0] - cost <= 1e-4 * (cost + 1e-30))
    return stalled, cost, x, max_iter


def _roots(pk: _Packed) -> list[np.ndarray]:
    """Closed-form start points: the spherical-intersection roots.

    With the shared eNodeB focus at the origin and R = |x| the UE range,
    ellipse i (sniffer p_i, range sum s_i) gives 2 p_i.x - 2 s_i R =
    |p_i|^2 - s_i^2, linear in (x, y, R). A ring of mid radius r is the
    same row for a sniffer at the origin with sum 2r at half the weight.
    Rows are weighted by w_i / (2 (s_i - R0)), their linearised misfit, R0
    being the ring's mid radius (0 without a ring); s_i - R0 is the
    UE-to-sniffer distance, floored at half a ring width. Ellipses that fix
    (x, y, R) give one weighted solve. Sniffers that span the plane but
    fix no more leave x = u + R v, and the roots of |u + R v|^2 = R^2 are
    the two crossings. Collinear sniffers fix the along-axis coordinate
    and R, which places a mirror pair across the axis.
    """
    centre = pk.a[0]
    p = pk.b - centre
    s = pk.target / pk.k
    rings = pk.e == 0.0
    r0 = float(np.mean(pk.target[rings])) if rings.any() else 0.0
    w = pk.w * pk.k / (2.0 * np.maximum(s - r0, 0.5 * RING_WIDTH_M))
    Z = w[:, None] * np.column_stack([2.0 * p, -2.0 * s])
    rhs = w * (np.sum(p * p, axis=1) - s * s)
    if np.linalg.matrix_rank(Z[~rings]) == 3:
        return [centre + np.linalg.lstsq(Z, rhs, rcond=None)[0][:2]]
    if np.linalg.matrix_rank(Z[:, :2]) == 2:
        u, v = np.linalg.lstsq(Z[:, :2], np.column_stack([rhs, -Z[:, 2]]),
                               rcond=None)[0].T
        # A complex pair of roots means the loci do not cross; its real
        # part is their closest approach.
        ranges = {float(r.real)
                  for r in np.roots([v @ v - 1.0, 2.0 * (u @ v), u @ u])}
        return ([centre + u + r * v for r in sorted(ranges) if r >= 0.0]
                or [centre + u])
    axis = p[np.argmax(np.hypot(p[:, 0], p[:, 1]))]
    axis = axis / float(np.hypot(*axis))
    t, r = np.linalg.lstsq(Z @ np.array([[axis[0], 0.0], [axis[1], 0.0],
                                         [0.0, 1.0]]), rhs, rcond=None)[0]
    foot = centre + t * axis
    h = math.sqrt(max(r * r - t * t, 0.0))  # 0: the ring misses the line
    normal = np.array([-axis[1], axis[0]])
    return [foot + h * normal, foot - h * normal] if h else [foot]


def _solve(pk: _Packed, starts, max_iter: int):
    """Polish every start with LM; return the best fix and its parameters.

    A start of length 2 is (x, y); one of length 3 adds the shared offset,
    which is then solved too. The runs are ranked best first: a converged
    iterate beats one that is not, and among equals the lower weighted
    cost, which LM minimises, wins. The unweighted RMS would let a ring's
    quantization misfit (sigma 22.5 m) outweigh an ellipse missed by
    metres at a millimetre sigma. ``candidates`` holds every distinct
    converged fix, best first. Raises ConvergenceError, carrying the best
    iterate, if no run converges within ``max_iter`` iterations.
    """
    runs = sorted((_levenberg_marquardt(pk, x0, max_iter) for x0 in starts),
                  key=lambda run: (not run[0], run[1]))
    ok, _, best, it = runs[0]
    fixes = [best]
    for converged, _, x, _ in runs[1:]:
        if converged and all(float(np.hypot(*(x[:2] - f[:2]))) > 1e-3
                             for f in fixes):
            fixes.append(x)
    _, J = _residuals(pk, best)
    candidates = tuple(Position(float(f[0]), float(f[1])) for f in fixes)
    est = PositionEstimate(position=candidates[0],
                           residual_rms=_metric_rms(pk, best),
                           covariance=np.linalg.pinv(J.T @ J)[:2, :2],
                           candidates=candidates)
    if not ok:
        raise ConvergenceError(est, it)
    return est, best


def _sum_as_numpy(values: list) -> float:
    """``float(np.sum(values))``, with no array below 8 terms.

    numpy adds fewer than 8 terms left to right, as the loop here does;
    from 8 terms up it adds in 8-way blocks, so those sums stay with numpy.
    """
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


def _concentric_fix(rows) -> Optional[PositionEstimate]:
    """Closed-form fix when every ring centre and focus is one point.

    Ring and ellipse residuals are then functions of the range d alone:
    (d - r) w with r the mid radius and w = 1/ANNULUS_SIGMA_M for a ring,
    r = sum/2 and w = 2/sigma for an ellipse. Their weighted least squares
    is d = sum(w^2 r)/sum(w^2). Returns None if a sniffer focus lies off
    the eNodeB focus that ``_rows`` checked is shared. Python floats repeat,
    operation for operation, what numpy would do on ``_pack``'s arrays;
    only the misfit's dot product, which numpy's kernel may fuse into
    multiply-adds, stays in numpy.
    """
    centre = rows[0][0]
    # Exact equality, as intersect() uses for a shared centre.
    if any(b != centre for _, b, *_ in rows):
        return None
    w2s, weighted = [], []
    for _, _, e, _, target, w in rows:
        foci = 1.0 + e  # foci on the centre: two per ellipse, one per ring
        fw = foci * w
        w2 = fw * fw
        w2s.append(w2)
        weighted.append(w2 * target / foci)
    sum_w2 = _sum_as_numpy(w2s)
    cx, cy = float(centre.x), float(centre.y)
    position = Position(cx + _sum_as_numpy(weighted) / sum_w2, cy + 0.0)
    # Every row's distance to the fix: hypot(x - cx, 0), floored as in
    # _misfit; the offset term is zero.
    d = max(abs(position.x - cx), 1e-12)
    m = np.array([d + e * d - target for _, _, e, _, target, _ in rows])
    return PositionEstimate(
        position=position,
        residual_rms=math.sqrt(float(m @ m) / len(rows)),
        covariance=np.array([[1.0 / sum_w2, 0.0], [0.0, np.inf]]),
        candidates=(position,),
        range_only=True,
    )


def multilaterate(loci) -> PositionEstimate:
    """Weighted nonlinear least squares over a mixture of loci.

    Ellipses contribute (d1 + d2 - sum)/sigma, rings contribute their
    mid-radius as a soft range with the uniform-equivalent sigma. Every
    locus must share one eNodeB focus (else ValueError). The
    spherical-intersection roots (``_roots``) are the starts, and
    Levenberg-Marquardt only polishes each of them; a run stops on the
    fixed tolerances ``_XTOL`` and ``_GTOL`` or after ``_MAX_ITER``
    iterations. The best converged fix, by weighted cost, is the position;
    ``candidates`` holds every distinct converged fix, best first, so the
    classic two-fold ambiguity of two sniffers, or of one sniffer and the
    ring, reports both crossings.

    Concentric loci (every ring centre and ellipse focus at one point)
    fix a range but no bearing. They take a direct path with no iteration:
    the weighted least-squares range, placed on the +x axis from the
    centre, with covariance [[1/sum(w^2), 0], [0, inf]] (radial variance,
    unknown tangential direction) and ``range_only`` set.

    Other degenerate configurations (all foci collinear with the UE) are
    not rejected; they surface as a huge condition number in
    ``covariance``. Raises ConvergenceError (carrying the best iterate)
    if no run converges within the iteration budget.
    """
    rows = _rows(loci)
    direct = _concentric_fix(rows)
    if direct is not None:
        return direct
    pk = _pack(rows)
    return _solve(pk, _roots(pk), _MAX_ITER)[0]


def multilaterate_with_offset(loci):
    """Joint solve for position plus a shared transmit-offset range bias.

    Needs at least three loci to be determined. Starts from the same roots
    as ``multilaterate``, each with a zero offset. Returns the estimate and
    the recovered offset in metres of range sum (c times the time offset);
    divide by c for the time value.
    """
    if len(loci) < 3:
        raise ValueError("offset recovery needs at least 3 loci")
    pk = _pack(_rows(loci))
    est, x = _solve(pk, [np.append(xy, 0.0) for xy in _roots(pk)], _MAX_ITER)
    return est, float(x[2])
