"""Brute-force grid oracle for ring/ellipse intersection, test-only.

Independent of the production intersect(): rasterize the plane at 1 m,
mark cells satisfying both constraints, and compare against the returned
arcs with a KD-tree. Configurations where an ellipse apsis falls within
a few metres of a ring edge are rejected by the generator; the discrete
oracle is ill-posed at tangency (a 1 m cell cannot decide which side of
the edge a grazing curve is on).
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from tatrack import timebase as tb
from tatrack.geometry import (AnnulusLocus, EllipseLocus, Position,
                              _ellipse_points, annulus_from_ta)

#: Cells count as on-the-ellipse when their first-order plane distance to
#: the curve (range-sum misfit over the local range-sum gradient) is below
#: this. Thresholding the raw misfit instead would widen the band to
#: several metres near the inter-focal axis, where the gradient collapses.
MISFIT_TOL_M = 0.75

#: Minimum separation between ellipse apsides and ring edges for a
#: configuration to be considered transversal.
TANGENCY_MARGIN_M = 10.0

#: Minimum |d rho / d s| where the ellipse crosses a ring edge. Radial
#: margin alone is not enough: an ellipse can clear the apsis check yet
#: still graze an edge, running almost parallel to it for metres, and a
#: 1 m grid cannot localize such a crossing.
MIN_CROSSING_SLOPE = 0.45


def random_config(rng: np.random.Generator):
    """One consistent (annulus, ellipse) pair around a hidden UE."""
    while True:
        enb = Position(rng.uniform(-50, 50), rng.uniform(-50, 50))
        ang = rng.uniform(0, 2 * math.pi)
        probe_dist = rng.uniform(200, 800)
        probe = Position(enb.x + probe_dist * math.cos(ang),
                         enb.y + probe_dist * math.sin(ang))
        ue_ang = rng.uniform(0, 2 * math.pi)
        ue_dist = rng.uniform(100, 600)
        ue = Position(enb.x + ue_dist * math.cos(ue_ang),
                      enb.y + ue_dist * math.sin(ue_ang))

        ta = tb.quantize_ta(2 * tb.m_to_ps(ue_dist))
        if ta < 1:
            continue
        annulus = annulus_from_ta(enb, ta)
        sum_dist = ue_dist + ue.distance_to(probe) + rng.uniform(-20, 20)
        focal = enb.distance_to(probe)
        if sum_dist < focal + 5.0:
            continue
        ellipse = EllipseLocus(enb, probe, sum_dist)

        a = 0.5 * sum_dist
        c_lin = 0.5 * focal
        apsides = (a - c_lin, a + c_lin)  # extremal distances from a focus
        edges = (annulus.r_inner, annulus.r_outer)
        if min(abs(r - e) for r in apsides for e in edges) < TANGENCY_MARGIN_M:
            continue
        if any(_crossing_slope(a, c_lin, rho) < MIN_CROSSING_SLOPE
               for rho in edges if abs(a - rho) < c_lin):
            continue
        return annulus, ellipse


def _crossing_slope(a: float, c_lin: float, rho: float) -> float:
    """|d rho / d s| where an ellipse crosses radius rho from its focus.

    With the focus at distance c_lin from the centre, rho over eccentric
    anomaly E is a - c_lin cos E and arc length grows as
    sqrt(a^2 sin^2 E + b^2 cos^2 E).
    """
    cos_e = (a - rho) / c_lin
    sin_e = math.sqrt(max(1.0 - cos_e * cos_e, 0.0))
    b_sq = max(a * a - c_lin * c_lin, 0.0)
    ds = math.sqrt(a * a * sin_e ** 2 + b_sq * cos_e ** 2)
    return c_lin * sin_e / ds if ds > 0.0 else 0.0


def grid_feasible(annulus: AnnulusLocus, ellipse: EllipseLocus,
                  pitch: float = 1.0) -> np.ndarray:
    """Centers of grid cells satisfying both constraints, shape (N, 2)."""
    cx, cy = annulus.center.x, annulus.center.y
    r = annulus.r_outer + pitch
    xs = np.arange(cx - r, cx + r + pitch, pitch)
    ys = np.arange(cy - r, cy + r + pitch, pitch)
    fa, fb = ellipse.focus_enb, ellipse.focus_probe
    # Cheap arithmetic first drops cells that are clearly outside, with a
    # 1 cm margin on each test (the range-sum gradient is at most 2, which
    # bounds the on-curve band); the exact tests then run on the rest.
    # np.nonzero walks the grid in row-major order, so the cells come back
    # in the order a full-grid mask gives them.
    sq = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
    rows, cols = np.nonzero((sq >= max(annulus.r_inner - 0.01, 0.0) ** 2)
                            & (sq <= (annulus.r_outer + 0.01) ** 2))
    gx, gy = xs[cols], ys[rows]
    near = (np.abs(np.sqrt((gx - fa.x) ** 2 + (gy - fa.y) ** 2)
                   + np.sqrt((gx - fb.x) ** 2 + (gy - fb.y) ** 2)
                   - ellipse.sum_dist) <= 2 * MISFIT_TOL_M + 0.01)
    gx, gy = gx[near], gy[near]

    dc = np.hypot(gx - cx, gy - cy)
    ring = (dc >= annulus.r_inner) & (dc <= annulus.r_outer)
    d1 = np.hypot(gx - fa.x, gy - fa.y)
    d2 = np.hypot(gx - fb.x, gy - fb.y)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.hypot((gx - fa.x) / d1 + (gx - fb.x) / d2,
                        (gy - fa.y) / d1 + (gy - fb.y) / d2)
        on_curve = (np.abs(d1 + d2 - ellipse.sum_dist)
                    <= MISFIT_TOL_M * grad)
    on_curve &= (d1 > 0) & (d2 > 0)
    mask = ring & on_curve
    return np.column_stack([gx[mask], gy[mask]])


def sample_arcs(arcs, ellipse: EllipseLocus,
                spacing_m: float = 0.5) -> np.ndarray:
    """Dense points along the returned arcs, shape (N, 2)."""
    if not arcs:
        return np.empty((0, 2))
    a = 0.5 * ellipse.sum_dist
    anomalies = np.concatenate([
        np.linspace(arc.e_start, arc.e_end,
                    max(8, int((arc.e_end - arc.e_start) * a / spacing_m)))
        for arc in arcs])
    return _ellipse_points(ellipse, anomalies)


def agreement_gaps(annulus, ellipse, arcs):
    """(worst feasible-cell-to-arc distance, worst midpoint infeasibility).

    The first is inf if feasible cells exist but no arcs came back; both
    are 0.0 when the respective side is empty.
    """
    cells = grid_feasible(annulus, ellipse)
    if len(cells) == 0:
        cell_gap = 0.0
    elif len(arcs) == 0:
        cell_gap = math.inf
    else:
        tree = cKDTree(sample_arcs(arcs, ellipse))
        cell_gap = float(tree.query(cells)[0].max())

    mid_gap = 0.0
    for arc in arcs:
        p = arc.midpoint
        dc = annulus.center.distance_to(p)
        ring_violation = max(annulus.r_inner - dc, dc - annulus.r_outer, 0.0)
        mid_gap = max(mid_gap, ring_violation, abs(ellipse.sum_misfit(p)))
    return cell_gap, mid_gap
