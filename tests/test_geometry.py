"""Loci construction, intersection and the least-squares solver."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tatrack import timebase as tb
from tatrack.geometry import (ANNULUS_SIGMA_M, AnnulusLocus, ConvergenceError,
                              EllipseLocus, InfeasibleSumError, Position,
                              _MAX_ITER, _misfit, _pack, _residuals, _rows,
                              _solve, annulus_from_ta, ellipse_from_sum,
                              ellipse_point, intersect, multilaterate,
                              multilaterate_with_offset)

from _oracle import agreement_gaps, random_config, sum_misfit

O = Position(0.0, 0.0)


def _solve_from(loci, *start, max_iter=_MAX_ITER):
    """The solver run from one start, (x, y) or (x, y, offset)."""
    return _solve(_pack(_rows(loci)), [np.array(start)], max_iter)


# -- annuli -----------------------------------------------------------------

def test_annulus_ta0_clamps_inner():
    ring = annulus_from_ta(O, 0)
    assert ring.r_inner == 0.0
    assert math.isclose(ring.r_outer, 39.0354762, abs_tol=1e-4)


def test_annulus_ta1():
    ring = annulus_from_ta(O, 1)
    assert math.isclose(ring.mid_radius, 78.0709525, abs_tol=1e-4)
    assert math.isclose(ring.r_inner, 39.0354762, abs_tol=1e-4)
    assert math.isclose(ring.r_outer, 117.1064287, abs_tol=1e-4)


def test_annulus_ta6_mid_radius():
    assert math.isclose(annulus_from_ta(O, 6).mid_radius, 468.425715,
                        abs_tol=1e-4)


def test_annulus_width_constant():
    for ta in range(1, tb.TA_MAX + 1, 13):
        ring = annulus_from_ta(O, ta)
        assert abs((ring.r_outer - ring.r_inner) - 78.0709) < 1e-4


# -- ellipses ---------------------------------------------------------------

def test_ellipse_pythagoras_example():
    probe = Position(1000.0, 0.0)
    ue = Position(500.0, 400.0)
    sum_d = 2 * math.hypot(500, 400)
    locus = ellipse_from_sum(O, probe, tb.m_to_ps(sum_d))
    assert math.isclose(locus.sum_dist, 1280.6248, abs_tol=1e-3)
    assert abs(sum_misfit(locus, ue)) < 1e-3


def test_ellipse_points_satisfy_sum():
    rng = np.random.default_rng(7)
    for _ in range(50):
        probe = Position(rng.uniform(-500, 500), rng.uniform(-500, 500))
        focal = O.distance_to(probe)
        locus = EllipseLocus(O, probe, focal + rng.uniform(10, 900))
        for anomaly in rng.uniform(0, 2 * math.pi, size=8):
            p = ellipse_point(locus, anomaly)
            assert abs(sum_misfit(locus, p)) < 1e-6


def test_ellipse_infeasible_sum_carries_deficit():
    with pytest.raises(InfeasibleSumError) as exc:
        EllipseLocus(O, Position(1000.0, 0.0), 900.0)
    assert math.isclose(exc.value.deficit_m, 100.0, abs_tol=1e-9)


# -- intersection -----------------------------------------------------------

def test_intersect_containment_gives_full_ellipse():
    cases = [(AnnulusLocus(O, 0.0, 500.0),
              EllipseLocus(O, Position(50.0, 0.0), 120.0)),
             # colocated probe: a circle of radius 150 m inside the ring
             (AnnulusLocus(O, 117.1, 195.2), EllipseLocus(O, O, 300.0))]
    for ring, locus in cases:
        arcs = intersect(ring, locus)
        assert len(arcs) == 1
        assert math.isclose(arcs[0].e_end - arcs[0].e_start, 2 * math.pi)
        assert arcs[0].midpoint == ellipse_point(locus, math.pi)


def test_intersect_separated_setup_two_arcs():
    # eNodeB and probe well apart, UE between them: the ring cuts the
    # ellipse into two mirror arcs, one per side of the baseline.
    probe = Position(1000.0, 0.0)
    ue = Position(480.0, 350.0)
    d_ue = O.distance_to(ue)
    ring = annulus_from_ta(O, tb.quantize_ta(2 * tb.m_to_ps(d_ue)))
    locus = EllipseLocus(O, probe, d_ue + ue.distance_to(probe))
    arcs = intersect(ring, locus)
    assert len(arcs) == 2
    ys = sorted(arc.midpoint.y for arc in arcs)
    assert ys[0] < 0 < ys[1]
    assert abs(ys[0] + ys[1]) < 1.0  # mirror pair across the baseline


def test_intersect_disjoint_is_empty():
    locus = EllipseLocus(O, Position(100.0, 0.0), 300.0)  # 100-200 m from O
    assert intersect(AnnulusLocus(O, 39.0, 87.1), locus) == []
    assert intersect(AnnulusLocus(O, 210.0, 288.1), locus) == []
    colocated = EllipseLocus(O, O, 300.0)  # circle of radius 150 m
    assert intersect(AnnulusLocus(O, 39.0, 117.1), colocated) == []


def test_intersect_refuses_off_focus_ring():
    locus = EllipseLocus(O, Position(100.0, 0.0), 300.0)
    with pytest.raises(ValueError):
        intersect(AnnulusLocus(Position(5000.0, 5000.0), 39.0, 117.1), locus)
    with pytest.raises(ValueError):
        intersect(AnnulusLocus(Position(100.0, 0.0), 39.0, 117.1), locus)


def test_intersect_single_arc_around_near_apsis():
    # a = 300, c = 100: the ellipse runs 200-400 m from the eNodeB, nearest
    # at E = pi. A ring over 150-300 m keeps cos E <= 0.
    locus = EllipseLocus(O, Position(200.0, 0.0), 600.0)
    arcs = intersect(AnnulusLocus(O, 150.0, 300.0), locus)
    assert len(arcs) == 1
    assert math.isclose(arcs[0].e_start, 0.5 * math.pi)
    assert math.isclose(arcs[0].e_end, 1.5 * math.pi)
    assert arcs[0].midpoint.distance_to(Position(-200.0, 0.0)) < 1e-9


def test_intersect_single_arc_around_far_apsis_wraps():
    # The same ellipse, farthest at E = 0; a ring over 300-450 m keeps
    # cos E >= 0, one arc that crosses E = 0.
    locus = EllipseLocus(O, Position(200.0, 0.0), 600.0)
    arcs = intersect(AnnulusLocus(O, 300.0, 450.0), locus)
    assert len(arcs) == 1
    assert math.isclose(arcs[0].e_start, 1.5 * math.pi)
    assert math.isclose(arcs[0].e_end, 2.5 * math.pi)
    assert arcs[0].midpoint.distance_to(Position(400.0, 0.0)) < 1e-9


def test_intersect_endpoints_lie_on_ring_edges():
    rng = np.random.default_rng(11)
    for _ in range(300):
        ring, locus = random_config(rng)
        arcs = intersect(ring, locus)
        assert [arc.e_start for arc in arcs] == sorted(
            arc.e_start for arc in arcs)
        for arc in arcs:
            assert 0.0 <= arc.e_start < 2 * math.pi
            assert arc.e_start < arc.e_end <= arc.e_start + 2 * math.pi
            if arc.e_end - arc.e_start == 2 * math.pi:
                continue
            for anomaly in (arc.e_start, arc.e_end):
                d = ring.center.distance_to(ellipse_point(locus, anomaly))
                assert min(abs(d - ring.r_inner),
                           abs(d - ring.r_outer)) < 1e-9


def test_intersect_matches_grid_oracle():
    rng = np.random.default_rng(20260815)
    for _ in range(40):
        ring, locus = random_config(rng)
        cell_gap, mid_gap = agreement_gaps(ring, locus,
                                           intersect(ring, locus))
        assert cell_gap <= 2.0
        assert mid_gap <= 2.0


# -- least squares ----------------------------------------------------------

def test_two_ellipses_noiseless_recover_position():
    probes = [Position(800.0, 100.0), Position(-300.0, 900.0)]
    ue = Position(250.0, 420.0)
    loci = [EllipseLocus(O, p, O.distance_to(ue) + p.distance_to(ue))
            for p in probes]
    # Two confocal ellipses cross twice; start in the true basin.
    est, _ = _solve_from(loci, 300.0, 380.0)
    assert est.position.distance_to(ue) < 1e-3
    assert est.residual_rms < 1e-6


def test_single_probe_gives_two_candidates():
    probe = Position(1000.0, 0.0)
    ue = Position(480.0, 350.0)
    d_ue = O.distance_to(ue)
    loci = [
        EllipseLocus(O, probe, d_ue + ue.distance_to(probe)),
        annulus_from_ta(O, tb.quantize_ta(2 * tb.m_to_ps(d_ue))),
    ]
    est = multilaterate(loci)
    assert len(est.candidates) == 2
    a, b = est.candidates
    # Mirror images across the foci baseline (the x axis here).
    assert math.isclose(a.x, b.x, abs_tol=0.5)
    assert math.isclose(a.y, -b.y, abs_tol=0.5)
    assert abs(sum_misfit(loci[0], a)) < 1e-3
    assert abs(sum_misfit(loci[0], b)) < 1e-3


def _at(r_m, angle):
    return Position(r_m * math.cos(angle), r_m * math.sin(angle))


def _sniffer_geometry(rng, n_sniffers):
    """Sniffers at 80-300 m, a UE at 50-500 m; exact sums, quantized ring."""
    probes = [_at(rng.uniform(80, 300), rng.uniform(0, 2 * math.pi))
              for _ in range(n_sniffers)]
    d_ue = rng.uniform(50, 500)
    ue = _at(d_ue, rng.uniform(0, 2 * math.pi))
    loci = [EllipseLocus(O, p, d_ue + ue.distance_to(p)) for p in probes]
    loci.append(annulus_from_ta(O, tb.quantize_ta(2 * tb.m_to_ps(d_ue))))
    return loci, ue


def test_seedless_three_sniffer_solves_land_on_the_truth():
    # No initial: the solver starts only from its closed-form roots. Exact
    # sums and the quantized TA ring, as the pipeline builds them. The
    # ring misses the truth by up to half its width, so ranking fixes by
    # unweighted RMS instead of weighted cost picks wrong ones here.
    rng = np.random.default_rng(808)
    for _ in range(200):
        loci, ue = _sniffer_geometry(rng, 3)
        est = multilaterate(loci)
        assert est.position.distance_to(ue) < 1e-3, (loci, ue)


@pytest.mark.parametrize("seed, index", [(2, 135), (5, 155)])
def test_three_sniffers_with_apsis_arcs_land_on_the_truth(seed, index):
    # Each ellipse meets the ring in one long arc around an apsis, so every
    # arc midpoint lies on a foci axis, far from the crossing: LM started
    # from those midpoints settles 202 m and 166 m off the truth.
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        loci, ue = _sniffer_geometry(rng, 3)
    assert multilaterate(loci).position.distance_to(ue) < 1e-3


def test_two_sniffers_keep_the_truth_among_candidates():
    # Two ellipses cross twice; both crossings are roots of the start
    # quadratic, so the true one is a candidate even when the quantized
    # ring ranks the other first.
    found = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            loci, ue = _sniffer_geometry(rng, 2)
            est = multilaterate(loci)
            found += min(c.distance_to(ue) for c in est.candidates) < 1e-3
    assert found >= 990


def test_loci_without_a_shared_focus_are_refused():
    loci = [EllipseLocus(O, Position(300.0, 0.0), 500.0),
            EllipseLocus(Position(0.0, 1.0), Position(0.0, 300.0), 500.0)]
    with pytest.raises(ValueError, match="focus"):
        multilaterate(loci)
    loci.append(EllipseLocus(O, Position(-300.0, 0.0), 500.0))
    with pytest.raises(ValueError, match="focus"):
        multilaterate_with_offset(loci)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(99)
    probe = Position(700.0, -200.0)
    loci = [
        EllipseLocus(O, probe, 1400.0, sigma=2.0),
        annulus_from_ta(O, 5),
    ]
    pk = _pack(_rows(loci))
    for _ in range(25):
        xy = rng.uniform(-800, 800, size=2)
        _, J = _residuals(pk, xy)
        h = 1e-4
        for k in range(2):
            dxy = np.zeros(2)
            dxy[k] = h
            f_hi, _ = _residuals(pk, xy + dxy)
            f_lo, _ = _residuals(pk, xy - dxy)
            numeric = (f_hi - f_lo) / (2 * h)
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(J[:, k] - numeric) / denom) < 1e-6


def test_covariance_predicts_monte_carlo_spread():
    probes = [Position(900.0, 50.0), Position(-200.0, 850.0),
              Position(400.0, -700.0)]
    ue = Position(300.0, 200.0)
    sums = [O.distance_to(ue) + p.distance_to(ue) for p in probes]
    rng = np.random.default_rng(4242)
    errors = []
    cov_pred = None
    for _ in range(300):
        loci = [EllipseLocus(O, p, s + rng.normal(0, 2.0), sigma=2.0)
                for p, s in zip(probes, sums)]
        est, _ = _solve_from(loci, ue.x + 30, ue.y - 30)
        errors.append(est.position.distance_to(ue) ** 2)
        cov_pred = est.covariance
    rms = math.sqrt(np.mean(errors))
    predicted = math.sqrt(np.trace(cov_pred))
    assert abs(rms - predicted) / predicted < 0.25


def test_collinear_geometry_flags_condition_number():
    # UE at (1200, 0): every focus and the solution share the x axis.
    loci = [
        EllipseLocus(O, Position(1000.0, 0.0), 1400.0),
        EllipseLocus(O, Position(500.0, 0.0), 1900.0),
    ]
    est, _ = _solve_from(loci, 1200.5, 0.3)
    assert np.linalg.cond(est.covariance) > 1e6


def test_convergence_error_carries_best_iterate():
    probe = Position(800.0, 100.0)
    loci = [EllipseLocus(O, probe, 1500.0)]
    with pytest.raises(ConvergenceError) as exc:
        _solve_from(loci, 5.0, 5.0, max_iter=1)
    assert isinstance(exc.value.best.position, Position)


def test_offset_recovery_with_three_probes():
    probes = [Position(700.0, 80.0), Position(-150.0, 820.0),
              Position(350.0, -650.0)]
    ue = Position(280.0, 190.0)
    s_true = 150.0  # metres of range-sum inflation from the tx offset
    loci = [EllipseLocus(O, p, O.distance_to(ue) + p.distance_to(ue) + s_true)
            for p in probes]
    est, s_hat = multilaterate_with_offset(loci)
    assert est.position.distance_to(ue) < 0.1
    assert abs(s_hat - s_true) < 0.1


# -- concentric loci: the direct range path -------------------------------

C = Position(10.0, -5.0)


def test_concentric_loci_give_range_on_x_axis():
    ellipse = EllipseLocus(C, C, 2 * 37.0, sigma=2.0)
    ring = AnnulusLocus(C, 0.0, 2 * 37.0)
    est = multilaterate([ellipse, ring])
    assert est.range_only
    assert est.position == Position(C.x + 37.0, C.y)
    assert est.candidates == (est.position,)
    assert est.residual_rms == pytest.approx(0.0, abs=1e-12)
    w2 = (2 / 2.0) ** 2 + (1 / ANNULUS_SIGMA_M) ** 2
    assert est.covariance[0, 0] == pytest.approx(1 / w2, rel=1e-12)
    assert est.covariance[0, 1] == 0.0 and est.covariance[1, 0] == 0.0
    assert est.covariance[1, 1] == math.inf


def test_concentric_range_weights_ellipse_and_ring():
    # Ellipse range 40 m at sigma 1 (weight 2), ring range 37 m.
    loci = [EllipseLocus(C, C, 80.0, sigma=1.0), AnnulusLocus(C, 0.0, 74.0)]
    w_ring2 = (1 / ANNULUS_SIGMA_M) ** 2
    rho = (4.0 * 40.0 + w_ring2 * 37.0) / (4.0 + w_ring2)
    est = multilaterate(loci)
    assert est.range_only
    assert est.position.x - C.x == pytest.approx(rho, rel=1e-12)
    assert est.position.y == C.y


def test_ring_only_takes_the_direct_path():
    # Every ellipse infeasible: a colocated sum below zero is dropped,
    # leaving the ring alone.
    with pytest.raises(InfeasibleSumError):
        ellipse_from_sum(C, C, -1000)
    ring = annulus_from_ta(C, 3)
    est = multilaterate([ring])
    assert est.range_only
    assert est.position == Position(C.x + ring.mid_radius, C.y)
    assert est.covariance[0, 0] == pytest.approx(ANNULUS_SIGMA_M ** 2)
    assert est.covariance[1, 1] == math.inf


def test_off_site_probe_among_colocated_loci_uses_lm():
    probe = Position(1000.0, 0.0)
    ue = Position(480.0, 350.0)
    d_ue = O.distance_to(ue)
    loci = [
        EllipseLocus(O, O, 2 * d_ue),
        EllipseLocus(O, probe, d_ue + ue.distance_to(probe)),
        annulus_from_ta(O, tb.quantize_ta(2 * tb.m_to_ps(d_ue))),
    ]
    est = multilaterate(loci)
    assert not est.range_only
    assert np.all(np.isfinite(est.covariance))
    assert len(est.candidates) == 2
    assert min(c.distance_to(ue) for c in est.candidates) < 1e-3
    a, b = est.candidates
    assert math.isclose(a.y, -b.y, abs_tol=1e-3)


def _array_concentric_fix(loci):
    """The concentric closed form evaluated on ``_pack``'s arrays.

    Position, residual RMS and covariance as numpy computes them: the
    oracle that the float path of ``multilaterate`` must match bit for bit.
    """
    pk = _pack(_rows(loci))
    foci = 1.0 + pk.e
    w2 = (foci * pk.w) ** 2
    rho = float(np.sum(w2 * pk.target / foci) / np.sum(w2))
    xy = pk.a[0] + np.array([rho, 0.0])
    m, _ = _misfit(pk, xy)
    return (Position(float(xy[0]), float(xy[1])),
            math.sqrt(float(m @ m) / len(m)),
            np.array([[1.0 / float(np.sum(w2)), 0.0], [0.0, np.inf]]))


_coordinates = st.floats(-5000.0, 5000.0)
#: Zero and sub-floor sigmas take the _SIGMA_FLOOR_M stand-in.
_sigmas = st.one_of(st.just(0.0), st.floats(0.0, 2e-3), st.floats(0.0, 50.0))


@st.composite
def _concentric_loci(draw):
    """A TA ring alone, or with 1-11 ellipses, all about one random point."""
    centre = Position(draw(_coordinates), draw(_coordinates))
    loci = [EllipseLocus(centre, centre, draw(st.floats(0.5, 20000.0)),
                         sigma=draw(_sigmas))
            for _ in range(draw(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 11])))]
    loci.append(annulus_from_ta(centre, draw(st.integers(0, 300))))
    return draw(st.permutations(loci))


@given(_concentric_loci())
def test_concentric_fix_matches_the_array_formula_bit_for_bit(loci):
    est = multilaterate(loci)
    position, rms, covariance = _array_concentric_fix(loci)
    assert est.range_only
    assert est.position == position
    assert est.residual_rms == rms
    assert np.array_equal(est.covariance, covariance)


@given(_concentric_loci(), st.data())
def test_a_probe_a_nanometre_off_centre_takes_the_lm_path(loci, data):
    ellipses = [i for i, locus in enumerate(loci)
                if isinstance(locus, EllipseLocus)]
    if not ellipses:
        return
    i = data.draw(st.sampled_from(ellipses))
    centre = loci[i].focus_enb
    loci = list(loci)
    loci[i] = EllipseLocus(centre, Position(centre.x + 1e-9, centre.y),
                           loci[i].sum_dist, loci[i].sigma)
    try:
        est = multilaterate(loci)
    except ConvergenceError as exc:
        est = exc.best
    assert not est.range_only


def test_annulus_sigma_is_uniform_equivalent():
    assert math.isclose(ANNULUS_SIGMA_M, 78.0709525 / math.sqrt(12),
                        abs_tol=1e-4)
