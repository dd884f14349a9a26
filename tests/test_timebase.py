"""Frozen values and algebraic laws for the picosecond timebase."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from tatrack import timebase as tb

# One-way delay for 5 km, the operating range we care about.
FIVE_KM_PS = tb.m_to_ps(5000.0)


def test_ta_step_constants():
    # 16 * Ts in ps, as a rational.
    assert tb.TA_STEP_PS_NUM / tb.TA_STEP_PS_DEN == 520833.3333333333
    assert tb.TA_STEP_PS_NUM % tb.TA_STEP_PS_DEN != 0  # genuinely non-integer


def test_ring_width_value():
    # c * 8 * Ts: one TA ring of ground distance.
    assert math.isclose(tb.RING_WIDTH_M, 78.0709525, abs_tol=1e-6)


def test_ta_span_frozen_values():
    assert tb.ta_span(0) == 0
    assert tb.ta_span(1) == 520_833
    assert tb.ta_span(6) == 3_125_000          # divisible by 3: exact
    assert tb.ta_span(1282) == 667_708_333


def test_ta_span_rejects_out_of_range():
    for bad in (-1, 1283):
        try:
            tb.ta_span(bad)
        except ValueError:
            continue
        raise AssertionError(f"ta_span({bad}) did not raise")


def test_ta_span_table_holds_every_index_rounded():
    assert len(tb.TA_SPAN_PS) == tb.TA_MAX + 1
    for ta, span in enumerate(tb.TA_SPAN_PS):
        # Round half up: every exact value is positive.
        exact = Fraction(ta * tb.TA_STEP_PS_NUM, tb.TA_STEP_PS_DEN)
        assert span == tb.ta_span(ta) == math.floor(exact + Fraction(1, 2))


def test_quantize_ta_500m_example():
    one_way = tb.m_to_ps(500.0)
    assert one_way == 1_667_820
    assert tb.quantize_ta(2 * one_way) == 6


def test_quantize_ta_clamps():
    assert tb.quantize_ta(-5_000_000) == 0
    assert tb.quantize_ta(10**12) == tb.TA_MAX


def test_uplink_toa_frozen_example():
    tn = 5 * tb.PS_PER_SUBFRAME
    d = tb.m_to_ps(500.0)
    toa = tb.uplink_toa(tn, d, d, 6)
    assert toa == 5_000_000_000 + 210_640


def test_sum_delay_inverts_exactly():
    tn = 5 * tb.PS_PER_SUBFRAME
    d = tb.m_to_ps(500.0)
    toa = tb.uplink_toa(tn, d, d, 6)
    assert tb.sum_delay(toa, tn, 6) == 2 * d


def test_epsilon_frozen_values():
    assert tb.epsilon_of(1_667_800, 6) == -105_300
    # The worst case sits at the quantization boundary of the round trip.
    assert tb.quantize_ta(2 * 130_208) == 0
    assert tb.epsilon_of(130_208, 0) == -130_208
    assert tb.quantize_ta(2 * 130_209) == 1
    assert tb.epsilon_of(130_209, 1) == 130_208


@given(st.integers(min_value=0, max_value=FIVE_KM_PS))
def test_epsilon_bound_in_range(one_way):
    ta = tb.quantize_ta(2 * one_way)
    eps = tb.epsilon_of(one_way, ta)
    assert abs(eps) <= 130_209


@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=FIVE_KM_PS),
    st.integers(min_value=0, max_value=FIVE_KM_PS),
    st.integers(min_value=0, max_value=tb.TA_MAX),
)
def test_sum_delay_cancellation_is_exact(n, d_ue, d_probe, ta):
    # Whatever TA is in force, recovering the delay sum from the observed
    # arrival time is exact: the rounded ta_span cancels itself.
    tn = n * tb.PS_PER_SUBFRAME
    toa = tb.uplink_toa(tn, d_ue, d_probe, ta)
    assert tb.sum_delay(toa, tn, ta) == d_ue + d_probe


@given(st.integers(min_value=0, max_value=tb.TA_MAX))
def test_ta_span_close_to_rational(ta):
    exact = ta * tb.TA_STEP_PS_NUM / tb.TA_STEP_PS_DEN
    assert abs(tb.ta_span(ta) - exact) <= 0.5


def test_ps_m_round_trip():
    for metres in (0.0, 1.0, 78.0709525, 500.0, 4999.99):
        ps = tb.m_to_ps(metres)
        assert abs(tb.ps_to_m(ps) - metres) < 2e-4  # one ps is ~0.3 mm
