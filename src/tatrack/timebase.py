"""Exact integer time arithmetic for the LTE sample clock.

Everything in this package that touches time does so in integer picoseconds.
The LTE basic time unit Ts = 1/30.72MHz is not an integer number of
picoseconds, but the timing-advance step (16*Ts) is exactly 1562500/3 ps,
so all quantities derived from it stay exact if we carry thirds around
instead of floats. The helpers below do that; callers only ever see ints.

Conventions:
  * ``Instant`` is an absolute time in ps since the simulation epoch.
  * ``Span`` is a signed duration in ps.
  * Uplink subframe n starts at exactly n * 1e9 ps.
"""

from __future__ import annotations

# Type aliases, for documentation value only. All arithmetic is plain int.
Instant = int
Span = int
TaIndex = int

#: Speed of light, m/s, exact by SI definition.
C_M_PER_S = 299_792_458

#: Picoseconds per millisecond (one subframe).
PS_PER_SUBFRAME = 1_000_000_000

#: One timing-advance step is 16*Ts = 1562500/3 ps, carried as a rational.
TA_STEP_PS_NUM = 1_562_500
TA_STEP_PS_DEN = 3

#: Largest valid timing-advance index.
TA_MAX = 1282

#: Width of one TA ring on the ground: c * 8*Ts in metres.
#: 8*Ts = 8/30720000 s, times c gives 299792458/3840000 exactly.
RING_WIDTH_M = C_M_PER_S / 3_840_000

#: Decode gate: a signal misaligned with the subframe timeline by this much
#: or more cannot be decoded.
DECODE_GATE_PS = 4_000_000


def _div_round(num: int, den: int) -> int:
    """Divide num/den rounding half away from zero. den must be positive."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


#: ta_span of every TA index, for callers whose index is in range by
#: construction.
TA_SPAN_PS = tuple(_div_round(ta * TA_STEP_PS_NUM, TA_STEP_PS_DEN)
                   for ta in range(TA_MAX + 1))


def ta_span(ta: TaIndex) -> Span:
    """Round-trip time commanded by TA index ``ta``, in ps (rounded).

    The exact value is ta * 1562500/3 ps; the return value is that rational
    rounded to the nearest integer picosecond. Callers that need exactness
    (epsilon accounting) work on exact fractions of a picosecond, as
    :func:`quantize_ta` and :func:`epsilon_of` do.
    """
    if not 0 <= ta <= TA_MAX:
        raise ValueError(f"TA index {ta} outside [0, {TA_MAX}]")
    return TA_SPAN_PS[ta]


def quantize_ta(round_trip_ps: Span) -> TaIndex:
    """TA index the eNodeB would command for a given round-trip time.

    Nearest multiple of 16*Ts, clamped to the valid index range. The
    division is carried out exactly on thirds-of-picoseconds.
    """
    ta = _div_round(round_trip_ps * TA_STEP_PS_DEN, TA_STEP_PS_NUM)
    return max(0, min(TA_MAX, ta))


def uplink_toa(tn_ps: Instant, ue_delay_ps: Span, probe_delay_ps: Span,
               ta: TaIndex) -> Instant:
    """Arrival time at the uplink probe of a subframe the UE advanced by TA.

    The UE transmits at tn - ta_span(ta) plus its one-way downlink delay,
    and the signal then needs the UE-to-probe propagation time to reach us:

        toa = tn + ue_delay + probe_delay - ta_span(ta)
    """
    return tn_ps + ue_delay_ps + probe_delay_ps - ta_span(ta)


def sum_delay(toa_ps: Instant, tn_ps: Instant, ta: TaIndex) -> Span:
    """Recover ue_delay + probe_delay from an uplink time of arrival.

    Inverts :func:`uplink_toa`; because ta_span is the same rounded value
    on both sides, the quantization error cancels and the result is exact
    in integer picoseconds.
    """
    return toa_ps - tn_ps + ta_span(ta)


def epsilon_of(one_way_ps: Span, ta: TaIndex) -> Span:
    """Quantization error of a TA command against the true one-way delay.

    epsilon = ta_span(ta)/2 - one_way, evaluated exactly on sixths of a
    picosecond and rounded at the end. For ta = quantize_ta(2*one_way)
    this is bounded by half a half-step: |epsilon| <= 1562500/12 ps,
    i.e. about 0.1302 us.
    """
    sixths = ta * TA_STEP_PS_NUM - 6 * one_way_ps
    return _div_round(sixths, 6)


def ps_to_m(span_ps: Span) -> float:
    """Distance light travels in ``span_ps`` picoseconds, in metres."""
    return span_ps * C_M_PER_S / 1e12


def m_to_ps(dist_m: float) -> Span:
    """One-way propagation delay for ``dist_m`` metres, rounded to ps."""
    return round(dist_m * 1e12 / C_M_PER_S)
