"""Scripted sniffer traces checked against exact ground-truth timing."""

import json

import pytest

from tatrack import pipeline as pl
from tatrack import timebase as tb
from tatrack.messages import (Ack, DciFormat0, MacTaCommand,
                              RandomAccessResponse, Rnti, RrcConnectionRequest,
                              ServiceRequest, Tmsi, UlGrant)
from tatrack.probe import Carrier, ConnectionTable, ProbeEvent

RNTI = Rnti(0x004A)


def _event(idx, rx, carrier, msg, rb, rnti):
    return ProbeEvent(frame=(idx // 10) % 1024, subframe=idx % 10,
                      rx_time=rx, carrier=carrier, message=msg, rb_alloc=rb,
                      rnti=rnti)


def dl(idx, rx, msg=None, rnti=None):
    return _event(idx, rx, Carrier.DOWNLINK, msg, None, rnti)


def ul(idx, rx, msg=None, rb=None, rnti=None):
    return _event(idx, rx, Carrier.UPLINK, msg, rb, rnti)


# -- t_n recovery --------------------------------------------------------------

def test_start_and_t_n_are_downlink_rx_less_the_downlink_delay():
    with pytest.raises(ValueError):
        ConnectionTable(d_dlprobe_ps=-1)
    table = ConnectionTable(d_dlprobe_ps=1_000_000)
    table.ingest(dl(10, 10 * 10**9 + 1_000_000,
                    RandomAccessResponse(RNTI, TA0, UlGrant(3, 0x10, 3))))
    assert table.by_rnti[RNTI.value].start_ps == 10 * 10**9
    [meas] = table.ingest(ul(13, _uplink_rx(13, TA0), rb=0x10))
    assert meas.t_n == 13 * 10**9


def test_t_n_chains_in_exact_milliseconds():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(3, 0x10, 3))))
    [meas] = table.ingest(ul(13, _uplink_rx(13, TA0), rb=0x10))
    assert meas.t_n == 13 * 10**9


# -- scripted connection -------------------------------------------------------

D_UE = tb.m_to_ps(500.0)  # colocated eNodeB and probe, UE at 500 m
TA0 = tb.quantize_ta(2 * D_UE)


def _uplink_rx(idx, ta):
    return tb.uplink_toa(idx * tb.PS_PER_SUBFRAME, D_UE, D_UE, ta)


def test_full_flow_emits_exact_measurement():
    table = ConnectionTable()
    rar = RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))
    table.ingest(dl(10, 10 * 10**9, rar))
    out = table.ingest(ul(14, _uplink_rx(14, TA0),
                          RrcConnectionRequest(Tmsi(0xAABBCCDD), 0),
                          rb=0x10))
    assert len(out) == 1
    meas = out[0]
    assert meas.t_n == 14 * 10**9
    assert meas.d_ta == tb.ta_span(TA0)
    assert meas.sum_delay == 2 * D_UE  # exact, quantization cancelled
    assert meas.sum_delay == meas.toa - meas.t_n + meas.d_ta

    rec = table.by_rnti[RNTI.value]
    assert rec.tmsi == Tmsi(0xAABBCCDD)
    assert rec.ta_current == TA0


def test_service_request_noted_on_record():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    assert not table.by_rnti[RNTI.value].had_service_request
    table.ingest(ul(14, _uplink_rx(14, TA0), ServiceRequest(Tmsi(0xAABBCCDD)),
                    rb=0x10))
    rec = table.by_rnti[RNTI.value]
    assert rec.had_service_request
    assert rec.tmsi == Tmsi(0xAABBCCDD)


def test_dci0_grant_then_data_burst_measured():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(ul(14, _uplink_rx(14, TA0), rb=0x10))
    table.ingest(dl(20, 20 * 10**9, DciFormat0(RNTI, 4, 0x20, 5)))
    out = table.ingest(ul(24, _uplink_rx(24, TA0), rb=0x20))
    assert len(out) == 1
    assert out[0].sum_delay == 2 * D_UE


def test_unmatched_uplink_counted_and_dropped():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    out = table.ingest(ul(14, _uplink_rx(14, TA0), rb=0x99))
    assert out == []
    assert table.dropped_uplinks == 1
    assert table.by_rnti[RNTI.value].measurements == []


def test_grants_expire_after_eight_subframes():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(dl(19, 19 * 10**9))  # activity, inside expiry window
    table.ingest(dl(20, 20 * 10**9))  # grant now 10 subframes old
    out = table.ingest(ul(21, _uplink_rx(21, TA0), rb=0x10))
    assert out == []
    assert table.dropped_uplinks == 1


def test_late_stamp_does_not_revive_expired_grant():
    # Expiry counts from the newest subframe seen: the downlink at 20
    # expires the grant issued at 10, and an uplink stamped 14 arriving
    # afterwards must not find it again.
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(dl(20, 20 * 10**9))
    out = table.ingest(ul(14, _uplink_rx(14, TA0), rb=0x10))
    assert out == []
    assert table.dropped_uplinks == 1


def test_ack_gated_resend_applied_once():
    table = ConnectionTable(ack_gating=True)
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(dl(30, 30 * 10**9, MacTaCommand(1), rnti=RNTI))
    table.ingest(dl(32, 32 * 10**9, MacTaCommand(1), rnti=RNTI))  # resend
    rec = table.by_rnti[RNTI.value]
    assert rec.ta_current == TA0  # nothing acknowledged yet
    table.ingest(ul(33, _uplink_rx(33, TA0), Ack(0), rnti=RNTI))
    assert rec.ta_current == TA0 + 1
    # The duplicate expires unacknowledged instead of double-applying,
    # so a later Ack finds nothing to apply.
    table.ingest(dl(45, 45 * 10**9))
    table.ingest(ul(46, _uplink_rx(46, TA0), Ack(0), rnti=RNTI))
    assert rec.ta_current == TA0 + 1
    assert rec.start_ps == 10 * 10**9


def test_ungated_resend_double_applies():
    table = ConnectionTable(ack_gating=False)
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(dl(30, 30 * 10**9, MacTaCommand(1), rnti=RNTI))
    table.ingest(dl(32, 32 * 10**9, MacTaCommand(1), rnti=RNTI))
    assert table.by_rnti[RNTI.value].ta_current == TA0 + 2


def test_ta_current_is_initial_plus_acked_adjustments():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    applied = []
    idx = 20
    for adjust in (2, -1, 3, -2):
        table.ingest(dl(idx, idx * 10**9, MacTaCommand(adjust), rnti=RNTI))
        table.ingest(ul(idx + 1, _uplink_rx(idx + 1, TA0), Ack(0), rnti=RNTI))
        applied.append(adjust)
        idx += 4
    assert table.by_rnti[RNTI.value].ta_current == TA0 + sum(applied)


def test_rnti_reuse_halts_old_record():
    # The RNTI comes back within the expiry window, while the first
    # record's grant on 0x10 is still pending: that grant must no longer
    # match, and the new record's grant must.
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(dl(12, 12 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x11, 3))))
    assert len(table.records) == 2
    assert table.by_rnti[RNTI.value] is table.records[1]
    assert table.ingest(ul(14, _uplink_rx(14, TA0), rb=0x10)) == []
    assert table.dropped_uplinks == 1
    out = table.ingest(ul(16, _uplink_rx(16, TA0), rb=0x11))
    assert len(out) == 1 and out[0].sum_delay == 2 * D_UE
    assert table.records[0].measurements == []
    assert table.records[1].measurements == out


def test_subframe_wraparound_keeps_timeline():
    table = ConnectionTable()
    base = 10_239
    table.ingest(dl(base, base * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    out = table.ingest(ul(base + 4, _uplink_rx(base + 4, TA0), rb=0x10))
    assert len(out) == 1
    assert out[0].t_n == (base + 4) * 10**9
    assert out[0].sum_delay == 2 * D_UE


@pytest.mark.parametrize("frame, subframe",
                         [(1024, 0), (-1, 0), (0, 10), (0, -1)])
@pytest.mark.parametrize("carrier", [Carrier.DOWNLINK, Carrier.UPLINK])
def test_out_of_range_stamp_refused_at_ingest(frame, subframe, carrier):
    # Stamps are plain records; the table checks each one as it comes in.
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9))
    for edge in ((0, 0), (1023, 9)):
        table.ingest(ProbeEvent(*edge, 10**9, carrier))
    bad = ProbeEvent(frame, subframe, 10**9, carrier)
    with pytest.raises(ValueError):
        table.ingest(bad)


def test_carriers_read_back_from_a_log_match_by_value():
    # json.loads builds a new string, equal to the simulator's but not it.
    down, up = (json.loads(json.dumps(c))
                for c in (Carrier.DOWNLINK, Carrier.UPLINK))
    assert down is not Carrier.DOWNLINK and up is not Carrier.UPLINK
    table = ConnectionTable()
    table.ingest(_event(10, 10 * 10**9, down,
                        RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3)),
                        None, None))
    [meas] = table.ingest(_event(14, _uplink_rx(14, TA0), up, None, 0x10,
                                 None))
    assert meas.sum_delay == 2 * D_UE
    assert table.dropped_uplinks == 0


@pytest.mark.parametrize("carrier", ["Downlink", "ul", "", None])
def test_unknown_carrier_refused_at_ingest(carrier):
    table = ConnectionTable()
    with pytest.raises(ValueError, match="carrier"):
        table.ingest(ProbeEvent(0, 0, 10**9, carrier))
    assert table._cursor is None and table.dropped_uplinks == 0


def test_measurement_rows_shape():
    table = ConnectionTable()
    table.ingest(dl(10, 10 * 10**9,
                    RandomAccessResponse(RNTI, TA0, UlGrant(4, 0x10, 3))))
    table.ingest(ul(14, _uplink_rx(14, TA0),
                    RrcConnectionRequest(Tmsi(0xAABBCCDD), 0), rb=0x10))
    rows = list(pl._measurement_rows(table,
                                     {0xAABBCCDD: "001010000000001"}))
    assert len(rows) == 1
    [meas] = table.records[0].measurements
    assert rows[0] == ("001010000000001", 0xAABBCCDD, RNTI.value, 1, 4,
                       meas.toa, meas.t_n, meas.d_ta, 2 * D_UE)
