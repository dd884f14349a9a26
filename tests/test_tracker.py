"""Linkage-database behavior on scripted connection streams."""

import pytest

from tatrack.geometry import (AnnulusLocus, EllipseLocus, Position,
                              PositionEstimate, multilaterate)
from tatrack.timebase import RING_WIDTH_M
from tatrack.tracker import (ConnectionStats, ConnectionSummary,
                             IntegrityError, TracePoint, TrackDb,
                             connection_stats, corrected_loci,
                             provisional_id, stats_csv_rows, trace_csv_rows)

SEC = 10**12
IMSI = "001010000000017"


def _point(t_ps, x, y, loci=(), corrected=False):
    est = PositionEstimate(position=Position(x, y), residual_rms=0.0)
    return TracePoint(t_ps=t_ps, estimate=est, loci=loci,
                      corrected=corrected)


def _conn(conn_id, start, end, cell=0, rnti=0x4A, tmsi=None,
          is_random=False, service=False, imsi=None, points=(),
          distances=()):
    return ConnectionSummary(conn_id=conn_id, cell_id=cell, rnti=rnti,
                             start_ps=start, end_ps=end, tmsi=tmsi,
                             tmsi_is_random=is_random,
                             had_service_request=service,
                             observed_imsi=imsi, distances_m=distances,
                             points=points)


# -- per-connection statistics ---------------------------------------------

def test_stats_requires_ten_measurements():
    assert connection_stats([30.0] * 9) is None
    assert connection_stats([]) is None


def test_stats_identical_values():
    stats = connection_stats([30.0] * 20)
    assert stats == ConnectionStats(median=30.0,
                                    n_measurements=20,
                                    n_outliers_removed=0, iqr=0.0)


def test_stats_removes_far_outlier():
    values = [28.1, 28.6, 29.0, 29.2, 29.5, 29.7, 29.9, 30.0, 30.1, 30.2,
              30.4, 30.5, 30.8, 30.9, 31.1, 31.3, 31.6, 31.9, 32.0,
              10_000.0]
    # By hand: raw median 30.3, q25 29.65, q75 31.15, IQR 1.5; the cut at
    # ten IQRs (15 m) removes only the corrupted value.
    stats = connection_stats(values)
    assert stats.n_outliers_removed == 1
    assert stats.iqr == pytest.approx(1.5)
    assert stats.median == pytest.approx(30.2)
    assert 28.0 <= stats.median <= 32.0


def test_stats_keeps_wide_but_consistent_spread():
    values = [10.0] * 10 + [20.0] * 10
    stats = connection_stats(values)
    assert stats.n_outliers_removed == 0
    assert stats.median == pytest.approx(15.0)


# -- identity linkage ---------------------------------------------------------

def test_known_tmsi_maps_to_imsi():
    db = TrackDb()
    db.record_pair(0x1111, IMSI, 0)
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x1111)
    assert db.link_connection(conn) == IMSI


def test_extraction_entry_creates_pair():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x2222)
    entries = [{"t_ps": 10 * SEC + 5, "tmsi": 0x2222, "imsi": IMSI,
                "trigger": "attach", "outcome": "replaced", "rnti": 0x4A}]
    assert db.link_connection(conn, entries) == IMSI
    assert db.imsi_for(0x2222) == IMSI


def test_random_request_gets_provisional_id():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x3333, is_random=True,
                 service=True)
    linked = db.link_connection(conn)
    assert linked.startswith("anon-")
    assert linked == provisional_id("c1")  # deterministic
    assert db.link_connection(_conn("c2", 12 * SEC, 13 * SEC,
                                    tmsi=0x3333, is_random=True,
                                    service=True)) != linked


def test_conflicting_extractions_rejected():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x2222)
    entries = [
        {"t_ps": 10 * SEC + 1, "tmsi": 0x2222, "imsi": IMSI},
        {"t_ps": 10 * SEC + 2, "tmsi": 0x2222, "imsi": "00101999"},
    ]
    with pytest.raises(IntegrityError):
        db.link_connection(conn, entries)


def test_tmsi_reassignment_binds_newest_imsi():
    db = TrackDb()
    db.record_pair(0x4444, IMSI, 1 * SEC)
    db.record_pair(0x4444, "001010000000099", 50 * SEC)
    assert db.imsi_for(0x4444) == "001010000000099"


def test_attach_imsi_links_directly():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x5555, imsi=IMSI)
    assert db.ingest(conn) == IMSI
    assert db.imsi_for(0x5555) == IMSI


# -- connections without an identity ------------------------------------------

def _halted_conn(db, conn_id, cell, end_s, x, y, imsi):
    conn = _conn(conn_id, (end_s - 1) * SEC, end_s * SEC, cell=cell,
                 tmsi=0x1000 + cell, points=(_point(end_s * SEC, x, y),))
    db.record_pair(0x1000 + cell, imsi, 0)
    db.ingest(conn)
    return conn


def test_service_request_never_handover_matched():
    db = TrackDb()
    _halted_conn(db, "old", cell=1, end_s=100, x=0.0, y=40.0, imsi=IMSI)
    new = _conn("new", int(100.5 * SEC), 102 * SEC, cell=2, service=True,
                points=(_point(101 * SEC, 0.0, 20.0),))
    assert db.ingest(new).startswith("anon-")


# -- traces and retroactive correction ----------------------------------------

def test_trace_points_time_ordered():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 13 * SEC, tmsi=0x1111, imsi=IMSI,
                 points=(_point(12 * SEC, 1.0, 0.0),
                         _point(10 * SEC, 0.0, 0.0),
                         _point(11 * SEC, 0.5, 0.0)))
    db.ingest(conn)
    trace = db.build_trace(IMSI)
    assert [p.t_ps for p in trace] == [10 * SEC, 11 * SEC, 12 * SEC]
    with pytest.raises(KeyError):
        db.build_trace("unknown")


def _biased_scene(hw_error_m):
    enb = Position(0.0, 0.0)
    probe1 = Position(400.0, 0.0)
    probe2 = Position(100.0, 500.0)
    ue = Position(250.0, 300.0)
    d_enb = ue.distance_to(enb)
    sums = [d_enb + ue.distance_to(probe1), d_enb + ue.distance_to(probe2)]
    loci = [EllipseLocus(focus_enb=enb, focus_probe=probe1,
                         sum_dist=sums[0] + 2 * hw_error_m, sigma=1.0),
            EllipseLocus(focus_enb=enb, focus_probe=probe2,
                         sum_dist=sums[1] + 2 * hw_error_m, sigma=1.0),
            AnnulusLocus(center=enb,
                         r_inner=d_enb + hw_error_m - RING_WIDTH_M / 2,
                         r_outer=d_enb + hw_error_m + RING_WIDTH_M / 2)]
    return ue, tuple(loci)


def test_fingerprint_corrects_earlier_points():
    hw = -24.51
    ue, loci = _biased_scene(hw)
    biased = multilaterate(loci)
    point = TracePoint(t_ps=10 * SEC, estimate=biased, loci=loci)
    db = TrackDb()
    db.ingest(_conn("c1", 10 * SEC, 11 * SEC, tmsi=0x1111, imsi=IMSI,
                    points=(point,)))

    before = db.build_trace(IMSI)[0]
    assert not before.corrected
    assert before.position.distance_to(ue) > 5.0

    db.set_fingerprint(IMSI, "Huawei P30", hw)
    after = db.build_trace(IMSI)[0]
    assert after.corrected
    assert after.position.distance_to(ue) < 0.1


def test_corrected_loci_arithmetic():
    _, loci = _biased_scene(-10.0)
    fixed = corrected_loci(loci, -10.0)
    assert fixed[0].sum_dist == pytest.approx(loci[0].sum_dist + 20.0)
    assert fixed[2].mid_radius == pytest.approx(loci[2].mid_radius + 10.0)
    assert fixed[2].r_outer - fixed[2].r_inner == pytest.approx(
        loci[2].r_outer - loci[2].r_inner)


def test_two_tmsis_one_trace():
    db = TrackDb()
    e1 = [{"t_ps": 10 * SEC, "tmsi": 0xA1, "imsi": IMSI}]
    e2 = [{"t_ps": 20 * SEC, "tmsi": 0xB2, "imsi": IMSI}]
    db.ingest(_conn("c1", 10 * SEC, 11 * SEC, tmsi=0xA1,
                    points=(_point(10 * SEC, 0.0, 0.0),)), e1)
    db.ingest(_conn("c2", 20 * SEC, 21 * SEC, tmsi=0xB2,
                    points=(_point(20 * SEC, 5.0, 0.0),)), e2)
    trace = db.build_trace(IMSI)
    assert len(trace) == 2
    assert db.imsi_for(0xA1) == IMSI and db.imsi_for(0xB2) == IMSI


# -- persistence ----------------------------------------------------------------

def _populated_db():
    db = TrackDb()
    db.record_pair(0x1111, IMSI, 0)
    db.ingest(_conn("c1", 10 * SEC, 11 * SEC, tmsi=0x1111,
                    points=(_point(10 * SEC, 1.0, 2.0),),
                    distances=tuple(float(30 + i) for i in range(12))))
    db.ingest(_conn("c2", 12 * SEC, 13 * SEC, tmsi=0x9999, is_random=True,
                    service=True, points=(_point(12 * SEC, 7.0, 8.0),)))
    db.set_fingerprint(IMSI, "Huawei P30", -24.51)
    return db


def test_journal_dump_deterministic(tmp_path):
    db = _populated_db()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    db.dump_journal(p1)
    db.dump_journal(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_row_shapes():
    db = _populated_db()
    trace_rows = list(trace_csv_rows(db, IMSI))
    assert trace_rows and set(trace_rows[0]) == {
        "imsi", "t_ps", "x_m", "y_m", "residual_rms_m", "corrected"}
    stats_rows = list(stats_csv_rows(db))
    assert len(stats_rows) == 1  # c2 has no distance measurements
    assert stats_rows[0]["median_distance_m"] == pytest.approx(35.5)
