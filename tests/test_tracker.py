"""Linkage-database behavior on scripted connection streams."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tatrack import pipeline as pl
from tatrack.geometry import Position, PositionEstimate
from tatrack.tracker import (Connection, ConnectionStats, TracePoint,
                             TrackDb, connection_stats, median_of_sorted,
                             provisional_id, quantile_of_sorted)

SEC = 10**12
IMSI = "001010000000017"


def _point(t_ps, x, y):
    est = PositionEstimate(position=Position(x, y), residual_rms=0.0)
    return TracePoint(t_ps=t_ps, estimate=est)


def _conn(conn_id, start, end, rnti=0x4A, tmsi=None, is_random=False,
          service=False, imsi=None, points=()):
    return Connection(conn_id=conn_id, rnti=rnti, start_ps=start,
                      end_ps=end, tmsi=tmsi, tmsi_is_random=is_random,
                      had_service_request=service, observed_imsi=imsi,
                      points=points)


def _ingest(db, conn):
    """Link a connection, then store it, as localize and track do."""
    conn.linked = db.link_connection(conn)
    db.ingest(conn)
    return conn.linked


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


@given(st.lists(st.one_of(
    st.integers(min_value=0, max_value=10**12).map(float),
    st.floats(min_value=0.0, max_value=1e4)),
    min_size=1, max_size=60))
def test_sorted_median_and_quantiles_match_numpy_bit_for_bit(values):
    # Delay sums in ps and errors in m: the two kinds the helpers see.
    ordered = sorted(values)
    assert median_of_sorted(ordered) == np.median(values)
    for percent in (25.0, 75.0, 90.0):
        assert quantile_of_sorted(ordered, percent / 100) == \
            np.percentile(values, percent), percent


# -- identity linkage ---------------------------------------------------------

def test_known_tmsi_maps_to_imsi():
    db = TrackDb()
    db.record_pair(0x1111, IMSI, 0)
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x1111)
    assert db.link_connection(conn) == IMSI


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


def test_tmsi_reassignment_binds_newest_imsi():
    db = TrackDb()
    db.record_pair(0x4444, IMSI, 1 * SEC)
    db.record_pair(0x4444, "001010000000099", 50 * SEC)
    assert db.imsi_for(0x4444) == "001010000000099"


def test_journal_skips_unchanged_pairs_and_fingerprints():
    db = TrackDb()
    _ingest(db, _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x6666, imsi=IMSI))
    db.set_fingerprint(IMSI, "Huawei P30", -24.51)
    n_lines = len(db.journal)
    db.record_pair(0x6666, IMSI, 12 * SEC)
    assert db.link_connection(_conn("c2", 20 * SEC, 21 * SEC,
                                    tmsi=0x6666)) == IMSI
    db.set_fingerprint(IMSI, "Huawei P30", -24.51)
    assert len(db.journal) == n_lines
    db.set_fingerprint(IMSI, "iPhone 8", -10.0)
    assert db.journal[-1]["event"] == "fingerprint"
    assert len(db.journal) == n_lines + 1


def test_ingest_journals_the_connection_then_its_fingerprint():
    # One call applies a connection; a model without a bias, or the
    # identity's stored pair again, journals no fingerprint.
    db = TrackDb()
    first = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x7777, imsi=IMSI)
    first.model_hat, first.hw_bias_m = "Huawei P30", -24.51
    _ingest(db, first)
    assert [e["event"] for e in db.journal] == ["pair", "connection",
                                                "fingerprint"]
    assert db.journal[-1] == {"event": "fingerprint", "imsi": IMSI,
                              "model": "Huawei P30", "hw_error_m": -24.51}
    unbiased = _conn("c2", 20 * SEC, 21 * SEC, tmsi=0x8888, imsi=IMSI)
    unbiased.model_hat = "iPhone 8"
    again = _conn("c3", 30 * SEC, 31 * SEC, tmsi=0x7777)
    again.model_hat, again.hw_bias_m = "Huawei P30", -24.51
    assert _ingest(db, unbiased) == _ingest(db, again) == IMSI
    assert [e["event"] for e in db.journal[3:]] == ["pair", "connection",
                                                    "connection"]
    assert db.fingerprints == {IMSI: ("Huawei P30", -24.51)}


def test_attach_imsi_links_directly():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x5555, imsi=IMSI)
    assert _ingest(db, conn) == IMSI
    assert db.imsi_for(0x5555) == IMSI


# -- connections without an identity ------------------------------------------

def _halted_conn(db, conn_id, tmsi, end_s, x, y, imsi):
    conn = _conn(conn_id, (end_s - 1) * SEC, end_s * SEC, tmsi=tmsi,
                 points=(_point(end_s * SEC, x, y),))
    db.record_pair(tmsi, imsi, 0)
    return _ingest(db, conn)


def test_service_request_never_handover_matched():
    # A service request just after a paired connection ends, with no TMSI
    # of its own, is not taken for that phone.
    db = TrackDb()
    assert _halted_conn(db, "old", tmsi=0x1001, end_s=100, x=0.0, y=40.0,
                        imsi=IMSI) == IMSI
    new = _conn("new", int(100.5 * SEC), 102 * SEC, service=True,
                points=(_point(101 * SEC, 0.0, 20.0),))
    assert _ingest(db, new).startswith("anon-")


# -- traces: stored as localize solved them -----------------------------------

def test_trace_points_time_ordered():
    db = TrackDb()
    conn = _conn("c1", 10 * SEC, 13 * SEC, tmsi=0x1111, imsi=IMSI,
                 points=(_point(12 * SEC, 1.0, 0.0),
                         _point(10 * SEC, 0.0, 0.0),
                         _point(11 * SEC, 0.5, 0.0)))
    _ingest(db, conn)
    trace = db.build_trace(IMSI)
    assert [p.t_ps for p in trace] == [10 * SEC, 11 * SEC, 12 * SEC]
    # A fingerprint is journaled; the stored points are not re-solved.
    db.set_fingerprint(IMSI, "Huawei P30", -24.51)
    assert db.build_trace(IMSI) == trace
    with pytest.raises(KeyError):
        db.build_trace("unknown")


def test_two_tmsis_one_trace():
    db = TrackDb()
    _ingest(db, _conn("c1", 10 * SEC, 11 * SEC, tmsi=0xA1, imsi=IMSI,
                       points=(_point(10 * SEC, 0.0, 0.0),)))
    _ingest(db, _conn("c2", 20 * SEC, 21 * SEC, tmsi=0xB2, imsi=IMSI,
                       points=(_point(20 * SEC, 5.0, 0.0),)))
    trace = db.build_trace(IMSI)
    assert len(trace) == 2
    assert db.imsi_for(0xA1) == IMSI and db.imsi_for(0xB2) == IMSI


# -- persistence ----------------------------------------------------------------

def _populated_db():
    db = TrackDb()
    db.record_pair(0x1111, IMSI, 0)
    _ingest(db, _conn("c1", 10 * SEC, 11 * SEC, tmsi=0x1111,
                       points=(_point(10 * SEC, 1.0, 2.0),)))
    _ingest(db, _conn("c2", 12 * SEC, 13 * SEC, tmsi=0x9999,
                       is_random=True, service=True,
                       points=(_point(12 * SEC, 7.0, 8.0),)))
    db.set_fingerprint(IMSI, "Huawei P30", -24.51)
    return db


def test_journal_dump_deterministic(tmp_path):
    db = _populated_db()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pl._write_jsonl(p1, db.journal)
    pl._write_jsonl(p2, db.journal)
    assert p1.read_bytes() == p2.read_bytes()
    # A connection is journaled by its identity and fixes, not its
    # measurements.
    entries = [json.loads(line) for line in p1.read_text().splitlines()]
    connections = [e for e in entries if e["event"] == "connection"]
    assert len(connections) == 2
    for entry in connections:
        assert set(entry) == {
            "event", "linked", "conn_id", "rnti", "start_ps", "end_ps",
            "tmsi", "tmsi_is_random", "had_service_request",
            "observed_imsi", "points"}


def test_csv_row_shapes(tmp_path):
    db = _populated_db()
    ctx = pl.RunContext(scenario=None, db=None, track_db=db)
    pl.write_artifacts(ctx, tmp_path, ("track",))
    with open(tmp_path / "traces.csv", newline="") as fh:
        trace_rows = list(csv.DictReader(fh))
    assert trace_rows and set(trace_rows[0]) == {
        "imsi", "t_ps", "x_m", "y_m", "residual_rms_m", "corrected"}
