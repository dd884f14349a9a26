"""End-to-end checks of the staged analysis pipeline."""

import ast
import csv
import filecmp
import importlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tatrack import geometry, messages
from tatrack import pipeline as pl
from tatrack import sim
from tatrack.fingerprint import FingerprintDb, hw_error
from tatrack.geometry import AnnulusLocus, Position
from tatrack.timebase import RING_WIDTH_M, m_to_ps, ps_to_m
from tatrack.tracker import provisional_id

from _oracle import csv_text, event_line

DB = FingerprintDb.default()
REPLICATION = Path(__file__).resolve().parent.parent / "scenarios" / \
    "replication.json"
ZERO = sim.NoiseModel(toa_sigma_ps=0, hw_bias=False)
BIASED = sim.NoiseModel(toa_sigma_ps=0, hw_bias=True)

TRIANGLE_PROBES = (
    sim.Probe(id="p0", position=Position(0.0, 0.0)),
    sim.Probe(id="p1", position=Position(400.0, 0.0)),
    sim.Probe(id="p2", position=Position(100.0, 500.0)),
)


def _static_ue(x, y=0.0, model="Huawei P30", **kw):
    return sim.UeProfile(model=model, waypoints=((0, Position(x, y)),), **kw)


def _scenario(ues, probes=None, duration_s=3, seed=5, **kw):
    probes = probes or (sim.Probe(id="probe0", position=Position(0.0, 0.0)),)
    return sim.Scenario(
        enbs=(sim.Enb(id="enb0", position=Position(0.0, 0.0)),),
        probes=tuple(probes), ues=tuple(ues),
        duration_ps=duration_s * 1_000 * 10**9, seed=seed, **kw)


def test_check_stages_canonical_order():
    shuffled = ("stats", "simulate", "track", "probe", "extract", "localize")
    assert pl.check_stages(shuffled) == pl.STAGES
    assert pl.check_stages(("simulate", "probe")) == ("simulate", "probe")


def test_check_stages_rejects_gaps_and_unknowns():
    with pytest.raises(pl.StageError):
        pl.check_stages(("probe",))
    with pytest.raises(pl.StageError):
        pl.check_stages(("simulate", "bogus"))
    with pytest.raises(pl.StageError):
        pl.check_stages(("simulate", "probe", "extract", "track"))
    with pytest.raises(pl.StageError):
        pl.check_stages(())


def test_noiseless_positions_recover_truth():
    # hw_bias stays on: the pipeline always corrects classified phones,
    # so only injected-and-corrected runs leave the sums unskewed.
    ue = _static_ue(250.0, 300.0, model="Google Pixel 2")
    ctx = pl.run_pipeline(_scenario((ue,), probes=TRIANGLE_PROBES,
                                    noise=BIASED))
    assert len(ctx.views) >= 2
    for view in ctx.views:
        assert view.model_hat == "Google Pixel 2"
        assert view.estimate is not None
        assert view.estimate.position.distance_to(Position(250.0, 300.0)) < 0.05


def test_bias_cancels_exactly_in_stats():
    hw = hw_error("Huawei P30", DB)
    ctx = pl.run_pipeline(_scenario((_static_ue(60.0),), noise=BIASED))
    assert ctx.stats_rows
    for row in ctx.stats_rows:
        assert row["model_hat"] == "Huawei P30"
        assert row["median_sum_ps"] - row["true_sum_ps"] == m_to_ps(2 * hw)
        assert row["err_raw_m"] == pytest.approx(hw, abs=1e-3)
        assert row["err_corr_m"] == pytest.approx(0.0, abs=1e-9)


def test_corrected_ring_shifts_mid_radius_and_keeps_width():
    ring = AnnulusLocus(center=Position(0.0, 0.0),
                        r_inner=380.0 - RING_WIDTH_M / 2,
                        r_outer=380.0 + RING_WIDTH_M / 2)
    fixed = pl._corrected_ring(ring, -10.0)
    assert fixed.center == ring.center
    assert fixed.mid_radius == pytest.approx(ring.mid_radius + 10.0)
    assert fixed.r_outer - fixed.r_inner == pytest.approx(
        ring.r_outer - ring.r_inner)


def test_ta_zero_ring_keeps_zero_inner_edge():
    # A P30 at 30 m transmits 24.51 m early, so its timing advance clamps
    # at zero; the corrected ring must keep covering the short ranges the
    # clamp hides instead of starting at the shifted inner edge.
    ctx = pl.run_pipeline(_scenario((_static_ue(30.0),), noise=BIASED))
    for view in ctx.views:
        assert view.ta_index == 0
        rings = [l for l in view.loci if isinstance(l, AnnulusLocus)]
        assert len(rings) == 1
        assert rings[0].r_inner == 0.0
        assert rings[0].r_outer == pytest.approx(
            RING_WIDTH_M / 2 - hw_error("Huawei P30", DB), abs=1e-9)
        # A single colocated probe leaves the bearing unidentifiable
        # (every locus is concentric), so only the range is checked.
        est = view.estimate.position
        assert est.distance_to(Position(0.0, 0.0)) == pytest.approx(30.0,
                                                                    abs=0.05)


def _assert_service_views_corrected(ctx):
    """Service views take the attach's bias and land on the phone at
    (45, 0) in positions.csv and traces.csv alike."""
    served = [v for v in ctx.views if v.had_service_request]
    assert served
    for view in served:
        assert view.capabilities is None
        assert view.hw_bias_m == hw_error("Huawei P30", DB)
        assert view.estimate.position.distance_to(Position(45.0, 0.0)) < 0.05
    db = ctx.track_db
    for view in ctx.views:
        [point] = [p for p in db.build_trace(view.linked)
                   if p.t_ps == view.start_ps]
        assert point.estimate == view.estimate
        assert point.corrected == (view.hw_bias_m is not None)


@pytest.mark.parametrize("service_first, extract", [
    pytest.param(False, False, id="attach_first"),
    pytest.param(True, True, id="service_first"),
    pytest.param(False, True, id="attach_first_extracted"),
    pytest.param(True, False, id="service_first_unextracted"),
])
def test_service_connection_inherits_bias_from_tmsi(service_first, extract):
    # Service first, the attach that shows the model comes later in the
    # run. With the extractor on, every view links to the IMSI; with it
    # off, every view links provisionally and the bias follows the TMSI.
    shared = dict(imsi="001010000012345", tmsi=0xBEEF0001)
    ues = (_static_ue(60.0, **shared),
           _static_ue(45.0, connection_type="service", **shared))
    ctx = pl.run_pipeline(_scenario(
        ues[::-1] if service_first else ues, probes=TRIANGLE_PROBES,
        noise=BIASED, attack=sim.AttackConfig(enabled=extract)))
    linked = {v.linked for v in ctx.views}
    if extract:
        assert linked == {"001010000012345"}
    else:
        assert all(i.startswith("anon-") for i in linked)
    _assert_service_views_corrected(ctx)


def test_unextracted_service_request_takes_its_phones_bias():
    # The phone leaves the identity request after its service request
    # unanswered, so that connection is not extracted and links
    # provisionally. The attach that pairs its TMSI to the IMSI starts
    # after the service connection ends (two other phones come between);
    # the service views still take the bias of the phone the TMSI is
    # paired with.
    imsi = "001010000012345"
    ues = (_static_ue(45.0, connection_type="service", imsi=imsi,
                      tmsi=0xBEEF0001,
                      answers_identity_after_service_request=False),
           _static_ue(0.0, 60.0, model="iPhone 8", imsi="001010000000001",
                      tmsi=0xA0000001),
           _static_ue(0.0, 90.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002),
           _static_ue(60.0, imsi=imsi, tmsi=0xBEEF0001))
    ctx = pl.run_pipeline(_scenario(ues, probes=TRIANGLE_PROBES,
                                    duration_s=2, noise=BIASED,
                                    attack=sim.AttackConfig(enabled=True)))
    [served] = [v for v in ctx.views if v.had_service_request]
    assert served.linked == provisional_id(served.conn_id)
    assert {v.linked for v in ctx.views if v is not served} == {
        imsi, "001010000000001", "001010000000002"}
    _assert_service_views_corrected(ctx)


def test_service_connection_inherits_bias_from_the_imsi():
    # Attach and service request come under two TMSIs that the identity
    # responses link to one IMSI: the bias follows the phone, not the TMSI.
    ues = (_static_ue(60.0, imsi="001010000012345", tmsi=0xBEEF0001),
           _static_ue(45.0, connection_type="service",
                      imsi="001010000012345", tmsi=0xBEEF0002))
    ctx = pl.run_pipeline(_scenario(ues, probes=TRIANGLE_PROBES,
                                    noise=BIASED,
                                    attack=sim.AttackConfig(enabled=True)))
    assert {v.linked for v in ctx.views} == {"001010000012345"}
    _assert_service_views_corrected(ctx)


def test_track_without_extract_links_by_observed_imsis():
    # The sniffer hears the identity responses itself, so localize links
    # the connections to IMSIs without the extract stage.
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002))
    scn = _scenario(ues, noise=ZERO, attack=sim.AttackConfig(enabled=True))
    stages = pl.check_stages(("simulate", "probe", "localize", "track"))
    ctx = pl.run_pipeline(scn, stages)
    assert {v.linked for v in ctx.views} == {"001010000000001",
                                             "001010000000002"}
    for imsi in ("001010000000001", "001010000000002"):
        assert ctx.track_db.build_trace(imsi)


@pytest.mark.parametrize("workload", ["golden", "crowd"])
def test_extract_changes_no_link(tmp_path, workload):
    # Each IMSI the extractor logs arrives in an identity response that
    # the sniffers decode too, so the links and the journal are the same
    # whether or not extract runs.
    if workload == "golden":
        scn = _golden_scenario()
    else:
        from perfbench import workloads
        scn = sim.scenario_from_dict(workloads.crowd(0))
    runs = {}
    for extract in (True, False):
        stages = [s for s in pl.STAGES if extract or s != "extract"]
        ctx = pl.run_pipeline(scn, stages)
        path = tmp_path / f"trackdb_{extract}.jsonl"
        pl._write_jsonl(path, ctx.track_db.journal)
        runs[extract] = ([v.linked for v in ctx.views], path.read_bytes())
    assert runs[True] == runs[False]
    logged = [e for e in ctx.result.extraction.entries if "imsi" in e]
    assert logged
    for entry in logged:
        assert any(v.tmsi == entry["tmsi"]
                   and v.observed_imsi == entry["imsi"]
                   and v.start_ps <= entry["t_ps"] <= v.end_ps
                   for v in ctx.views), entry


def test_extraction_links_views_to_imsis():
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002))
    scn = _scenario(ues, noise=ZERO, attack=sim.AttackConfig(enabled=True))
    ctx = pl.run_pipeline(scn)
    assert {v.linked for v in ctx.views} == {"001010000000001",
                                             "001010000000002"}
    for imsi in ("001010000000001", "001010000000002"):
        assert ctx.track_db.build_trace(imsi)


def test_offset_solver_recovers_position_and_offset():
    ue = _static_ue(250.0, 300.0, model="Google Pixel 2")
    scn = _scenario((ue,), probes=TRIANGLE_PROBES, noise=BIASED,
                    countermeasure=sim.Countermeasure(
                        mode="random_offset", max_offset_ps=400_000))
    ctx = pl.run_pipeline(scn)
    offsets = {info.rnti: info.cm_offset_ps
               for info in ctx.result.connections}
    assert ctx.views
    for view in ctx.views:
        assert view.offset_m is not None
        expected = ps_to_m(offsets[view.rnti])
        assert view.offset_m == pytest.approx(expected, abs=0.05)
        assert view.estimate.position.distance_to(Position(250.0, 300.0)) < 0.05


def test_stats_join_truth_of_the_same_connection():
    # Phones 0 and 4 start 68 subframes apart, a whole number of 4-subframe
    # rounds, so most of phone 0's data uplinks share a subframe with
    # phone 4's. Noiseless and unbiased, every joined sum must be exact.
    ues = [_static_ue(40.0 + 50.0 * i, n_data_rounds=48) for i in range(5)]
    ctx = pl.run_pipeline(_scenario(ues, noise=ZERO))
    conn_of_rnti = {c.rnti: c.conn_id for c in ctx.result.connections}
    view_rnti = {view.conn_id: view.rnti for view in ctx.views}
    assert len(ctx.stats_rows) == len(ctx.result.connections)
    for row in ctx.stats_rows:
        assert row["err_raw_m"] == 0.0, row["conn"]
        assert row["sim_conn"] == conn_of_rnti[view_rnti[row["conn"]]]


def test_summary_grouping_modes():
    ues = (_static_ue(60.0, model="iPhone 8", imsi="001010000000001"),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002"))
    scn = _scenario(ues, noise=ZERO)
    by_imsi = pl.run_pipeline(scn, group_by="imsi")
    assert len(by_imsi.summary_rows) == 2
    by_model = pl.run_pipeline(scn, group_by="model")
    assert len(by_model.summary_rows) == 1
    assert by_model.summary_rows[0]["group"] == "iPhone 8"
    by_conn = pl.run_pipeline(scn, group_by="connection")
    assert len(by_conn.summary_rows) == len(
        {row["sim_conn"] for row in by_conn.stats_rows})
    with pytest.raises(pl.StageError):
        pl.run_pipeline(scn, group_by="bogus")


def test_artifacts_written_and_deterministic(tmp_path):
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002))
    scn = _scenario(ues, attack=sim.AttackConfig(enabled=True))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    pl.run_pipeline(scn, out_dir=out_a)
    pl.run_pipeline(scn, out_dir=out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for expected in ("events_probe0.jsonl", "ground_truth.csv",
                     "measurements_probe0.csv", "extraction.jsonl",
                     "extracted_pairs.json", "positions.csv",
                     "trackdb.jsonl", "traces.csv", "connection_stats.csv",
                     "stats.csv", "errors.csv", "summary.csv"):
        assert expected in names
    same, diff, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not diff and not errors


def test_forked_writer_matches_writing_every_stage_in_process(tmp_path):
    # The forked event-log writer and a direct write of every stage run the
    # same code: three sniffers, extraction on.
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002, connection_type="service"))
    scn = _scenario(ues, probes=TRIANGLE_PROBES,
                    attack=sim.AttackConfig(enabled=True))
    forked, direct = tmp_path / "forked", tmp_path / "direct"
    pl.run_pipeline(scn, out_dir=forked)
    pl.write_artifacts(pl.run_pipeline(scn), direct, pl.STAGES)
    names = sorted(p.name for p in direct.iterdir())
    assert names == sorted(p.name for p in forked.iterdir())
    assert {f"events_{p.id}.jsonl" for p in TRIANGLE_PROBES} <= set(names)
    same, diff, errors = filecmp.cmpfiles(forked, direct, names,
                                          shallow=False)
    assert not diff and not errors


def test_a_failing_stage_reaps_the_writer(tmp_path, monkeypatch):
    def fail(ctx):
        raise RuntimeError("localize failed")

    monkeypatch.setattr(pl, "stage_localize", fail)
    with pytest.raises(RuntimeError, match="localize failed"):
        pl.run_pipeline(_scenario((_static_ue(60.0),)), out_dir=tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # The writer finished before the run gave up.
    assert (tmp_path / "ground_truth.csv").stat().st_size > 0


def _format_scenarios():
    """A run with every message kind and a run with no connection at all."""
    waypoints = tuple((k * 10**12, Position(680.0 if k % 2 else 600.0, 0.0))
                      for k in range(4))
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", imsi="001010000000002",
                      tmsi=0xA0000002, connection_type="service"),
           sim.UeProfile(model="Huawei P30", waypoints=waypoints,
                         reconnect_rate=10.0, n_data_rounds=400,
                         ta_interval=32))
    probes = (sim.Probe(id="both", position=Position(0.0, 0.0)),
              sim.Probe(id="ul", position=Position(250.0, 0.0), role="ul"),
              sim.Probe(id="dl", position=Position(0.0, 250.0), role="dl"))
    attack = sim.AttackConfig(enabled=True, use_service_reject=True)
    faults = sim.FaultModel(ta_resend_prob=0.3, grant_loss_prob=0.05)
    busy = _scenario(ues, probes=probes, attack=attack, faults=faults)
    idle = sim.Scenario(enbs=busy.enbs, probes=probes, ues=ues[:1],
                        duration_ps=50 * 10**9, seed=5, attack=attack)
    return busy, idle


def _read_back_event_logs(scenario, out_dir):
    """Decode each ``message_hex`` cell of the scenario's event logs and
    check it against the simulator's message; the kinds and line count."""
    ctx = pl.run_pipeline(scenario, ("simulate",), out_dir=out_dir)
    kinds, n_lines = set(), 0
    for probe_id, events in ctx.result.events.items():
        lines = (out_dir / f"events_{probe_id}.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == len(events)
        n_lines += len(lines)
        for line, event in zip(lines, events):
            cell = json.loads(line)["message_hex"]
            message = (None if cell is None
                       else messages.decode(bytes.fromhex(cell)))
            assert message == event.message
            kinds.add(type(message))
    return kinds, n_lines


def test_event_logs_read_back_through_the_codec(tmp_path):
    kinds, _ = _read_back_event_logs(_format_scenarios()[0], tmp_path)
    assert len(kinds) == len(messages._CODECS) + 1  # every kind and null


def test_benchmark_traffic_reads_back_through_the_codec(tmp_path):
    # Crowd seed 0's three sniffers: the traffic a replay would decode.
    from perfbench import workloads
    scn = sim.scenario_from_dict(workloads.crowd(0))
    _, n_lines = _read_back_event_logs(scn, tmp_path)
    assert n_lines == 50_166


@pytest.mark.parametrize("busy", [True, False], ids=["busy", "idle"])
def test_artifacts_match_the_reference_formats(tmp_path, monkeypatch, busy):
    scn = _format_scenarios()[0 if busy else 1]
    ctx = pl.run_pipeline(scn)
    if busy:
        kinds = {type(e.message).__name__
                 for events in ctx.result.events.values() for e in events}
        assert kinds == {
            "RandomAccessResponse", "RrcConnectionRequest",
            "RrcConnectionSetup", "DciFormat0", "AttachRequest",
            "ServiceRequest", "IdentityRequest", "IdentityResponse",
            "ServiceReject", "MacTaCommand", "Ack", "NoneType"}
        # A record whose TMSI was never heard leaves both identity cells
        # of its measurement rows empty.
        record = next(r for r in ctx.tables["both"].records
                      if r.measurements and r.observed_imsi is None)
        record.tmsi = None
        assert any(v.offset_m is None for v in ctx.views)
    written = {}
    real_write_csv = pl._write_csv

    def keep_rows(path, columns, rows):
        rows = list(rows)
        written[path.name] = csv_text(columns, rows)
        real_write_csv(path, columns, rows)

    monkeypatch.setattr(pl, "_write_csv", keep_rows)
    pl.write_artifacts(ctx, tmp_path, pl.STAGES)
    for probe in scn.probes:
        text = (tmp_path / f"events_{probe.id}.jsonl").read_text()
        events = ctx.result.events[probe.id]
        assert text.splitlines(keepends=True) == [event_line(e)
                                                  for e in events]
        assert (text == "") == (not busy)
    assert sorted(written) == sorted(p.name for p in tmp_path.glob("*.csv"))
    for name, expected in written.items():
        assert (tmp_path / name).read_text() == expected, name
    if busy:
        # The cases the templates special-case do occur in this run.
        events = (tmp_path / "events_both.jsonl").read_text()
        for null in ('"message_hex": null', '"rb_alloc": null',
                     '"rnti": null'):
            assert null in events
        assert "\n,," in (tmp_path / "measurements_both.csv").read_text()
        with open(tmp_path / "positions.csv", newline="") as fh:
            assert {row["offset_m"] for row in csv.DictReader(fh)} == {""}


def test_each_message_is_encoded_once_per_write(tmp_path, monkeypatch):
    # Every sniffer that hears a message holds the same object, and the
    # event logs encode each object once, not once per sniffer.
    ues = (_static_ue(60.0, imsi="001010000000001", tmsi=0xA0000001),
           _static_ue(45.0, model="iPhone 8", connection_type="service"))
    scn = _scenario(ues, probes=TRIANGLE_PROBES,
                    attack=sim.AttackConfig(enabled=True))
    ctx = pl.run_pipeline(scn, stages=("simulate",))
    encoded = []

    def counting_encode(message, real=pl.encode):
        encoded.append(message)
        return real(message)

    monkeypatch.setattr(pl, "encode", counting_encode)
    pl.write_artifacts(ctx, tmp_path, ("simulate",))
    heard = [e.message for events in ctx.result.events.values()
             for e in events if e.message is not None]
    assert len(encoded) == len({id(m) for m in heard}) < len(heard)
    for probe in scn.probes:
        events = ctx.result.events[probe.id]
        assert (tmp_path / f"events_{probe.id}.jsonl").read_text() == \
            "".join(event_line(e) for e in events)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("workload", ["golden", "crowd"])
def test_connection_stats_agree_with_stats_and_journal(tmp_path, workload):
    # connection_stats.csv is half the delay-sum statistics of the first
    # sniffer, by probe id, that has them, in metres: the same statistics
    # stats.csv gives for that sniffer, and the identity the journal links
    # the connection to.
    if workload == "golden":
        scn = _golden_scenario()
    else:
        from perfbench import workloads
        scn = sim.scenario_from_dict(workloads.crowd(0))
    ctx = pl.run_pipeline(scn, out_dir=tmp_path)
    assert any(len(view.legs) > 1 for view in ctx.views)
    first_probe = {v.conn_id: next((p for p, (_, stats) in v.legs.items()
                                    if stats is not None), None)
                   for v in ctx.views}
    first_rows = {row["conn"]: row
                  for row in _csv_rows(tmp_path / "stats.csv")
                  if row["probe"] == first_probe[row["conn"]]}
    linked = {}
    with open(tmp_path / "trackdb.jsonl") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["event"] == "connection":
                linked[entry["conn_id"]] = entry["linked"]
    rows = _csv_rows(tmp_path / "connection_stats.csv")
    order = {v.conn_id: (v.rnti, v.start_ps)
             for v in ctx.views}
    assert [row["conn_id"] for row in rows] == sorted(first_rows,
                                                      key=order.get)
    for row in rows:
        first = first_rows[row["conn_id"]]
        assert row["n_measurements"] == first["n_meas"]
        assert row["n_outliers_removed"] == first["n_removed"]
        assert float(row["median_distance_m"]) == \
            ps_to_m(float(first["median_sum_ps"])) / 2, row["conn_id"]
        assert row["linked"] == linked[row["conn_id"]]


def test_connection_stats_skip_a_sniffer_without_statistics(tmp_path):
    # A downlink-only sniffer opens a record per connection but times no
    # burst, so its leg has no statistics; the row comes from the next
    # sniffer, by probe id, that has them.
    probes = (sim.Probe(id="a", position=Position(0.0, 0.0), role="dl"),
              sim.Probe(id="b", position=Position(0.0, 0.0)))
    ctx = pl.run_pipeline(_scenario((_static_ue(60.0),), probes=probes,
                                    noise=ZERO), out_dir=tmp_path)
    assert all(list(view.legs) == ["a", "b"] for view in ctx.views)
    b_rows = {row["conn"]: row for row in _csv_rows(tmp_path / "stats.csv")
              if row["probe"] == "b"}
    rows = _csv_rows(tmp_path / "connection_stats.csv")
    assert len(rows) == len(ctx.views) == len(b_rows) >= 2
    for row in rows:
        assert row["n_measurements"] == b_rows[row["conn_id"]]["n_meas"]


def test_numpy_scalars_are_written_as_plain_digits(tmp_path):
    path = tmp_path / "row.csv"
    rows = [(np.float64(1.5), np.int64(-7), np.float64(1e-7))]
    pl._write_csv(path, ("a", "b", "c"), rows)
    assert path.read_text() == "a,b,c\n1.5,-7,1e-07\n"


def _file_writes(tree):
    """Line of each call in ``tree`` that opens a file to write it.

    ``open`` is a write unless its mode is a string literal without
    ``w``, ``a``, ``x`` or ``+``: the builtin and ``os.open`` take the
    mode second, a ``Path.open`` first. ``write_text`` and
    ``write_bytes`` are writes.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            at = int(isinstance(func.value, ast.Name)
                     and func.value.id == "os")
        else:
            name, at = getattr(func, "id", None), 1
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        if name != "open":
            continue
        modes = [kw.value for kw in node.keywords
                 if kw.arg in ("mode", "flags")] + node.args[at:at + 1]
        if modes and not (isinstance(modes[0], ast.Constant)
                          and isinstance(modes[0].value, str)
                          and not set(modes[0].value) & set("wax+")):
            yield node.lineno


def test_only_pipeline_and_cli_write_files():
    # pipeline writes every artifact and cli the file of ``cdf --out``;
    # the tracker, the extractor and the probe hold data only.
    src = Path(pl.__file__).parent
    writes = {path.name: list(_file_writes(ast.parse(path.read_text(
        encoding="utf-8")))) for path in sorted(src.glob("*.py"))}
    writers = {name for name, lines in writes.items() if lines}
    assert writers <= {"pipeline.py", "cli.py"}, writes
    assert "pipeline.py" in writers  # the scan sees the artifact writers


def test_positions_csv_row_per_connection(tmp_path):
    for name, probes, range_only in (
            ("colocated", None, "1"),         # no bearing from one site
            ("triangle", TRIANGLE_PROBES, "0")):  # a full 2-D fix
        scn = _scenario((_static_ue(60.0),), probes=probes, noise=ZERO)
        ctx = pl.run_pipeline(scn, out_dir=tmp_path / name)
        with open(tmp_path / name / "positions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:4] == ["conn", "rnti", "start_ps", "tmsi"]
        assert len(rows) == len(ctx.views)
        assert all(row["x_m"] for row in rows)
        assert {row["offset_m"] for row in rows} == {""}  # no offset solve
        assert {row["range_only"] for row in rows} == {range_only}
        if range_only == "1":
            assert {row["y_m"] for row in rows} == {"0.0"}


def test_colocated_views_match_the_iterative_range():
    # The direct range of every replication view agrees with where LM
    # settles on the same loci, started 0.5 m from the centre and off the
    # +x axis on which the direct path places its fix.
    ctx = pl.run_pipeline(sim.load_scenario(REPLICATION))
    assert len(ctx.views) == 180
    for view in ctx.views:
        est = view.estimate
        assert est.range_only
        pk = geometry._pack(geometry._rows(view.loci))
        centre = pk.a[0]
        ok, _, x, _ = geometry._levenberg_marquardt(
            pk, centre + np.array([0.0, 0.5]), geometry._MAX_ITER)
        assert ok, view.conn_id
        rho = est.position.x - centre[0]
        assert abs(rho - np.hypot(*(x - centre))) < 2e-3, view.conn_id


def test_one_sniffer_crowd_views_all_get_a_position():
    # One off-site sniffer and the TA ring: a mirror pair of crossings.
    # From a start on the foci axis, LM creeps along the shallow crossing
    # until max_iter and leaves the view without an estimate.
    from perfbench import workloads
    for seed in range(3):
        layout = workloads.crowd(seed)
        layout["probes"] = layout["probes"][:1]
        ctx = pl.run_pipeline(sim.scenario_from_dict(layout))
        assert ctx.views
        assert all(view.estimate is not None for view in ctx.views), seed


def test_empirical_cdf_values():
    assert pl.empirical_cdf([5.0]) == [(5.0, 1.0)]
    assert pl.empirical_cdf([3.0, 1.0, 2.0]) == [
        (1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
        (3.0, pytest.approx(1.0))]
    with pytest.raises(ValueError):
        pl.empirical_cdf([])


def test_tracer_wraps_every_stage_and_solver(tmp_path):
    # The benchmark wraps these functions from outside the package by
    # swapping module attributes; a stage or solver called through a
    # reference the tracer cannot reach would drop out of its spans.
    from perfbench import tracing
    for _, module, path in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pl.run_pipeline(_scenario((_static_ue(60.0),), noise=ZERO),
                        out_dir=tmp_path)
    finally:
        tracer.uninstall()
    calls = {name: stats.calls for name, stats in tracer.stats().items()}
    for name in [f"stage.{s}" for s in pl.STAGES] + ["stage.write",
                                                     "geometry.solve"]:
        assert calls.get(name, 0) >= 1, name


# -- golden artifact digests -------------------------------------------------

def _digest_tool():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", root / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _golden_scenario():
    """Two sniffers, a moving phone, TA resends, lost grants, the attack."""
    moving = sim.UeProfile(
        model="iPhone 7", waypoints=((0, Position(300.0, 80.0)),
                                     (2 * 10**12, Position(700.0, -40.0))),
        reconnect_rate=60.0, n_data_rounds=60, ta_interval=8)
    service = _static_ue(150.0, 120.0, reconnect_rate=60.0,
                         connection_type="service", tmsi=0xB0000002)
    return _scenario((moving, service), probes=TRIANGLE_PROBES[:2],
                     duration_s=2, seed=17,
                     faults=sim.FaultModel(ta_resend_prob=0.3,
                                           grant_loss_prob=0.1),
                     attack=sim.AttackConfig(enabled=True))


#: Digest of each artifact, by seed/file, recorded at a41b51f;
#: connection_stats.csv and trackdb.jsonl re-recorded when the journal
#: dropped the measurement copy.
GOLDEN_REPLICATION = {
    "11/connection_stats.csv":
        "655334a25d7c7427a52b336e0d32d367a21dd69308afcaacd568b1a19668ce04",
    "11/errors.csv":
        "116e0ab78ef3a19cb74840ca0bd9b3c6f64312ba6e703d7ed6c8ff67063a922e",
    "11/events_probe0.jsonl":
        "409437f6aa4e408e281f057c28237d5334546586da377055000d7514a3e8b851",
    "11/extracted_pairs.json":
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    "11/extraction.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "11/ground_truth.csv":
        "aa799cfec2fe1a9429b8d281b6ca3d08c39f35a59b5c340488015eb6f5132c3d",
    "11/measurements_probe0.csv":
        "8a7a8594284245d7db937f5ee44bbb43bd3916862af92481e6a6d1dffd9e2151",
    "11/positions.csv":
        "cdb98329360c020cf1054a1fc0fec90f5cacd557d451f2aec164faf678dc38bb",
    "11/stats.csv":
        "5ef97569eec4290f44f462721a753d0247ace51e06e62adbcaf1a50a496ad3e5",
    "11/summary.csv":
        "a72ea447bc59e48fad9cd4d9b88673c74e0191beae9f54354b09a9d3cb58fe66",
    "11/traces.csv":
        "1b3936b8c1fa940c78e534856a507e74dd9b535770b30ed913ca620391beb647",
    "11/trackdb.jsonl":
        "860d2ffe1f06fa0b10f55b82a2c5c8bdf2429e6c7a9307612952d4f85008233b",
}
GOLDEN_SMALL = {
    "17/connection_stats.csv":
        "1827a52594df720a419148110f0735e4de46ab154ef797ed61bc5243bf37f9a0",
    "17/errors.csv":
        "0734f5f15be0bacfe3fa9623bc5663d0cf00246a9f6aa476c1c77257d0ee4a29",
    "17/events_p0.jsonl":
        "9adff4f1bd344931e01c16575bb504dfd468d7ea7cae739151794fb87748d774",
    "17/events_p1.jsonl":
        "9a32d3b664ce24795d5f273a44349d2547d21455eb978f62bfafb66f8e4ed2a5",
    "17/extracted_pairs.json":
        "12cc6f56f417a858e26fb846f24e79ea74d04de0c16a64dd9590b0d0d930936f",
    "17/extraction.jsonl":
        "2652eaf82e2f2f5d80ec4b3ec67607bef37dd1c21ea0d920c82d9f968b14d194",
    "17/ground_truth.csv":
        "b3dba3f3840aec53ee8a0c5983972ecbb277bf790ac4b897e413156d49e2a027",
    "17/measurements_p0.csv":
        "c1ea820bfa2a4427e96d34f4922e226921ded30d4cc3da6f84d8947f006f65c8",
    "17/measurements_p1.csv":
        "17e652c4aaed54d7536595ff8b1ea3a94f943dbba0bd7fbbc9e6bfb29f87fe4e",
    "17/positions.csv":
        "3a8e88544a2ff88c18e8fd19a26fd9e459119b2d8867408d22bde77050730952",
    "17/stats.csv":
        "4c0bfdb86c060f575e1ca595a35afd76dfdedc8c34cfc29979d36c193c81e8f1",
    "17/summary.csv":
        "38e9bf9e029c301a66db636cdbe40acc5f60068c1162f7d2c1f52814f7a57cd8",
    "17/traces.csv":
        "693d137dbc98b06bc2f6835360fc6618c6a4afbef681456cdf32f84c46d713fe",
    "17/trackdb.jsonl":
        "9932708e4c4797d68db6e995b3972ade2e4a0a6535224961dd972b01cdd2829a",
}


def _golden_offset_scenario():
    """The small scenario on three sniffers with the random-offset
    countermeasure on, so every view takes the offset solve."""
    return replace(_golden_scenario(), probes=TRIANGLE_PROBES,
                   countermeasure=sim.Countermeasure(
                       mode="random_offset", max_offset_ps=400_000))


#: Digest of each artifact, by seed/file, recorded at 381edb2;
#: connection_stats.csv and trackdb.jsonl re-recorded when the journal
#: dropped the measurement copy.
GOLDEN_OFFSET = {
    "17/connection_stats.csv":
        "177f8b98d6bfe2513c368f76b781445097d365d4d00b2e6445d380910e87b32f",
    "17/errors.csv":
        "1988f15f31a93182c43fa918fd7fa60758d27aad268b68a7cd0cfca11e1ab19b",
    "17/events_p0.jsonl":
        "cdd875fcb00623dfbbb4e1aa5d3b5296a7fc0b22af2b7145df81b738238fff73",
    "17/events_p1.jsonl":
        "fe34c1b58aa290d11d1de8516912383b9e54cd9cc054fc74be43c125de5393c7",
    "17/events_p2.jsonl":
        "d63a9d88432a820d0135ec17ecab9c5273842614df973d09c46413b06f10010e",
    "17/extracted_pairs.json":
        "12cc6f56f417a858e26fb846f24e79ea74d04de0c16a64dd9590b0d0d930936f",
    "17/extraction.jsonl":
        "2652eaf82e2f2f5d80ec4b3ec67607bef37dd1c21ea0d920c82d9f968b14d194",
    "17/ground_truth.csv":
        "6aa484b5ed1cf5ada609542203eaa2b7918185896a19d1084a5bc20545c28e02",
    "17/measurements_p0.csv":
        "6be722ab1d5a245a3fac7782e3a4df1f27f9830e4a8a5e8274136c9ad8d92533",
    "17/measurements_p1.csv":
        "8abb33e7db1e3d0b095a494ae204f70365b8e6b22bcb6ae74d1e0e135f9db077",
    "17/measurements_p2.csv":
        "e09aadde44f7e349133d411f6ae7e1ad0412735cbfbd8a51b325c17ca8d4298e",
    "17/positions.csv":
        "ab307cc875f15fe801cc277754868e4f2d1f1f13e625e9d0ec99e2bba6159bb1",
    "17/stats.csv":
        "e1cd335a5dbe3cc278cfa2757c31ba97f9969e1ef0073a6091952dee96ce9a44",
    "17/summary.csv":
        "524d490e7accd551c865bab6a5261ac4ac9790133ebc19d24673fec859c5d80a",
    "17/traces.csv":
        "1d1880080f94f730ef56c03053a00ef8487b738c549ca83dcabd89198848b771",
    "17/trackdb.jsonl":
        "08cdb37d998a36a22603bf4a2b02a9cc0ee6d59efca20f525742f0ab4d702719",
}


def test_artifacts_match_their_golden_digests():
    """Every artifact, byte for byte, as the recorded digests say.

    A change that alters any artifact on purpose updates these digests
    (``tools/artifact_digests.py`` prints them) and gives the reason in
    CHANGES.md; a change that should keep the artifacts leaves them as
    they are. The small scenario exercises what replication does not:
    two sniffers, motion, TA resends, lost grants and the attack. The
    offset scenario pins ``multilaterate_with_offset``.
    """
    tool = _digest_tool()
    for scenario, golden in ((sim.load_scenario(REPLICATION),
                              GOLDEN_REPLICATION),
                             (_golden_scenario(), GOLDEN_SMALL),
                             (_golden_offset_scenario(), GOLDEN_OFFSET)):
        lines = tool.digest_lines(scenario)
        assert {path: digest for digest, path in
                (line.split("  ") for line in lines)} == golden


#: Digest of each artifact of the benchmark's crowd and drive layouts at
#: seed 0 (``workload_digest_lines``), recorded at 1a27ded.
GOLDEN_CROWD = {
    "0/connection_stats.csv":
        "ee9bfc34f298df458e84f4a2055a59f3efe1c38f9e258f23a1b0f263ca6681a3",
    "0/errors.csv":
        "558842825e77471a7f572726752865541dae5236506e99eafd486b2cb4588b00",
    "0/events_probe0.jsonl":
        "c2950d86ca0328133342f8d27a1f0f369d236278e9938dd85de68128b4509010",
    "0/events_probe1.jsonl":
        "37c837b1c01ab50acaab829291286d1ee0041ceeadfd3c56d203de0801e81484",
    "0/events_probe2.jsonl":
        "15cce472a475c675c3d51d9494ede88c56989a27832cf4f7c4c57136389f67ac",
    "0/extracted_pairs.json":
        "f51e81de4a1eece7a0a26e017f1a0c1d0f46698ef8515f38c2ef52022682bee6",
    "0/extraction.jsonl":
        "eaf7184411cad0e165239726eb414eb73c33f7789f11e8a9ea3d4bef00b46086",
    "0/ground_truth.csv":
        "67fc70ed60d7f9a1265e5d515e78048bb925c2583cbeedc5ace611743afc6cc0",
    "0/measurements_probe0.csv":
        "061fa0fe423aea92fe629a80f4d58c70a4c0e4a33a5667f4207da05d2daebe30",
    "0/measurements_probe1.csv":
        "fb7c3bcdd9894ce025a152af3744f8a700a8c820b7ba1a4880f688aa73ab9a17",
    "0/measurements_probe2.csv":
        "c830cbe17c7bd3f13d5346bcf2e2fa4a38c06c15a0a675eb89dd4c6e77b155a1",
    "0/positions.csv":
        "9958e773f08bb1ff29ff52fa5b7642950b30ac1c5c0b223034b11d957532db4e",
    "0/stats.csv":
        "65e09f0d01079cb5a6ff09f2dcde24504a97a5cca6d8234e573e3f395bc00c26",
    "0/summary.csv":
        "38269a03c6608b6f86c33e21ac680aa361c4f762cf05c4a5aae4fc41a2153014",
    "0/traces.csv":
        "ba27d555ddcc52f790ebb24eb27c0b97532de024bb7fbf68a3286548b7e3689e",
    "0/trackdb.jsonl":
        "b830156f84535f8bc14c0e67263e00c84965b7a1baa54c96bae1e7a56f2e0fd0",
}
GOLDEN_DRIVE = {
    "0/connection_stats.csv":
        "62ae2c040967d3693b7c8fea89e13b747f5573c05b8524991eab0d7a6ef29c70",
    "0/errors.csv":
        "bb7026e0ce81d2590c0354ddd72321577d9f799c6070c7f352fe387b8eb3af2b",
    "0/events_probe0.jsonl":
        "94e3c2a61bb41b57466a229ba42a4523012c9e71770078596ca427284893006f",
    "0/extracted_pairs.json":
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    "0/extraction.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "0/ground_truth.csv":
        "f188ed699e117e8bb499eb4bf184214b252c56889de620c27da0569491a3aed4",
    "0/measurements_probe0.csv":
        "60aa1718380ffe39026895c222442befe373f210cdcf0fd45f8932bcaff9370a",
    "0/positions.csv":
        "0bd1370bdd901062ecc04336baf64d7f9d16cc1de194be7fcb2064976ff0d498",
    "0/stats.csv":
        "8134da73217f6184e9191f45550c021c535988b3f31aea78bb1bb36af603d9b6",
    "0/summary.csv":
        "547dd73c9ef02d15d0ddd5d10e25ffd59a6c59fd333ecbabeb72b2b31867255f",
    "0/traces.csv":
        "056b41351b8be3e15706b8a65069702c335b1fc303b98683fb764fc73e912bc2",
    "0/trackdb.jsonl":
        "e0ac2d6a7d22973402eba6d297a35e73d97337953951a3102eba8da56bb0165c",
}


@pytest.mark.parametrize("workload, golden", [
    pytest.param("crowd", GOLDEN_CROWD, id="crowd"),
    pytest.param("drive", GOLDEN_DRIVE, id="drive"),
])
def test_benchmark_layouts_match_their_golden_digests(workload, golden):
    """The benchmark's crowd and drive layouts at seed 0, byte for byte:
    three off-site sniffers with the extractor on, and long connections
    with TA resends and lost grants."""
    lines = _digest_tool().workload_digest_lines(workload, [0])
    assert {path: digest for digest, path in
            (line.split("  ") for line in lines)} == golden


def test_codec_carries_exactly_what_the_simulator_sends():
    kinds = set()
    for reject in (False, True):
        scn = _golden_scenario()
        scn = replace(scn, attack=replace(scn.attack,
                                          use_service_reject=reject))
        kinds |= {type(e.message) for events in sim.run(scn).events.values()
                  for e in events if e.message is not None}
    assert kinds == set(messages._CODECS)


def test_digest_tool_runs_a_benchmark_workload_layout(capsys, monkeypatch):
    # --workload makes each run's scenario from the perfbench layout with
    # the run seed as the layout seed, so no scenario file is needed.
    tool = _digest_tool()
    assert tool.main(["--workload", "drive", "--seed", "3",
                      "--stages", "simulate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench import workloads
    scenario = sim.scenario_from_dict(workloads.drive(3))
    assert scenario.seed == 3
    assert lines == tool.digest_lines(scenario, stages=("simulate",))
    assert [line.split("  ")[1] for line in lines] == [
        "3/events_probe0.jsonl", "3/ground_truth.csv"]
