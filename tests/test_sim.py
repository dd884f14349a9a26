"""End-to-end checks of the radio-environment simulator.

Each test drives the event generator with a small scenario and feeds the
emitted traces through the real probe decoder, so sim and probe are held
to the same timing contract rather than to each other's internals.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from tatrack import sim
from tatrack import timebase as tb
from tatrack.fingerprint import FingerprintDb, hw_error
from tatrack.geometry import Position
from tatrack.probe import Carrier, ConnectionTable

ZERO_NOISE = sim.NoiseModel(toa_sigma_ps=0, hw_bias=False)


def _scenario(ues, *, probes=None, duration_s=3, seed=5, **kw):
    return sim.Scenario(
        enbs=(sim.Enb("enb0", Position(0.0, 0.0)),),
        probes=probes or (sim.Probe("probe0", Position(0.0, 0.0)),),
        ues=tuple(ues),
        duration_ps=duration_s * 10**12,
        seed=seed,
        **kw,
    )


def _static_ue(distance_m, model="Huawei P30", **kw):
    return sim.UeProfile(model=model,
                         waypoints=((0, Position(distance_m, 0.0)),), **kw)


def _measure(result, probe_id="probe0", ack_gating=False):
    table = ConnectionTable(ack_gating=ack_gating)
    out = []
    for event in result.events[probe_id]:
        out.extend(table.ingest(event))
    return out


def _errors_ps(result, measurements):
    """Measured-minus-true propagation sum, matched on subframe start."""
    truth = {row.t_n_ps: row for row in result.ground_truth}
    return [(m.t_n, m.sum_delay - truth[m.t_n].sum_true_ps)
            for m in measurements]


# -- noiseless corridor --------------------------------------------------------

def test_colocated_noiseless_distance_within_a_millimetre():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    meas = _measure(result)
    assert meas
    for m in meas:
        distance = tb.ps_to_m(m.sum_delay) / 2
        assert abs(distance - 60.0) < 1e-3


def test_noiseless_measurements_match_ground_truth_exactly():
    scn = _scenario([_static_ue(437.5)], noise=ZERO_NOISE)
    result = sim.run(scn)
    errors = _errors_ps(result, _measure(result))
    assert errors
    assert all(err == 0 for _, err in errors)


def test_ground_truth_covers_every_measurement():
    scn = _scenario([_static_ue(120.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    truth_keys = {row.t_n_ps for row in result.ground_truth}
    meas = _measure(result)
    assert meas and all(m.t_n in truth_keys for m in meas)


# -- determinism and causality -------------------------------------------------

def _event_blob(result, probe_id="probe0"):
    return "\n".join(repr(e) for e in result.events[probe_id])


def test_identical_seeds_give_identical_event_logs():
    scn = _scenario([_static_ue(250.0)],
                    noise=sim.NoiseModel(toa_sigma_ps=25_000, hw_bias=True))
    assert _event_blob(sim.run(scn)) == _event_blob(sim.run(scn))


def test_different_seeds_change_noisy_timing():
    noisy = sim.NoiseModel(toa_sigma_ps=25_000, hw_bias=True)
    a = sim.run(_scenario([_static_ue(250.0)], seed=5, noise=noisy))
    b = sim.run(_scenario([_static_ue(250.0)], seed=6, noise=noisy))
    assert _event_blob(a) != _event_blob(b)


def test_downlink_never_precedes_its_subframe_start():
    scn = _scenario([_static_ue(800.0)],
                    noise=sim.NoiseModel(toa_sigma_ps=25_000, hw_bias=True))
    result = sim.run(scn)
    checked = 0
    for event in result.events["probe0"]:
        if event.stamp.carrier is not Carrier.DOWNLINK:
            continue
        start = tb.subframe_start(event.stamp.frame * 10 + event.stamp.subframe)
        assert event.stamp.rx_time >= start
        checked += 1
    assert checked


def test_uplink_lands_within_quantization_of_subframe_start():
    # Timing advance aims each uplink at the eNodeB subframe boundary, so
    # the miss is bounded by half a command step plus receiver noise.
    sigma = 25_000
    scn = _scenario([_static_ue(800.0)],
                    noise=sim.NoiseModel(toa_sigma_ps=sigma, hw_bias=True))
    result = sim.run(scn)
    bound = tb.ta_span(1) // 2 + 6 * sigma
    checked = 0
    for event in result.events["probe0"]:
        if event.stamp.carrier is not Carrier.UPLINK:
            continue
        start = tb.subframe_start(event.stamp.frame * 10 + event.stamp.subframe)
        assert abs(event.stamp.rx_time - start) <= bound
        checked += 1
    assert checked


def test_events_sorted_by_reception_time_per_carrier():
    scn = _scenario([_static_ue(300.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    by_carrier = {}
    for event in result.events["probe0"]:
        by_carrier.setdefault(event.stamp.carrier, []).append(
            event.stamp.rx_time)
    for times in by_carrier.values():
        assert times == sorted(times)


# -- hardware bias -------------------------------------------------------------

def test_hw_bias_shifts_sum_by_twice_the_model_error():
    scn = _scenario([_static_ue(60.0)],
                    noise=sim.NoiseModel(toa_sigma_ps=0, hw_bias=True))
    result = sim.run(scn)
    errors = {err for _, err in _errors_ps(result, _measure(result))}
    expected = tb.m_to_ps(2 * hw_error("Huawei P30", FingerprintDb.default()))
    assert errors == {expected}


def test_ground_truth_reports_tx_extra_separately():
    scn = _scenario([_static_ue(60.0)],
                    noise=sim.NoiseModel(toa_sigma_ps=0, hw_bias=True))
    result = sim.run(scn)
    expected = tb.m_to_ps(2 * hw_error("Huawei P30", FingerprintDb.default()))
    assert {row.tx_extra_ps for row in result.ground_truth} == {expected}
    d_true = tb.m_to_ps(60.0)
    assert {row.sum_true_ps for row in result.ground_truth} == {2 * d_true}


# -- transmission-delay countermeasure -----------------------------------------

def test_countermeasure_offset_appears_verbatim_in_sum_error():
    scn = _scenario(
        [_static_ue(60.0)], noise=ZERO_NOISE,
        countermeasure=sim.Countermeasure(mode="random_offset",
                                          max_offset_ps=1_000_000))
    result = sim.run(scn)
    offsets = {c.conn_id: c.cm_offset_ps for c in result.connections}
    truth = {row.t_n_ps: row for row in result.ground_truth}
    meas = _measure(result)
    assert meas
    for m in meas:
        row = truth[m.t_n]
        assert 0 <= offsets[row.conn_id] <= 1_000_000
        assert m.sum_delay - row.sum_true_ps == offsets[row.conn_id]


def test_one_microsecond_offset_inflates_distance_150m():
    scn = _scenario(
        [_static_ue(60.0)], noise=ZERO_NOISE,
        countermeasure=sim.Countermeasure(mode="random_offset",
                                          max_offset_ps=1_000_000))
    result = sim.run(scn)
    truth = {row.t_n_ps: row for row in result.ground_truth}
    for m in _measure(result):
        offset = m.sum_delay - truth[m.t_n].sum_true_ps
        apparent = tb.ps_to_m(m.sum_delay) / 2
        predicted_err = tb.ps_to_m(offset) / 2
        assert math.isclose(apparent - 60.0, predicted_err, abs_tol=1e-3)
        assert predicted_err <= 149.9


# -- timing-advance maintenance ------------------------------------------------

def _oscillating_ue(lo=600.0, hi=680.0, period_s=1, total_s=40):
    waypoints = [(k * period_s * 10**12,
                  Position(hi if k % 2 else lo, 0.0))
                 for k in range(total_s // period_s + 1)]
    return sim.UeProfile(model="Huawei P30", waypoints=tuple(waypoints),
                         reconnect_rate=1.0, n_data_rounds=9000,
                         ta_interval=32)


def test_moving_ue_triggers_ta_commands():
    scn = _scenario([_oscillating_ue()], duration_s=40, seed=11,
                    noise=ZERO_NOISE)
    result = sim.run(scn)
    assert result.connections[0].n_ta_commands > 10


def test_ack_gated_probe_is_exact_through_ta_churn_and_resends():
    scn = _scenario([_oscillating_ue()], duration_s=40, seed=11,
                    noise=ZERO_NOISE,
                    faults=sim.FaultModel(ta_resend_prob=0.1))
    result = sim.run(scn)
    assert result.connections[0].ta_resend_sfs
    errors = _errors_ps(result, _measure(result, ack_gating=True))
    assert len(errors) > 1000
    assert all(err == 0 for _, err in errors)


def test_ungated_probe_double_applies_resent_ta_commands():
    scn = _scenario([_oscillating_ue()], duration_s=40, seed=11,
                    noise=ZERO_NOISE,
                    faults=sim.FaultModel(ta_resend_prob=0.1))
    result = sim.run(scn)
    info = result.connections[0]
    errors = _errors_ps(result, _measure(result, ack_gating=False))
    one_step = tb.ta_span(1) - tb.ta_span(0)
    nonzero = [err for _, err in errors if err != 0]
    assert nonzero
    # Every discrepancy is a whole number of command steps (one step from
    # the double-applied resend, briefly two while a later command is in
    # flight between the probe seeing it and the handset applying it).
    for err in nonzero:
        assert 0 < abs(err) <= 2 * one_step + 2
        assert abs(err) % one_step in (0, 1, one_step - 1)
    resend_t = tb.subframe_start(info.ta_resend_sfs[0])
    tail = [err for t_n, err in errors
            if t_n > resend_t + 10 * tb.PS_PER_SUBFRAME]
    assert len(tail) > 100
    # The offset persists: only in-flight command windows can mask it, one
    # measurement apiece, and it is still present at the very end.
    assert sum(1 for err in tail if err == 0) <= info.n_ta_commands
    assert tail[-1] != 0


def test_ungated_probe_is_exact_when_no_resends_happen():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    errors = _errors_ps(result, _measure(result, ack_gating=False))
    assert errors and all(err == 0 for _, err in errors)


# -- identity-request attack ---------------------------------------------------

def test_attach_flow_yields_tmsi_imsi_pair():
    scn = _scenario([_static_ue(60.0, model="iPhone 7")], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    assert result.attacker_pairs
    tmsi, imsi = next(iter(result.attacker_pairs.items()))
    assert imsi.startswith("00101")
    lines = [json.loads(line) for line in result.extraction.dump_lines()]
    assert any(rec.get("imsi") == imsi for rec in lines)
    assert all(rec["outcome"] == "replaced" for rec in lines)


def test_service_flow_without_identity_answer_yields_nothing():
    ue = _static_ue(60.0, model="iPhone 7",
                    connection_type="service",
                    answers_identity_after_service_request=False)
    scn = _scenario([ue], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    assert result.attacker_pairs == {}


def test_service_flow_with_identity_answer_yields_pair():
    ue = _static_ue(60.0, model="Huawei P30", connection_type="service")
    scn = _scenario([ue], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    assert len(result.attacker_pairs) == 1


def test_known_tmsi_not_reengaged_under_unknown_only_policy():
    ue = _static_ue(60.0, tmsi=0xBEEF0001)
    scn = _scenario([ue], duration_s=5, noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True,
                                            policy_mode="unknown_tmsi_only"))
    result = sim.run(scn)
    assert len(result.connections) >= 2
    lines = [json.loads(line) for line in result.extraction.dump_lines()]
    injected = {rec["t_ps"] for rec in lines}
    first_end = tb.subframe_start(result.connections[0].end_sf)
    assert injected and all(t <= first_end for t in injected)
    assert len(result.attacker_pairs) == 1


def test_suppression_keeps_identity_from_the_network():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    assert result.attacker_pairs


def test_weak_attacker_fails_to_overshadow():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True,
                                            power_margin_db=1.0))
    result = sim.run(scn)
    assert result.attacker_pairs == {}
    lines = [json.loads(line) for line in result.extraction.dump_lines()]
    assert lines and all(rec["outcome"] == "original_kept" for rec in lines)


def test_attack_off_leaves_no_extraction_artifacts():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    assert result.attacker_pairs == {}
    assert list(result.extraction.dump_lines()) == []


# -- scenario validation and serialization --------------------------------------

def test_validate_rejects_unknown_model():
    scn = _scenario([_static_ue(60.0, model="Nokia 3310")])
    with pytest.raises(sim.ScenarioError, match="Nokia 3310"):
        sim.run(scn)


def test_validate_rejects_bad_probability():
    scn = _scenario([_static_ue(60.0)],
                    faults=sim.FaultModel(ta_resend_prob=1.5))
    with pytest.raises(sim.ScenarioError, match="probability"):
        sim.run(scn)


def test_validate_rejects_unordered_waypoints():
    ue = sim.UeProfile(model="Huawei P30",
                       waypoints=((10**12, Position(0.0, 0.0)),
                                  (0, Position(1.0, 0.0))))
    with pytest.raises(sim.ScenarioError, match="time-ordered"):
        sim.run(_scenario([ue]))


def test_validate_rejects_bad_probe_role():
    probes = (sim.Probe("p", Position(0.0, 0.0), role="sideways"),)
    with pytest.raises(sim.ScenarioError, match="role"):
        sim.run(_scenario([_static_ue(60.0)], probes=probes))


def test_validate_rejects_reconnect_faster_than_a_connection():
    ue = _static_ue(60.0, reconnect_rate=10_000.0)
    with pytest.raises(sim.ScenarioError, match="reconnect"):
        sim.run(_scenario([ue]))


def test_scenario_dict_round_trip():
    scn = _scenario(
        [_static_ue(60.0, tmsi=0xA000_BEEF, connection_type="service")],
        noise=sim.NoiseModel(toa_sigma_ps=12_345, hw_bias=False),
        faults=sim.FaultModel(ta_resend_prob=0.25),
        countermeasure=sim.Countermeasure(mode="random_offset",
                                          max_offset_ps=99),
        attack=sim.AttackConfig(enabled=True,
                                policy_mode="unknown_tmsi_only"))
    data = json.loads(json.dumps(sim.scenario_to_dict(scn)))
    assert sim.scenario_from_dict(data) == scn


def test_scenario_from_dict_reports_missing_keys():
    with pytest.raises(sim.ScenarioError, match="duration_ps"):
        sim.scenario_from_dict({"enbs": [], "probes": [], "ues": [],
                                "seed": 1})


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"enbs": [,]}', encoding="utf-8")
    with pytest.raises(sim.ScenarioError, match=r"line 1 column 11"):
        sim.load_scenario(path)


def test_calibration_tool_builds_the_shipped_replication_scenario():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "calibrate_sigma", root / "tools" / "calibrate_sigma.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shipped = sim.load_scenario(root / "scenarios" / "replication.json")
    assert tool.replication_scenario() == shipped


# -- multi-probe geometry --------------------------------------------------------

def test_each_probe_gets_its_own_ground_truth_rows():
    probes = (sim.Probe("pA", Position(0.0, 0.0)),
              sim.Probe("pB", Position(400.0, 0.0)))
    scn = _scenario([_static_ue(60.0)], probes=probes, noise=ZERO_NOISE)
    result = sim.run(scn)
    by_probe = {}
    for row in result.ground_truth:
        by_probe.setdefault(row.probe_id, set()).add(row.sum_true_ps)
    assert set(by_probe) == {"pA", "pB"}
    assert by_probe["pA"] == {2 * tb.m_to_ps(60.0)}
    assert by_probe["pB"] == {tb.m_to_ps(60.0) + tb.m_to_ps(340.0)}


def test_downlink_only_probe_times_but_never_measures():
    probes = (sim.Probe("dlonly", Position(0.0, 0.0), role="dl"),)
    scn = _scenario([_static_ue(60.0)], probes=probes, noise=ZERO_NOISE)
    result = sim.run(scn)
    assert result.events["dlonly"]
    assert not _measure(result, probe_id="dlonly")
    assert not result.ground_truth
