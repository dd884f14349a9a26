"""End-to-end checks of the radio-environment simulator.

Each test drives the event generator with a small scenario and feeds the
emitted traces through the real probe decoder, so sim and probe are held
to the same timing contract rather than to each other's internals.
"""

import importlib.util
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tatrack import sim
from tatrack import timebase as tb
from tatrack.fingerprint import FingerprintDb, hw_error
from tatrack.geometry import Position
from tatrack.messages import DciFormat0, MacTaCommand
from tatrack.probe import Carrier, ConnectionTable

SHIPPED_SCENARIO = (Path(__file__).resolve().parent.parent
                    / "scenarios" / "replication.json")
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
        if event.carrier is not Carrier.DOWNLINK:
            continue
        start = ((event.frame * 10 + event.subframe)
                 * tb.PS_PER_SUBFRAME)
        assert event.rx_time >= start
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
        if event.carrier is not Carrier.UPLINK:
            continue
        start = ((event.frame * 10 + event.subframe)
                 * tb.PS_PER_SUBFRAME)
        assert abs(event.rx_time - start) <= bound
        checked += 1
    assert checked


def test_events_sorted_by_reception_time_per_carrier():
    scn = _scenario([_static_ue(300.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    by_carrier = {}
    for event in result.events["probe0"]:
        by_carrier.setdefault(event.carrier, []).append(
            event.rx_time)
    for times in by_carrier.values():
        assert times == sorted(times)


def _busy_scenario():
    """Three overlapping phones, three probe roles, faults and the attack."""
    def swinging(x0, period_s, **kw):
        waypoints = tuple((k * period_s * 10**12 // 2,
                           Position(x0 + (100.0 if k % 2 else 0.0), 40.0))
                          for k in range(6))
        return sim.UeProfile(model="Huawei P30", waypoints=waypoints,
                             reconnect_rate=20.0, n_data_rounds=400,
                             ta_interval=8, **kw)

    probes = (sim.Probe("both", Position(0.0, 0.0)),
              sim.Probe("dl", Position(200.0, 50.0), role="dl"),
              sim.Probe("ul", Position(-150.0, 300.0), role="ul"))
    ues = [swinging(500.0, 1), swinging(620.0, 2),
           swinging(300.0, 1, connection_type="service", tmsi=0xB0000001)]
    return _scenario(ues, probes=probes, duration_s=3, seed=13,
                     faults=sim.FaultModel(ta_resend_prob=0.5,
                                           grant_loss_prob=0.2),
                     attack=sim.AttackConfig(enabled=True))


def test_each_stream_is_ordered_by_subframe_then_downlink_first():
    result = sim.run(_busy_scenario())
    spans = sorted((c.start_sf, c.end_sf) for c in result.connections)
    assert len({c.ue_index for c in result.connections}) == 3
    assert all(b[0] < a[1] for a, b in zip(spans, spans[1:]))  # overlap
    assert any(c.ta_resend_sfs for c in result.connections)
    assert result.attacker_pairs
    both = result.events["both"]
    granted = {e.message.rb_alloc for e in both
               if type(e.message) is DciFormat0}
    used = {e.rb_alloc for e in both if e.carrier is Carrier.UPLINK}
    assert granted - used  # some grants were lost
    for probe_id, carriers in (("both", {Carrier.DOWNLINK, Carrier.UPLINK}),
                               ("dl", {Carrier.DOWNLINK}),
                               ("ul", {Carrier.UPLINK})):
        events = result.events[probe_id]
        assert {e.carrier for e in events} == carriers
        abs_sf, prev = None, None
        for event in events:
            raw = event.frame * 10 + event.subframe
            if abs_sf is None:
                abs_sf = raw
            else:
                step = (raw - prev.frame * 10 - prev.subframe) % 10_240
                assert step < 5_120, "unwrapped subframe went backwards"
                abs_sf += step
                if step == 0:
                    assert not (prev.carrier is Carrier.UPLINK
                                and event.carrier is Carrier.DOWNLINK)
            prev = event
        assert abs_sf > 1_600


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
    resend_t = info.ta_resend_sfs[0] * tb.PS_PER_SUBFRAME
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


# -- data rounds -----------------------------------------------------------------

def test_data_rounds_place_the_phone_as_position_at_does():
    # Every uplink (msg3, NAS, identity response, data round, Ack) and
    # every TA check reads the phone's waypoints through one cached
    # segment, read again only when a time falls outside it. The walker's
    # connections start before its first waypoint, cross two waypoints
    # (and a jump, two waypoints at one instant) mid-connection, and run
    # past the last one; rounds land exactly on the first and the last
    # waypoint's time.
    sf = tb.PS_PER_SUBFRAME
    walker = sim.UeProfile(
        model="Huawei P30", reconnect_rate=120.0, n_data_rounds=100,
        ta_interval=8,
        waypoints=((210 * sf, Position(350.0, -120.0)),
                   (610 * sf, Position(520.5, 40.25)),
                   (610 * sf, Position(480.0, 90.0)),
                   (702 * sf, Position(610.0, 10.0)),
                   (1210 * sf, Position(300.0, 300.0))))
    # Reads also go back in time: a TA check at a slot comes after the
    # data round at slot + 2, and a round at slot + 6 after the Ack of a
    # resent command at slot + 12. The jumper's first connection (start
    # 27) has a TA check at its first waypoint's time, 77, where it still
    # stands at its first point and so commands nothing. It turns at 102,
    # between the round at 99 and the Ack at 105 of its command at slot 93.
    jumper = replace(walker, waypoints=((77 * sf, Position(200.0, 0.0)),
                                        (77 * sf, Position(3000.0, 0.0)),
                                        (102 * sf, Position(3100.0, 0.0)),
                                        (300 * sf, Position(3100.0, 800.0))))
    probes = (sim.Probe("p0", Position(0.0, 0.0)),
              sim.Probe("p1", Position(250.0, -80.0)))
    scn = _scenario([walker, jumper], probes=probes, duration_s=3, seed=3,
                    faults=sim.FaultModel(ta_resend_prob=0.5,
                                          grant_loss_prob=0.2),
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    conns = [c for c in result.connections if c.ue_index == 0]
    starts = [c.start_sf for c in conns]
    assert starts[:3] == [10, 510, 1010]
    assert any(c.ta_resend_sfs for c in conns)
    rows = [row for row in result.ground_truth if row.ue_index == 0]
    times = {row.t_n_ps for row in rows}
    # msg3, NAS and the identity response, then the data rounds.
    assert {(s + 18) * sf for s in starts} <= times
    rounds = len(starts) * (3 + walker.n_data_rounds)
    assert len(rows) < len(probes) * rounds  # some grants were lost
    assert {210 * sf, 1210 * sf} <= times
    assert min(times) < 210 * sf and max(times) > 1210 * sf
    assert any(610 * sf < t < 702 * sf for t in times)

    first = next(c for c in result.connections if c.ue_index == 1)
    assert first.start_sf == 27 and 93 + 8 in first.ta_resend_sfs
    commands = {10 * e.frame + e.subframe for e in result.events["p0"]
                if isinstance(e.message, MacTaCommand)
                and e.rnti.value == first.rnti}
    assert min(commands) > 77  # no TA change while it stands
    at = {p.id: p.position for p in probes}
    for row in result.ground_truth:
        x, y = scn.ues[row.ue_index].position_at(row.t_n_ps)
        assert (row.x_m, row.y_m) == (x, y)
        assert row.d_ue_ps == tb.m_to_ps(math.hypot(x, y))
        probe = at[row.probe_id]
        assert row.d_probe_ps == tb.m_to_ps(math.hypot(x - probe.x,
                                                       y - probe.y))


# -- identity-request attack ---------------------------------------------------

def test_attach_flow_yields_tmsi_imsi_pair():
    scn = _scenario([_static_ue(60.0, model="iPhone 7")], noise=ZERO_NOISE,
                    attack=sim.AttackConfig(enabled=True))
    result = sim.run(scn)
    assert result.attacker_pairs
    tmsi, imsi = next(iter(result.attacker_pairs.items()))
    assert imsi.startswith("00101")
    lines = result.extraction.entries
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
    lines = result.extraction.entries
    injected = {rec["t_ps"] for rec in lines}
    first_end = result.connections[0].end_sf * tb.PS_PER_SUBFRAME
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
    lines = result.extraction.entries
    assert lines and all(rec["outcome"] == "original_kept" for rec in lines)


def test_attack_off_leaves_no_extraction_artifacts():
    scn = _scenario([_static_ue(60.0)], noise=ZERO_NOISE)
    result = sim.run(scn)
    assert result.attacker_pairs == {}
    assert result.extraction.entries == []


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


@pytest.mark.parametrize("field, ue, scenario", [
    ("imsi", {"imsi": "12345"}, {}),
    ("imsi", {"imsi": 12345}, {}),
    ("tmsi", {"tmsi": 2**32}, {}),
    ("n_data_rounds", {"n_data_rounds": -3}, {}),
    ("ta_interval", {"ta_interval": -7}, {}),
    ("max_offset_ps", {}, {"countermeasure": sim.Countermeasure(
        mode="random_offset", max_offset_ps=2**70)}),
    ("probe0", {}, {"probes": (sim.Probe("probe0", Position(0.0, 0.0)),
                               sim.Probe("probe0", Position(90.0, 0.0)))}),
    ("p/0", {}, {"probes": (sim.Probe("p/0", Position(0.0, 0.0)),)}),
], ids=["short_imsi", "int_imsi", "tmsi_over_32_bits", "negative_rounds",
        "negative_ta_interval", "offset_over_int64", "duplicate_probe_id",
        "probe_id_names_no_file"])
def test_validate_rejects_values_the_simulator_cannot_encode(field, ue,
                                                             scenario):
    with pytest.raises(sim.ScenarioError, match=field):
        sim.run(_scenario([_static_ue(60.0, **ue)], **scenario))


def test_validate_refuses_non_finite_numbers_by_field():
    # The loader refuses them in a file; a scenario built in Python is
    # refused as well, instead of failing deep in the simulator or running
    # without noise.
    base = _scenario([_static_ue(60.0)])
    ue = base.ues[0]
    cases = {
        "enbs[0].position[0]": replace(
            base, enbs=(sim.Enb("enb0", Position(math.nan, 0.0)),)),
        "probes[0].position[1]": replace(
            base, probes=(sim.Probe("probe0", Position(0.0, math.inf)),)),
        "ues[0].waypoints[0][1][0]": replace(base, ues=(replace(
            ue, waypoints=((0, Position(-math.inf, 0.0)),)),)),
        "ues[0].reconnect_rate": replace(
            base, ues=(replace(ue, reconnect_rate=math.nan),)),
        "attack.power_margin_db": replace(
            base, attack=sim.AttackConfig(enabled=True,
                                          power_margin_db=math.nan)),
    }
    for field, scn in cases.items():
        with pytest.raises(sim.ScenarioError,
                           match=re.escape(field) + " must be a finite"):
            sim.run(scn)
    # toa_sigma_ps is an integer field, and a NaN is no integer.
    with pytest.raises(sim.ScenarioError,
                       match=r"noise\.toa_sigma_ps must be an integer"):
        sim.run(replace(base, noise=sim.NoiseModel(toa_sigma_ps=math.nan)))


def test_validate_rejects_reconnect_faster_than_a_connection():
    ue = _static_ue(60.0, reconnect_rate=10_000.0)
    with pytest.raises(sim.ScenarioError, match="reconnect"):
        sim.run(_scenario([ue]))


def test_validate_refuses_a_rate_whose_interval_overflows():
    # 60 000 / 1e-310 overflows to infinity, which has no subframe count.
    ue = _static_ue(60.0, reconnect_rate=1e-310)
    with pytest.raises(sim.ScenarioError,
                       match=re.escape("ues[0].reconnect_rate")):
        sim.run(_scenario([ue]))


def _third_ue(**kw):
    """A scenario whose third UE takes ``kw``, so refusals must index it."""
    return _scenario([_static_ue(60.0), _static_ue(90.0),
                      _static_ue(120.0, **kw)])


_NAMED_REFUSALS = [
    ("duration_ps must be positive",
     _scenario([_static_ue(60.0)], duration_s=0)),
    ("seed must be in", _scenario([_static_ue(60.0)], seed=-1)),
    ("noise.toa_sigma_ps must be >= 0",
     _scenario([_static_ue(60.0)], noise=sim.NoiseModel(toa_sigma_ps=-1))),
    ("faults.grant_loss_prob must be a probability", _scenario(
        [_static_ue(60.0)], faults=sim.FaultModel(grant_loss_prob=1.5))),
    ("countermeasure.max_offset_ps must be in", _scenario(
        [_static_ue(60.0)], countermeasure=sim.Countermeasure(
            mode="random_offset", max_offset_ps=-1))),
    ("probes[1].id must be", _scenario(
        [_static_ue(60.0)], probes=(sim.Probe("p0", Position(0.0, 0.0)),
                                    sim.Probe("p0", Position(9.0, 0.0))))),
    ("ues[2].model must be a known UE model", _third_ue(model="Nokia 3310")),
    ("ues[2].waypoints must be a non-empty list", replace(
        _third_ue(), ues=_third_ue().ues[:2] + (
            sim.UeProfile(model="Huawei P30", waypoints=()),))),
    ("ues[2].reconnect_rate must be positive",
     _third_ue(reconnect_rate=0.0)),
    ("ues[2].imsi must be 15 decimal digits", _third_ue(imsi="12345")),
    ("ues[2].tmsi must be in", _third_ue(tmsi=2**32)),
    ("ues[2].n_data_rounds must be >= 0", _third_ue(n_data_rounds=-3)),
    ("ues[2].ta_interval must be >= 0", _third_ue(ta_interval=-7)),
]


@pytest.mark.parametrize(
    "start, scn", _NAMED_REFUSALS,
    ids=[start.split()[0] for start, _ in _NAMED_REFUSALS])
def test_each_value_refusal_starts_with_its_field(start, scn):
    with pytest.raises(sim.ScenarioError) as refusal:
        sim.run(scn)
    assert str(refusal.value).startswith(start)


_BASE = _scenario([_static_ue(60.0)])


@pytest.mark.parametrize("scn", [
    _scenario([_static_ue(60.0, n_data_rounds=2.5)]),
    _scenario([_static_ue(60.0, n_data_rounds=np.int64(12))]),
    replace(_BASE, duration_ps=3e12),
    replace(_BASE, noise=sim.NoiseModel(toa_sigma_ps=70_000.5)),
    replace(_BASE, noise=sim.NoiseModel(hw_bias=1)),
    replace(_BASE, probes=(sim.Probe("probe0", Position(0.0, 0.0),
                                     role="x"),)),
    _scenario([_static_ue(60.0, connection_type="x")]),
    replace(_BASE, countermeasure=sim.Countermeasure(mode="x")),
    replace(_BASE, attack=sim.AttackConfig(policy_mode="x")),
    _scenario([_static_ue(60.0, reconnect_rate=math.nan)]),
], ids=["float_rounds", "numpy_rounds", "float_duration", "float_sigma",
        "int_hw_bias", "role", "connection_type", "countermeasure_mode",
        "policy_mode", "nan_rate"])
def test_python_built_and_loaded_scenarios_are_refused_alike(scn):
    with pytest.raises(sim.ScenarioError) as built:
        scn.validate(FingerprintDb.default())
    with pytest.raises(sim.ScenarioError) as loaded:
        sim.scenario_from_dict(sim.scenario_to_dict(scn))
    assert str(built.value) == str(loaded.value)


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
    shipped = json.loads(SHIPPED_SCENARIO.read_text(encoding="utf-8"))
    assert sim.scenario_to_dict(sim.load_scenario(SHIPPED_SCENARIO)) == shipped


def test_scenario_from_dict_reports_missing_keys():
    with pytest.raises(sim.ScenarioError, match="duration_ps"):
        sim.scenario_from_dict({"enbs": [], "probes": [], "ues": [],
                                "seed": 1})


def _nodes(node, path=()):
    """(path, value) of ``node`` and of everything inside it."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=5)


_DB = FingerprintDb.default()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scenario_loader_returns_a_scenario_or_refuses_by_name(data):
    scenario = json.loads(SHIPPED_SCENARIO.read_text(encoding="utf-8"))
    nodes = list(_nodes(scenario))

    def parent(path):
        node = scenario
        for key in path[:-1]:
            node = node[key]
        return node

    mutation = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if mutation == "replace":
        path, old = data.draw(st.sampled_from(
            [(p, v) for p, v in nodes
             if not isinstance(v, (dict, list))]))
        parent(path)[path[-1]] = data.draw(
            _JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    elif mutation == "delete":
        path = data.draw(st.sampled_from(
            [p for p, _ in nodes if p and isinstance(p[-1], str)]))
        del parent(path)[path[-1]]
    else:
        obj = data.draw(st.sampled_from(
            [v for _, v in nodes if isinstance(v, dict)]))
        key = data.draw(st.text(max_size=6).filter(lambda k: k not in obj))
        obj[key] = data.draw(_JSON_VALUES)
        path = (key,)
    try:  # a scenario that loads is then run or refused, nothing else
        sim.scenario_from_dict(scenario).validate(_DB)
    except sim.ScenarioError as exc:
        # The refusal names the innermost key on the mutated path.
        assert [k for k in path if isinstance(k, str)][-1] in str(exc)


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"enbs": [,]}', encoding="utf-8")
    with pytest.raises(sim.ScenarioError, match=r"line 1 column 11"):
        sim.load_scenario(path)


def test_calibration_tool_builds_the_shipped_replication_scenario(tmp_path):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "calibrate_sigma", root / "tools" / "calibrate_sigma.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shipped_path = root / "scenarios" / "replication.json"
    assert tool.replication_scenario() == sim.load_scenario(shipped_path)
    # The shipped file is the tool's output, byte for byte.
    written = tmp_path / "replication.json"
    assert tool.main(["--write-scenario", str(written)]) == 0
    assert written.read_bytes() == shipped_path.read_bytes()


# -- time-of-arrival noise -------------------------------------------------------

def _scalar_noise(seed, probe_index, sigma_ps, n):
    rng = np.random.Generator(np.random.Philox(key=[seed, 1000 + probe_index]))
    return [round(rng.normal(0.0, sigma_ps)) for _ in range(n)]


def test_block_noise_matches_scalar_draws():
    # Two full blocks and part of a third: two block boundaries crossed.
    n = 2 * sim._DRAW_BLOCK + 1_000
    blocks = sim._toa_noise(9, 1002, 70_000)
    assert [next(blocks) for _ in range(n)] == _scalar_noise(9, 2, 70_000, n)


def test_block_fault_uniforms_match_scalar_draws():
    n = 2 * sim._DRAW_BLOCK + 1_000
    blocks = sim._fault_uniforms(9)
    rng = np.random.Generator(np.random.Philox(key=[9, sim._STREAM_FAULTS]))
    assert [next(blocks) for _ in range(n)] == [rng.random() for _ in range(n)]


def _uplink_rx(result, probe_id):
    return [e.rx_time for e in result.events[probe_id]
            if e.carrier is Carrier.UPLINK]


def test_each_uplink_probe_draws_from_its_own_stream(monkeypatch):
    # The noise on every uplink a probe hears is the next scalar draw from
    # Philox key [seed, 1000 + probe index]; a downlink-only probe, even
    # one listed first, reads no stream.
    drawn = []
    block_noise = sim._toa_noise

    def recording(seed, stream, sigma_ps):
        for value in block_noise(seed, stream, sigma_ps):
            drawn.append(stream)
            yield value

    monkeypatch.setattr(sim, "_toa_noise", recording)
    probes = (sim.Probe("dl", Position(0.0, 0.0), role="dl"),
              sim.Probe("both", Position(0.0, 0.0)),
              sim.Probe("ul", Position(300.0, 0.0), role="ul"))
    # One phone, so the uplinks are heard in the order they were drawn.
    ues = [_static_ue(60.0, reconnect_rate=120.0)]
    noisy, exact = (
        sim.run(_scenario(ues, probes=probes, duration_s=10, seed=21,
                          noise=sim.NoiseModel(toa_sigma_ps=sigma)))
        for sigma in (70_000, 0))
    assert 1000 not in drawn
    for index, probe_id in ((1, "both"), (2, "ul")):
        rx, rx_exact = _uplink_rx(noisy, probe_id), _uplink_rx(exact, probe_id)
        assert drawn.count(1000 + index) == len(rx) > 100
        noise = [a - b for a, b in zip(rx, rx_exact)]
        assert noise == _scalar_noise(21, index, 70_000, len(rx))


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
