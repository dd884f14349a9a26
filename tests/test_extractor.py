"""State-machine traces for the identity-extraction logic."""

import json

import pytest

from tatrack import pipeline as pl
from tatrack.extractor import (EngagementPolicy, ExtractionLog,
                               ExtractorState, overshadow_outcome, step)
from tatrack.messages import (AttachRequest, CapabilityVector,
                              IdentityRequest, IdentityResponse, IdType, Imsi,
                              RrcConnectionRequest, RrcConnectionSetup,
                              ServiceReject, ServiceRequest, Tmsi)
from tatrack.timebase import DECODE_GATE_PS

TMSI = Tmsi(0x12345678)
IMSI = Imsi("001010000000017")
CAPS = CapabilityVector(bytes(32))


def _flow(*events, policy=None, state=None):
    """The final state and every message the machine chose to inject."""
    policy = policy or EngagementPolicy()
    state = state or ExtractorState(rnti=0x4A)
    injected = []
    for event in events:
        state, inject = step(state, event, policy)
        if inject is not None:
            injected.append(inject)
    return state, injected


def test_attach_flow_extracts_pair():
    state, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
        IdentityResponse(IMSI),
    )
    assert injected == [IdentityRequest(IdType.IMSI)]
    assert state.phase == "done"
    assert state.tmsi == TMSI.value
    assert state.imsi == IMSI.digits
    assert state.trigger == "attach"


def test_service_flow_without_response_records_nothing():
    # Some phones ignore an unauthenticated identity request after a
    # Service Request; the machine then simply never reaches done.
    state, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        ServiceRequest(TMSI),
    )
    assert injected == [IdentityRequest(IdType.IMSI)]
    assert state.phase == "identity_injected"
    assert state.trigger == "service"
    assert state.imsi is None


def test_known_tmsi_not_engaged():
    policy = EngagementPolicy(known_pairs={TMSI.value: IMSI.digits},
                              mode="unknown_tmsi_only")
    state, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
        policy=policy,
    )
    assert injected == []


def test_random_fill_in_value_always_engaged():
    policy = EngagementPolicy(known_pairs={TMSI.value: IMSI.digits},
                              mode="unknown_tmsi_only")
    _, injected = _flow(
        RrcConnectionRequest(TMSI, 0, is_random=True),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
        policy=policy,
    )
    assert injected == [IdentityRequest(IdType.IMSI)]


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError):
        EngagementPolicy(mode="everything")


def test_overshadow_threshold_model():
    assert overshadow_outcome(3.0, 0) == "replaced"
    assert overshadow_outcome(2.9, 0) == "original_kept"
    assert overshadow_outcome(10.0, 5_000_000) == "original_kept"
    assert overshadow_outcome(3.0, DECODE_GATE_PS - 1) == "replaced"
    assert overshadow_outcome(3.0, -DECODE_GATE_PS) == "original_kept"


def test_at_most_one_overshadow_per_connection():
    state, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
        AttachRequest(TMSI, CAPS),  # out of order; resets, then re-runs
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
    )
    assert len(injected) == 1
    assert state.injected


def test_out_of_order_resets_with_diagnostic():
    state, injected = _flow(IdentityResponse(IMSI))
    assert injected == []
    assert state.phase == "idle"
    assert state.diagnostics
    assert "out-of-order IdentityResponse" in state.diagnostics[0]


def test_fresh_connection_request_restarts_after_reset():
    state, _ = _flow(
        RrcConnectionRequest(TMSI, 0),
        AttachRequest(TMSI, CAPS),       # skipped Setup: reset
        RrcConnectionRequest(TMSI, 0),   # restart is accepted immediately
        RrcConnectionSetup(1),
    )
    assert state.phase == "setup_seen"
    assert any("out-of-order AttachRequest" in d for d in state.diagnostics)


def test_non_flow_messages_ignored():
    from tatrack.messages import Ack, MacTaCommand
    state = ExtractorState(rnti=0x4A)
    policy = EngagementPolicy()
    state, inject = step(state, Ack(0), policy)
    assert inject is None and state.phase == "idle"
    state, inject = step(state, MacTaCommand(2), policy)
    assert inject is None and state.diagnostics == ()


def test_service_reject_alternative_trigger():
    policy = EngagementPolicy(use_service_reject=True)
    state, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        ServiceRequest(TMSI),
        policy=policy,
    )
    assert injected == [ServiceReject(9)]
    assert state.phase == "idle"  # connection torn down, UE will re-attach

    # Attach engagements are unaffected by the switch.
    _, injected = _flow(
        RrcConnectionRequest(TMSI, 0),
        RrcConnectionSetup(1),
        AttachRequest(TMSI, CAPS),
        policy=policy,
    )
    assert injected == [IdentityRequest(IdType.IMSI)]


def test_extraction_log_lines(tmp_path):
    log = ExtractionLog()
    state = ExtractorState(rnti=0x4A, tmsi=TMSI.value, trigger="attach",
                           imsi=IMSI.digits)
    log.record(14 * 10**9, state, "replaced")
    pending = ExtractorState(rnti=0x4B, tmsi=0x22, trigger="service")
    log.record(15 * 10**9, pending, "original_kept")
    path = tmp_path / "extraction.jsonl"
    pl._write_jsonl(path, log.entries)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"t_ps": 14 * 10**9, "rnti": 0x4A, "tmsi": TMSI.value,
                     "trigger": "attach", "outcome": "replaced",
                     "imsi": IMSI.digits}
    second = json.loads(lines[1])
    assert "imsi" not in second
    assert second["outcome"] == "original_kept"


def test_log_dump_is_deterministic(tmp_path):
    log = ExtractionLog()
    state = ExtractorState(rnti=1, tmsi=2, trigger="attach", imsi=IMSI.digits)
    log.record(0, state, "replaced")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pl._write_jsonl(p1, log.entries)
    pl._write_jsonl(p2, log.entries)
    assert p1.read_bytes() == p2.read_bytes()
