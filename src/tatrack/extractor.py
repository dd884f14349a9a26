"""Identity-extraction state machine driven by decoded connection traffic.

Watches one RRC connection at a time and decides when to inject an
IdentityRequest over the legitimate downlink while suppressing the uplink
grant that would carry the real response to the network.  Injection success
is a threshold model over power margin and subframe alignment; whether a
given phone answers the unauthenticated request at all is scenario data,
not logic that lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from .messages import (AttachRequest, IdentityRequest, IdentityResponse,
                       IdType, Message, RrcConnectionRequest,
                       RrcConnectionSetup, ServiceReject, ServiceRequest)
from .timebase import DECODE_GATE_PS

OVERSHADOW_MARGIN_DB = 3.0

# Service Reject with this cause forces the phone to restart with a fresh
# Attach, which is the flow that always carries an identity.
CAUSE_ID_UNDERIVABLE = 9

MODE_ALL = "all"
MODE_UNKNOWN_ONLY = "unknown_tmsi_only"
POLICY_MODES = (MODE_ALL, MODE_UNKNOWN_ONLY)


@dataclass(frozen=True)
class Overshadow:
    """Transmit `message` on top of the legitimate downlink."""

    message: Message


@dataclass(frozen=True)
class SuppressUplinkGrant:
    """Withhold the grant so the network never hears the response."""


@dataclass(frozen=True)
class RecordPair:
    tmsi: int
    imsi: str


Action = Union[Overshadow, SuppressUplinkGrant, RecordPair]


@dataclass(frozen=True)
class EngagementPolicy:
    """Decides which connections are worth injecting into.

    `known_pairs` maps TMSI values to already-confirmed IMSIs; in
    unknown_tmsi_only mode those connections are left alone.
    """

    known_pairs: Mapping[int, str] = field(default_factory=dict)
    mode: str = MODE_ALL

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(f"unknown policy mode {self.mode!r}")

    def should_engage(self, tmsi: Optional[int], is_random: bool) -> bool:
        if self.mode == MODE_ALL or is_random or tmsi is None:
            return True
        return tmsi not in self.known_pairs


PHASE_IDLE = "idle"
PHASE_CONN_REQUEST = "saw_conn_request"
PHASE_SETUP_SEEN = "setup_seen"
PHASE_INJECTED = "identity_injected"
PHASE_DONE = "done"

_EXPECTED = {
    PHASE_IDLE: (RrcConnectionRequest,),
    PHASE_CONN_REQUEST: (RrcConnectionSetup,),
    PHASE_SETUP_SEEN: (AttachRequest, ServiceRequest),
    PHASE_INJECTED: (IdentityResponse,),
    PHASE_DONE: (),
}

_FLOW_TYPES = (RrcConnectionRequest, RrcConnectionSetup, AttachRequest,
               ServiceRequest, IdentityResponse)


@dataclass(frozen=True)
class ExtractorState:
    rnti: int
    phase: str = PHASE_IDLE
    tmsi: Optional[int] = None
    tmsi_is_random: bool = False
    imsi: Optional[str] = None
    injected: bool = False
    trigger: Optional[str] = None
    diagnostics: tuple = ()


def _reset(state: ExtractorState, note: str) -> ExtractorState:
    return ExtractorState(rnti=state.rnti, injected=state.injected,
                          diagnostics=state.diagnostics + (note,))


def step(state: ExtractorState, event: Message,
         policy: EngagementPolicy, *, use_service_reject: bool = False,
         ) -> tuple[ExtractorState, list[Action]]:
    """Advance one connection's machine by one observed message.

    With ``use_service_reject``, a Service Request is answered with a
    cause-9 Service Reject instead of an Identity Request, forcing a
    re-attach.
    """
    if not isinstance(event, _FLOW_TYPES):
        return state, []

    if not isinstance(event, _EXPECTED[state.phase]):
        note = (f"out-of-order {type(event).__name__} "
                f"in phase {state.phase}")
        state = _reset(state, note)
        if not isinstance(event, RrcConnectionRequest):
            return state, []
        # A fresh connection request restarts the flow cleanly.

    if isinstance(event, RrcConnectionRequest):
        return replace(state, phase=PHASE_CONN_REQUEST,
                       tmsi=event.tmsi.value,
                       tmsi_is_random=event.is_random), []

    if isinstance(event, RrcConnectionSetup):
        return replace(state, phase=PHASE_SETUP_SEEN), []

    if isinstance(event, (AttachRequest, ServiceRequest)):
        engage = policy.should_engage(state.tmsi, state.tmsi_is_random)
        if not engage or state.injected:
            return replace(state, phase=PHASE_SETUP_SEEN), []
        trigger = "attach" if isinstance(event, AttachRequest) else "service"
        if trigger == "service" and use_service_reject:
            # The reject tears the connection down; the re-attach arrives
            # as a brand-new flow, so this machine returns to idle.
            actions: list[Action] = [
                Overshadow(ServiceReject(CAUSE_ID_UNDERIVABLE)),
                SuppressUplinkGrant(),
            ]
            return replace(_reset(state, "service rejected for re-attach"),
                           injected=True, trigger=trigger), actions
        actions = [Overshadow(IdentityRequest(IdType.IMSI)),
                   SuppressUplinkGrant()]
        return replace(state, phase=PHASE_INJECTED, injected=True,
                       trigger=trigger), actions

    assert isinstance(event, IdentityResponse)
    imsi = event.imsi.digits
    done = replace(state, phase=PHASE_DONE, imsi=imsi)
    return done, [RecordPair(tmsi=state.tmsi, imsi=imsi)]


def overshadow_outcome(margin_db: float, alignment_error_ps: int) -> str:
    """Threshold capture model: enough power and tight enough timing."""
    if margin_db >= OVERSHADOW_MARGIN_DB and \
            abs(alignment_error_ps) < DECODE_GATE_PS:
        return "replaced"
    return "original_kept"


@dataclass
class ExtractionLog:
    """Injection attempts and their results; ``pipeline`` writes them."""

    entries: list = field(default_factory=list)

    def record(self, t_ps: int, state: ExtractorState, outcome: str) -> None:
        entry = {
            "t_ps": t_ps,
            "rnti": state.rnti,
            "tmsi": state.tmsi,
            "trigger": state.trigger,
            "outcome": outcome,
        }
        if state.imsi is not None:
            entry["imsi"] = state.imsi
        self.entries.append(entry)
