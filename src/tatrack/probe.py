"""Passive sniffer state: connection tracking and ToA measurement.

Two receive chains feed one table: the downlink carrier provides the
eNodeB's subframe timeline (and the control messages that schedule
uplink traffic), the uplink carrier provides arrival times of the UE
transmissions. A Measurement fuses both: the arrival time of an uplink
burst, the transmission instant of its subframe recovered from the
downlink, and the timing advance in force at that moment.

Uplink bursts are associated to connections through one index of
outstanding grants keyed by resource-block allocation: a random access
response or DCI format 0 writes its allocation, and an uplink burst on
that allocation takes the entry. Should a second grant reuse an
allocation that is still pending, the newer grant replaces the older.
Grants and unacknowledged TA commands expire 8 subframes after issue,
counted from the newest subframe seen on either carrier, so a late stamp
cannot bring an expired grant back. Unmatched bursts are counted and
dropped, mirroring a sniffer that cannot decode unscheduled traffic.

Events and measurements are flat named tuples: an event's subframe
stamp (frame, subframe, receive time, carrier) comes first, followed by
what was decoded, and a measurement carries the frame and subframe of
its burst. ``ConnectionTable.ingest`` unpacks each event once,
range-checks its stamp, dispatches on the carrier and message type, sets
``start_ps`` to the t_n of a RAR's subframe and notes each decoded uplink.
It compares a carrier by value and refuses one it does not know.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .messages import (Ack, AttachRequest, CapabilityVector, DciFormat0,
                       IdentityResponse, Imsi, MacTaCommand, Message,
                       RandomAccessResponse, Rnti, RrcConnectionRequest,
                       ServiceRequest, Tmsi, rnti_of_rar)
from .timebase import (PS_PER_SUBFRAME, TA_MAX, TA_SPAN_PS, Instant, Span,
                       TaIndex)

#: Subframes in one radio-frame numbering period (1024 frames x 10).
SUBFRAME_PERIOD = 10_240

#: Unused grants and unacknowledged TA commands vanish after this many
#: subframes.
EXPIRY_SUBFRAMES = 8

_DOWNLINK, _UPLINK = "downlink", "uplink"  # globals: read once per event


class Carrier:
    """The two receive chains, as the strings the event logs carry."""

    DOWNLINK = _DOWNLINK
    UPLINK = _UPLINK


class ProbeEvent(NamedTuple):
    """One received item: its subframe stamp plus whatever was decodable.

    ``frame``, ``subframe``, ``rx_time`` and ``carrier`` stamp the item.
    ``message`` is None for uplink data bursts the probe cannot decode but
    can still time. ``rb_alloc`` carries the allocation an uplink burst
    rode on; ``rnti`` the addressee of downlink control (or the inferred
    sender of an uplink Ack).
    """

    frame: int
    subframe: int
    rx_time: Instant
    carrier: str
    message: Optional[Message] = None
    rb_alloc: Optional[int] = None
    rnti: Optional[Rnti] = None


class Measurement(NamedTuple):
    frame: int
    subframe: int
    toa: Instant
    t_n: Instant
    d_ta: Span
    sum_delay: Span


@dataclass
class ConnectionRecord:
    rnti: Rnti
    start_ps: Instant  # t_n of the subframe that carried its RAR
    tmsi: Optional[Tmsi] = None
    tmsi_is_random: bool = False
    ta_current: TaIndex = 0
    measurements: list[Measurement] = field(default_factory=list)
    capabilities: Optional[CapabilityVector] = None
    observed_imsi: Optional[str] = None
    had_service_request: bool = False
    # (adjust, issued subframe) of each TA command awaiting an Ack.
    _pending_tas: list[tuple[int, int]] = field(default_factory=list)


class ConnectionTable:
    """Single-writer per-probe state; a pure function of the event stream."""

    def __init__(self, d_dlprobe_ps: Span = 0, ack_gating: bool = True):
        if d_dlprobe_ps < 0:  # t_n is a downlink's rx less this delay
            raise ValueError("downlink probe delay must be >= 0")
        self.d_dlprobe_ps = d_dlprobe_ps
        self.ack_gating = ack_gating
        self.records: list[ConnectionRecord] = []
        self.by_rnti: dict[int, ConnectionRecord] = {}
        self.dropped_uplinks = 0
        self._cursor: Optional[tuple[int, int]] = None  # (raw idx, abs idx)
        # rb_alloc -> (record, issued subframe) of the newest grant on it.
        self._grants: dict[int, tuple[ConnectionRecord, int]] = {}
        # t_n of absolute subframe 0, as the newest downlink places it. It
        # is set by the first downlink, which precedes every grant.
        self._tn_origin: Optional[Instant] = None

    # -- ingestion -------------------------------------------------------------

    def ingest(self, event: ProbeEvent) -> list[Measurement]:
        """Feed one event; returns measurements it produced (0 or 1)."""
        frame, subframe, rx_time, carrier, msg, rb_alloc, rnti = event
        # Stamps built outside the simulator enter here: check their range.
        if not (0 <= frame <= 1023 and 0 <= subframe <= 9):
            raise ValueError(f"frame {frame} outside [0, 1023] or "
                             f"subframe {subframe} outside [0, 9]")
        downlink = carrier == _DOWNLINK  # by value: logs give copies
        if not downlink and carrier != _UPLINK:
            raise ValueError(f"carrier {carrier!r} is not downlink or uplink")
        # Unwrap the subframe counter, tolerating slight cross-carrier skew.
        raw = frame * 10 + subframe
        if self._cursor is None:
            self._cursor = (raw, raw)
            abs_idx = raw
        else:
            prev_raw, abs_idx = self._cursor
            delta = (raw - prev_raw) % SUBFRAME_PERIOD
            if delta >= SUBFRAME_PERIOD - 64:
                delta -= SUBFRAME_PERIOD  # a stamp arriving marginally late
            abs_idx += delta
            if delta > 0:
                self._cursor = (raw, abs_idx)
        kind = type(msg)

        if downlink:
            # Subframe n was sent at t_n = origin + n ms.
            t_n = rx_time - self.d_dlprobe_ps
            self._tn_origin = t_n - abs_idx * PS_PER_SUBFRAME
            if kind is RandomAccessResponse:
                rnti = rnti_of_rar(msg)
                rec = ConnectionRecord(rnti=rnti, start_ps=t_n,
                                       ta_current=msg.ta)
                self._grants[msg.grant.rb_alloc] = (rec, abs_idx)
                self.records.append(rec)
                # A reused RNTI replaces the old record, whose grants and TA
                # commands can then no longer match.
                self.by_rnti[rnti.value] = rec
            elif kind is DciFormat0:
                rec = self.by_rnti.get(msg.rnti.value)
                if rec is not None:
                    self._grants[msg.rb_alloc] = (rec, abs_idx)
            elif kind is MacTaCommand and rnti is not None:
                rec = self.by_rnti.get(rnti.value)
                if rec is not None and self.ack_gating:
                    rec._pending_tas.append((msg.adjust, abs_idx))
                elif rec is not None:
                    self._apply_ta(rec, msg.adjust)
            return []

        # Grants and TA commands issued before this subframe have expired.
        live_from = self._cursor[1] - EXPIRY_SUBFRAMES
        if kind is Ack:
            rec = self.by_rnti.get(rnti.value) if rnti is not None else None
            if rec is not None:
                rec._pending_tas = [p for p in rec._pending_tas
                                    if p[1] >= live_from]
                if rec._pending_tas:
                    adjust, _ = rec._pending_tas.pop(0)
                    self._apply_ta(rec, adjust)
            return []

        rec, issued_idx = self._grants.pop(rb_alloc, (None, 0))
        if (rec is None or issued_idx < live_from
                or self.by_rnti[rec.rnti.value] is not rec):
            self.dropped_uplinks += 1
            return []
        if msg is not None:  # a decoded uplink: note what it tells
            if kind is RrcConnectionRequest:
                rec.tmsi, rec.tmsi_is_random = msg.tmsi, msg.is_random
            elif kind is ServiceRequest:
                rec.tmsi, rec.had_service_request = msg.tmsi, True
            elif kind is AttachRequest:
                rec.capabilities = msg.capabilities
                if type(msg.id) is Imsi:
                    rec.observed_imsi = msg.id.digits
                else:
                    rec.tmsi = msg.id
            elif kind is IdentityResponse:
                rec.observed_imsi = msg.imsi.digits
        t_n = self._tn_origin + abs_idx * PS_PER_SUBFRAME
        d_ta = TA_SPAN_PS[rec.ta_current]  # clamped or checked on entry
        meas = tuple.__new__(Measurement, (frame, subframe, rx_time, t_n,
                                           d_ta, rx_time - t_n + d_ta))
        rec.measurements.append(meas)
        return [meas]

    def _apply_ta(self, rec: ConnectionRecord, adjust: int) -> None:
        rec.ta_current = max(0, min(rec.ta_current + adjust, TA_MAX))
