"""Deterministic scenario engine producing ground-truth radio traffic.

Generates the event streams a passive sniffer would capture: downlink
control and NAS messages with exact propagation-delay timestamps, and
uplink bursts whose arrival times follow from the UE's position, its
timing advance, a per-model transmit bias, and optional countermeasure
offsets.  Every random choice comes from a counter-based generator keyed
by (scenario seed, stream id), so identical scenarios replay bit-exactly
and per-entity streams stay independent.

Each sniffer's stream is ordered by subframe, then downlink before
uplink, then emission order. Its events are kept in one list in emission
order, each one's key (twice its subframe plus its carrier's rank) in a
parallel int64 array, and one stable sort of the keys orders the list
once every connection has run. Each event is one flat
``probe.ProbeEvent``. A connection emits all of its events, data rounds
included, through one emitter per carrier: one for downlink and one for
uplink, which also writes each measured burst's ground-truth row. Both
read the phone's position through one cached waypoint piece.

The injected-identity attack, when enabled, is driven by the real
state machine from the extractor module; its downlink transmissions are
emitted from the serving eNodeB's position, an overshadowing
idealization that keeps the sniffer's subframe anchor exact.

The scenario dataclasses are the scenario file format: each field is a
JSON key, and its default applies when the key is absent. An ``int``
takes a JSON integer only (not ``12.0``, not ``true``), a ``float`` any
finite number, a ``bool`` or ``str`` its own type, a ``Literal`` one of
its strings, an ``Optional`` field also ``null``, and a Position an
``[x, y]`` list. A missing, unknown or mistyped key is a ScenarioError
that names it. ``Scenario.validate`` runs the same decoder on the
scenario's encoding, so a scenario built in Python is held to these
rules too, then checks the values, naming each field by the same path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import reprlib
import sys
import typing
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from math import hypot
from operator import itemgetter
from typing import Literal, NamedTuple, Optional

import numpy as np

from . import extractor as ext
from .fingerprint import FingerprintDb, HwErrorUnavailable, hw_error
from .geometry import Position
from .messages import (Ack, AttachRequest, IdentityRequest, IdentityResponse,
                       Imsi, MacTaCommand, RandomAccessResponse, Rnti,
                       RrcConnectionRequest, RrcConnectionSetup,
                       ServiceRequest, Tmsi, UlGrant, dci_format0)
from .probe import Carrier, ProbeEvent
from .timebase import (DECODE_GATE_PS, PS_PER_SUBFRAME, TA_MAX, TA_SPAN_PS,
                       m_to_ps, quantize_ta)

#: Per-measurement uplink ToA jitter, pinned by the Monte-Carlo sweep in
#: tools/calibrate_sigma.py: with 14 sum-delay measurements per connection
#: reduced by their median, this lands per-connection 90th-percentile
#: distance errors at 5-6 m and medians near 2 m on the replication bench.
#: Equivalent to about 10.5 m of one-way distance at c.
DEFAULT_TOA_SIGMA_PS = 70_000

#: Streams of the counter-based generator, so entities never share draws.
_STREAM_FAULTS = 1
_STREAM_PROBE_BASE = 1_000
_STREAM_UE_BASE = 2_000

#: Draws fetched from a random stream at a time.
_DRAW_BLOCK = 4096

#: Every frame number, so that an event shares its frame's int instead of
#: boxing one of its own (CPython caches only the ints up to 256).
_FRAMES = tuple(range(1024))

_MSG3_OFFSET = 4  # subframes between a grant and the uplink it schedules
_ROUNDS_START = 16  # first data-round DCI, relative to connection start

#: A probe id, which names the probe's artifact files.
_PROBE_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")


class ScenarioError(ValueError):
    """A scenario file or object that cannot be simulated."""


@dataclass(frozen=True)
class Enb:
    id: str
    position: Position


@dataclass(frozen=True)
class Probe:
    id: str
    position: Position
    role: Literal["dl", "ul", "both"] = "both"

    def hears_downlink(self) -> bool:
        return self.role in ("dl", "both")

    def hears_uplink(self) -> bool:
        return self.role in ("ul", "both")


def _segment(points, t_ps: int) -> tuple:
    """``(t1, t0, a, b)``: the piece of a waypoint path that holds at every
    integer time from ``t_ps`` until before ``t1``.

    The phone moves from ``a`` at ``t0`` to ``b`` at ``t1``, or stands at
    ``a`` where ``b`` is None: up to the first waypoint's time at the
    first waypoint, and from the last one's on at the last.
    """
    first, last = points[0][0], points[-1][0]
    if t_ps <= first:
        return first + 1, first, points[0][1], None
    if t_ps >= last:
        return math.inf, last, points[-1][1], None
    i = bisect_right(points, t_ps, key=itemgetter(0)) - 1
    (t0, a), (t1, b) = points[i], points[i + 1]  # t0 <= t_ps < t1
    return t1, t0, a, b


@dataclass(frozen=True)
class UeProfile:
    """One device: identity, movement, and behavioral quirks."""

    model: str
    waypoints: tuple[tuple[int, Position], ...]  # time-ordered
    reconnect_rate: float = 30.0  # connections per minute
    answers_identity_after_service_request: bool = True
    imsi: Optional[str] = None
    tmsi: Optional[int] = None
    connection_type: Literal["attach", "service"] = "attach"
    n_data_rounds: int = 12
    # Subframes between TA maintenance checks, rounded up to a multiple of
    # 4 (1 -> 4, 5 -> 8); 0 = off. Checks run only before a data round, so
    # none runs after the last one, nor at all with n_data_rounds 0.
    ta_interval: int = 0

    def position_at(self, t_ps: int) -> tuple[float, float]:
        """(x, y) in metres, linear between the waypoints around ``t_ps``."""
        t1, t0, a, b = _segment(self.waypoints, t_ps)
        if b is None:
            return a.x, a.y
        w = (t_ps - t0) / (t1 - t0)
        return a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)


@dataclass(frozen=True)
class NoiseModel:
    toa_sigma_ps: int = DEFAULT_TOA_SIGMA_PS
    hw_bias: bool = True  # apply each model's transmit-timing bias


@dataclass(frozen=True)
class FaultModel:
    ta_resend_prob: float = 0.0
    grant_loss_prob: float = 0.0


@dataclass(frozen=True)
class Countermeasure:
    mode: Literal["off", "random_offset"] = "off"
    max_offset_ps: int = 0


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = False
    policy_mode: Literal[ext.POLICY_MODES] = ext.MODE_ALL
    use_service_reject: bool = False
    power_margin_db: float = 3.0
    alignment_error_ps: int = 0


@dataclass(frozen=True)
class Scenario:
    enbs: tuple[Enb, ...]
    probes: tuple[Probe, ...]
    ues: tuple[UeProfile, ...]
    duration_ps: int
    seed: int
    noise: NoiseModel = NoiseModel()
    faults: FaultModel = FaultModel()
    countermeasure: Countermeasure = Countermeasure()
    attack: AttackConfig = AttackConfig()

    def validate(self, db: FingerprintDb) -> None:
        """Refuse what the simulator cannot run: every type through the
        loader's decoder, then each value, named by the loader's path."""
        _decode(Scenario, _encode(self), "")
        if len(self.enbs) != 1:
            # The sniffer keeps one subframe timeline and localizes against
            # one eNodeB; traffic from a second cell would be placed wrong.
            raise _refusal("enbs", "one eNodeB, as one cell is supported",
                           [enb.id for enb in self.enbs])
        for name in ("probes", "ues"):
            if not getattr(self, name):
                raise _refusal(name, "a non-empty list", [])
        if self.duration_ps <= 0:
            raise _refusal("duration_ps", "positive", self.duration_ps)
        if not 0 <= self.seed < 2**64:
            raise _refusal("seed", "in [0, 2**64)", self.seed)
        if self.noise.toa_sigma_ps < 0:
            raise _refusal("noise.toa_sigma_ps", ">= 0",
                           self.noise.toa_sigma_ps)
        for name in ("ta_resend_prob", "grant_loss_prob"):
            if not 0.0 <= getattr(self.faults, name) <= 1.0:
                raise _refusal(f"faults.{name}", "a probability in [0, 1]",
                               getattr(self.faults, name))
        # The offset is meant to blur a phone's range by a few TA rings.
        # Cap it at the decode gate (4 us: 7.7 TA steps, 600 m of range),
        # which also keeps the simulator's draw of it within int64.
        if not 0 <= self.countermeasure.max_offset_ps <= DECODE_GATE_PS:
            raise _refusal("countermeasure.max_offset_ps",
                           f"in [0, {DECODE_GATE_PS}]",
                           self.countermeasure.max_offset_ps)
        ids = set()
        for i, probe in enumerate(self.probes):
            if not _PROBE_ID.fullmatch(probe.id) or probe.id in ids:
                raise _refusal(f"probes[{i}].id", "1-64 of [A-Za-z0-9._-] "
                               "and no other probe's id", probe.id)
            ids.add(probe.id)
        models, owners = {}, {}  # model of each IMSI, IMSI of each TMSI
        for i, ue in enumerate(self.ues):
            where = f"ues[{i}]"
            if ue.model not in db.entries:
                raise _refusal(f"{where}.model", "a known UE model", ue.model)
            if not ue.waypoints:
                raise _refusal(f"{where}.waypoints", "a non-empty list", [])
            times = [t for t, _ in ue.waypoints]
            if times != sorted(times):
                raise _refusal(f"{where}.waypoints", "time-ordered", times)
            rate = ue.reconnect_rate  # too small a rate overflows 1 / rate
            if not (rate > 0 and math.isfinite(60_000.0 / rate)):
                raise _refusal(f"{where}.reconnect_rate", "positive with a "
                               "finite reconnect interval", rate)
            for name, codec, rule in (("imsi", Imsi, "15 decimal digits"),
                                      ("tmsi", Tmsi, "in [0, 2**32)")):
                value = getattr(ue, name)
                try:  # the codec's identity types decide what each may hold
                    if value is not None:
                        codec(value)
                except ValueError:
                    raise _refusal(f"{where}.{name}", rule, value) from None
            # An IMSI names one phone, which entries may share (its attach
            # and its service connections, say); a TMSI names one IMSI.
            imsi, tmsi = _identity(ue, i)
            if models.setdefault(imsi, ue.model) != ue.model:
                raise _refusal(f"{where}.imsi", f"no other model's IMSI "
                               f"({models[imsi]}), defaults included", imsi)
            if owners.setdefault(tmsi, imsi) != imsi:
                raise _refusal(f"{where}.tmsi", f"no other IMSI's TMSI "
                               f"({owners[tmsi]}), defaults included", tmsi)
            for name in ("n_data_rounds", "ta_interval"):
                if getattr(ue, name) < 0:
                    raise _refusal(f"{where}.{name}", ">= 0",
                                   getattr(ue, name))
            span = _connection_span(ue)
            if _reconnect_interval(ue) <= span:
                raise _refusal(f"{where}.reconnect_rate", f"slower than one "
                               f"connection of n_data_rounds "
                               f"{ue.n_data_rounds} ({span} subframes)", rate)


class GroundTruthRow(NamedTuple):
    """Exact state behind one uplink burst as one probe received it."""

    conn_id: str
    ue_index: int
    model: str
    imsi: str
    probe_id: str
    abs_subframe: int
    t_n_ps: int
    x_m: float
    y_m: float
    d_ue_ps: int
    d_probe_ps: int
    sum_true_ps: int
    tx_extra_ps: int
    ta_ue: int


@dataclass
class ConnectionInfo:
    conn_id: str
    ue_index: int
    imsi: str
    tmsi: int
    rnti: int
    start_sf: int
    end_sf: int
    cm_offset_ps: int
    # Index into Scenario.enbs: always 0, as one cell is supported. The
    # benchmark's ground-truth join still reads it.
    cell_id: int = 0
    ta_resend_sfs: list = field(default_factory=list)
    n_ta_commands: int = 0


@dataclass
class SimResult:
    scenario: Scenario
    events: dict
    ground_truth: list
    extraction: ext.ExtractionLog
    connections: list
    attacker_pairs: dict


def _identity(ue: UeProfile, ue_index: int) -> tuple[str, int]:
    """The phone's IMSI and TMSI: its own, or defaults from its index."""
    imsi = ue.imsi or f"00101{ue_index:010d}"
    tmsi = ue.tmsi if ue.tmsi is not None else 0xA0000000 + ue_index
    return imsi, tmsi


def _reconnect_interval(ue: UeProfile) -> int:
    return max(1, round(60_000.0 / ue.reconnect_rate))  # subframes


def _connection_span(ue: UeProfile) -> int:
    return _ROUNDS_START + 4 * ue.n_data_rounds + 12


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One Philox stream, keyed by two exact uint64 words: numpy reads a
    list holding an int of 2**63 or more as float64, merging seeds."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _draws(seed: int, stream: int, draw):
    """Values of ``draw(rng, n)`` on one Philox stream, a block at a time.

    A block draw yields the same values as one scalar draw per value. The
    first ``next`` makes the first draw, so a stream that is never read
    (a probe that hears no uplink, a run without faults) stays unread.
    """
    rng = _rng(seed, stream)
    while True:
        yield from draw(rng, _DRAW_BLOCK).tolist()


def _toa_noise(seed: int, stream: int, sigma_ps: int):
    """Rounded N(0, sigma) ToA noise from one Philox stream."""
    return map(round, _draws(seed, stream,
                             lambda rng, n: rng.normal(0.0, sigma_ps, n)))


def _fault_uniforms(seed: int):
    """The U[0, 1) draws behind grant losses and TA resends, in call order."""
    return _draws(seed, _STREAM_FAULTS, np.random.Generator.random)


class _Allocator:
    """Run-wide unique RNTI and resource-block counters."""

    def __init__(self) -> None:
        self._rnti = 0
        self._rb = 0

    def rnti(self) -> Rnti:
        self._rnti += 1
        return Rnti(0x40 + (self._rnti % 60_000))

    def rbs(self, n: int) -> list:
        """The next ``n`` resource-block allocations."""
        first = self._rb + 1
        self._rb += n
        return [1 + (k % 60_000) for k in range(first, self._rb + 1)]


class _Run:
    def __init__(self, scenario: Scenario, db: FingerprintDb):
        self.scenario = scenario
        self.db = db
        self.alloc = _Allocator()
        self.ground_truth: list = []
        self.connections: list = []
        self.extraction = ext.ExtractionLog()
        self.attacker_pairs: dict = {}
        seed = scenario.seed
        self.faults = _fault_uniforms(seed)
        # Each probe's events in emission order and, at the same index,
        # each one's key: 2 * subframe + carrier rank (downlink 0, uplink 1).
        self.streams = {probe.id: ([], array("q"))
                        for probe in scenario.probes}
        # Fixed per run: (event append, key append, eNodeB-to-probe delay)
        # of each downlink listener and (id, event append, key append, x,
        # y, ToA noise) of each uplink one.
        enb = scenario.enbs[0]
        sigma = scenario.noise.toa_sigma_ps
        appends = {probe_id: (events.append, keys.append)
                   for probe_id, (events, keys) in self.streams.items()}
        self.dl_probes = tuple(
            (*appends[probe.id],
             m_to_ps(enb.position.distance_to(probe.position)))
            for probe in scenario.probes if probe.hears_downlink())
        self.ul_probes = tuple(
            (probe.id, *appends[probe.id], probe.position.x,
             probe.position.y,
             _toa_noise(seed, _STREAM_PROBE_BASE + i, sigma)
             if sigma > 0 else None)
            for i, probe in enumerate(scenario.probes)
            if probe.hears_uplink())
        self.rng_ue = [_rng(seed, _STREAM_UE_BASE + i)
                       for i in range(len(scenario.ues))]
        attack = scenario.attack
        self.policy = ext.EngagementPolicy(
            known_pairs=self.attacker_pairs, mode=attack.policy_mode,
            use_service_reject=attack.use_service_reject,
        ) if attack.enabled else None

    # -- one connection ------------------------------------------------------

    def run_connection(self, ue_index: int, conn_index: int,
                       start_sf: int) -> None:
        scn = self.scenario
        ue = scn.ues[ue_index]
        imsi, tmsi = _identity(ue, ue_index)
        conn_id = f"c{ue_index}-{conn_index}"

        tx_extra = 0
        if scn.noise.hw_bias:
            try:
                tx_extra += m_to_ps(2 * hw_error(ue.model, self.db))
            except HwErrorUnavailable:
                pass
        cm_offset = 0
        if scn.countermeasure.mode == "random_offset":
            cm_offset = int(self.rng_ue[ue_index].integers(
                0, scn.countermeasure.max_offset_ps + 1))
            tx_extra += cm_offset

        rnti = self.alloc.rnti()
        info = ConnectionInfo(conn_id=conn_id, ue_index=ue_index, imsi=imsi,
                              tmsi=tmsi, rnti=rnti.value, start_sf=start_sf,
                              end_sf=start_sf + _connection_span(ue),
                              cm_offset_ps=cm_offset)
        self.connections.append(info)

        enb = scn.enbs[0].position
        ex, ey = enb.x, enb.y
        points = ue.waypoints
        seg_end, t0, a, b = 0, 0, None, None  # no waypoint piece read yet

        def at(sf: int) -> tuple[float, float, int]:
            """The phone's x, y and its delay from the eNodeB at ``sf``."""
            nonlocal seg_end, t0, a, b
            t_n = sf * PS_PER_SUBFRAME
            # Strictly inside the piece read last, ``_segment`` returns it
            # again. Reads may go back in time, so both ends are checked.
            if not t0 < t_n < seg_end:
                seg_end, t0, a, b = _segment(points, t_n)
            if b is None:
                x, y = a.x, a.y
            else:
                w = (t_n - t0) / (seg_end - t0)
                x, y = a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)
            return x, y, m_to_ps(hypot(x - ex, y - ey))

        # UE-side advance timeline: (effective_from_sf, ta) pairs.
        ta0 = quantize_ta(2 * at(start_sf)[2] + tx_extra)
        ta_timeline = [(start_sf, ta0)]

        def ta_at(sf: int) -> int:
            """The last entry in list order effective by ``sf`` wins."""
            for eff, value in reversed(ta_timeline):
                if eff <= sf:
                    return value
            return ta0

        new, faults = tuple.__new__, self.faults
        dl_probes, ul_probes = self.dl_probes, self.ul_probes
        ground_truth = self.ground_truth

        def downlink(sf: int, message) -> None:
            t_n = sf * PS_PER_SUBFRAME
            frame, subframe, key = _FRAMES[(sf // 10) % 1024], sf % 10, 2 * sf
            for add, add_key, delay in dl_probes:
                add(new(ProbeEvent, (frame, subframe, t_n + delay,
                                     Carrier.DOWNLINK, message, None, rnti)))
                add_key(key)

        def uplink(sf: int, message, rb, rnti=None, measured=True) -> None:
            x, y, d = at(sf)
            ta = ta_at(sf)
            t_n = sf * PS_PER_SUBFRAME
            tx = t_n + d + tx_extra - TA_SPAN_PS[ta]  # ta is clamped
            frame, subframe = _FRAMES[(sf // 10) % 1024], sf % 10
            key = 2 * sf + 1
            for probe_id, add, add_key, px, py, noise in ul_probes:
                d_probe = m_to_ps(hypot(x - px, y - py))
                rx = tx + d_probe
                if noise is not None:
                    rx += next(noise)
                add(new(ProbeEvent, (frame, subframe, rx, Carrier.UPLINK,
                                     message, rb, rnti)))
                add_key(key)
                if measured:
                    ground_truth.append(new(GroundTruthRow, (
                        conn_id, ue_index, ue.model, imsi, probe_id, sf, t_n,
                        x, y, d, d_probe, d + d_probe, tx_extra, ta)))

        def ta_maintenance(slot: int) -> None:
            """Command the TA step toward ``slot``'s range, if one is due."""
            target = quantize_ta(2 * at(slot)[2] + tx_extra)
            current = ta_at(slot)
            adjust = max(-31, min(32, target - current))
            if adjust == 0:
                return
            info.n_ta_commands += 1
            downlink(slot, MacTaCommand(adjust))
            rx_slot = slot
            resend_prob = scn.faults.ta_resend_prob
            if resend_prob > 0 and next(faults) < resend_prob:
                rx_slot = slot + 8
                downlink(rx_slot, MacTaCommand(adjust))
                info.ta_resend_sfs.append(rx_slot)
            # The UE acknowledges, then applies from the following subframe.
            uplink(rx_slot + 4, Ack(info.n_ta_commands % 8), None, rnti=rnti,
                   measured=False)
            ta_timeline.append((rx_slot + 5,
                                max(0, min(TA_MAX, current + adjust))))

        attacker = (ext.ExtractorState(rnti=rnti.value)
                    if self.policy is not None else None)

        def attacker_sees(message):
            """The message to overshadow the next downlink with, if any."""
            nonlocal attacker
            if attacker is None:
                return None
            attacker, inject = ext.step(attacker, message, self.policy)
            return inject

        # Random access: RAR two subframes after the (unmodeled) preamble.
        [rb_msg3] = self.alloc.rbs(1)
        downlink(start_sf + 2,
                 RandomAccessResponse(rnti, ta0,
                                      UlGrant(_MSG3_OFFSET, rb_msg3, 3)))
        conn_request = RrcConnectionRequest(Tmsi(tmsi), 0)
        uplink(start_sf + 6, conn_request, rb_msg3)
        attacker_sees(conn_request)

        setup = RrcConnectionSetup(1)
        downlink(start_sf + 8, setup)
        attacker_sees(setup)

        [rb_nas] = self.alloc.rbs(1)
        downlink(start_sf + 8, dci_format0(rnti, _MSG3_OFFSET, rb_nas, 5))
        if ue.connection_type == "attach":
            nas = AttachRequest(Tmsi(tmsi),
                                self.db.entries[ue.model].capabilities)
        else:
            nas = ServiceRequest(Tmsi(tmsi))
        uplink(start_sf + 12, nas, rb_nas)
        inject = attacker_sees(nas)
        if inject is not None:
            inject_sf = start_sf + 14
            outcome = ext.overshadow_outcome(scn.attack.power_margin_db,
                                             scn.attack.alignment_error_ps)
            self.extraction.record(inject_sf * PS_PER_SUBFRAME, attacker,
                                   outcome)
            if outcome == "replaced":
                downlink(inject_sf, inject)
                if not isinstance(inject, IdentityRequest):
                    # Service reject: the UE drops and will re-attach.
                    info.end_sf = start_sf + 16
                    return
                answers = (attacker.trigger == "attach"
                           or ue.answers_identity_after_service_request)
                if answers:
                    [rb_id] = self.alloc.rbs(1)
                    downlink(inject_sf,
                             dci_format0(rnti, _MSG3_OFFSET, rb_id, 5))
                    response = IdentityResponse(Imsi(imsi))
                    uplink(inject_sf + 4, response, rb_id)
                    attacker_sees(response)  # the machine is now done
                    self.attacker_pairs[attacker.tmsi] = attacker.imsi
                    # The withheld grant keeps this response from the
                    # network; only the attacker and the sniffer hear it.
                    self.extraction.record((inject_sf + 4) * PS_PER_SUBFRAME,
                                           attacker, "replaced")

        # Data rounds plus interleaved timing-advance maintenance.
        step = max(4, 4 * ((ue.ta_interval + 3) // 4))
        slot_iter = iter(range(start_sf + 18, info.end_sf - 12, step)
                         if ue.ta_interval > 0 else ())
        next_slot = next(slot_iter, None)

        loss_prob = scn.faults.grant_loss_prob
        n_rounds, first_dci = ue.n_data_rounds, start_sf + _ROUNDS_START
        for dci_sf, rb in zip(range(first_dci, first_dci + 4 * n_rounds, 4),
                              self.alloc.rbs(n_rounds)):
            while next_slot is not None and next_slot < dci_sf:
                ta_maintenance(next_slot)
                next_slot = next(slot_iter, None)
            downlink(dci_sf, dci_format0(rnti, _MSG3_OFFSET, rb, 5))
            if loss_prob > 0 and next(faults) < loss_prob:
                continue
            uplink(dci_sf + _MSG3_OFFSET, None, rb)


def run(scenario: Scenario, db: Optional[FingerprintDb] = None) -> SimResult:
    db = db or FingerprintDb.default()
    scenario.validate(db)
    runner = _Run(scenario, db)

    duration_sf = scenario.duration_ps // PS_PER_SUBFRAME
    schedule = []
    for ue_index, ue in enumerate(scenario.ues):
        interval = _reconnect_interval(ue)
        span = _connection_span(ue)
        start = 10 + 17 * ue_index
        conn_index = 0
        while start + span <= duration_sf:
            schedule.append((start, ue_index, conn_index))
            conn_index += 1
            start += interval
    schedule.sort()
    for start, ue_index, conn_index in schedule:
        runner.run_connection(ue_index, conn_index, start)

    events = {}
    for probe_id, (stream, keys) in runner.streams.items():
        # Stable, so events of one subframe and carrier keep emission order.
        # Reordered as an object array, which boxes no index ints.
        order = np.argsort(np.frombuffer(keys, np.int64), kind="stable")
        events[probe_id] = np.fromiter(stream, object,
                                       len(stream))[order].tolist()
    return SimResult(scenario=scenario, events=events,
                     ground_truth=runner.ground_truth,
                     extraction=runner.extraction,
                     connections=runner.connections,
                     attacker_pairs=runner.attacker_pairs)


# -- scenario (de)serialization ------------------------------------------------

#: What a JSON value must be to fill a field of each scalar type.
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string"}
#: Each field of a scenario dataclass and its type, resolved once a class.
_field_types = functools.cache(typing.get_type_hints)


def _encode(value):
    if isinstance(value, Position):
        return [value.x, value.y]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _refusal(where: str, rule: str, value) -> ScenarioError:
    """Every refusal of a field: ``<where> must be <rule>, got <value>``."""
    return ScenarioError(f"{where} must be {rule}, got {reprlib.repr(value)}")


def _decode(tp, value, where: str):
    """``value``, read from JSON, as a ``tp``; refusals name ``where``."""
    if tp in _KINDS:
        if tp is float:
            # A bound on abs() also refuses NaN, the infinities and any
            # integer too large for a float.
            ok = (type(value) in (int, float)
                  and abs(value) <= sys.float_info.max)
        else:
            ok = type(value) is tp  # so a bool is no integer
        if not ok:
            raise _refusal(where, _KINDS[tp], value)
        return float(value) if tp is float else value
    if typing.get_origin(tp) is Literal:
        options = typing.get_args(tp)
        if type(value) is not str or value not in options:
            raise _refusal(where, f"one of {', '.join(map(repr, options))}",
                           value)
        return value
    if tp is Position:  # written as its [x, y] pair
        return Position(*_decode(tuple[float, float], value, where))
    if dataclasses.is_dataclass(tp):
        name = where or "scenario"
        if type(value) is not dict:
            raise _refusal(name, "an object", value)
        types = _field_types(tp)
        unknown = sorted(set(value) - types.keys())
        if unknown:
            raise ScenarioError(
                f"unknown key(s) {', '.join(unknown)} in {name}")
        kwargs = {}
        for f in dataclasses.fields(tp):
            if f.name in value:
                kwargs[f.name] = _decode(
                    types[f.name], value[f.name],
                    f"{where}.{f.name}" if where else f.name)
            elif f.default is dataclasses.MISSING:
                raise ScenarioError(f"missing {f.name!r} in {name}")
        return tp(**kwargs)
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]
        return None if value is None else _decode(args[0], value, where)
    if type(value) is not list:
        raise _refusal(where, "a list", value)
    if args[-1] is Ellipsis:  # tuple[X, ...]
        args = args[:1] * len(value)
    elif len(value) != len(args):
        raise _refusal(where, f"a list of {len(args)} items", value)
    return tuple(_decode(t, item, f"{where}[{i}]")
                 for i, (t, item) in enumerate(zip(args, value)))


def scenario_to_dict(scenario: Scenario) -> dict:
    return _encode(scenario)


def scenario_from_dict(data: dict) -> Scenario:
    return _decode(Scenario, data, "")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from exc
    return scenario_from_dict(data)
