"""Deterministic scenario engine producing ground-truth radio traffic.

Generates the event streams a passive sniffer would capture: downlink
control and NAS messages with exact propagation-delay timestamps, and
uplink bursts whose arrival times follow from the UE's position, its
timing advance, a per-model transmit bias, and optional countermeasure
offsets.  Every random choice comes from a counter-based generator keyed
by (scenario seed, stream id), so identical scenarios replay bit-exactly
and per-entity streams stay independent.

The injected-identity attack, when enabled, is driven by the real
state machine from the extractor module; its downlink transmissions are
emitted from the serving eNodeB's position, an overshadowing
idealization that keeps the sniffer's subframe anchor exact.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import extractor as ext
from .fingerprint import FingerprintDb, HwErrorUnavailable, hw_error
from .geometry import Position
from .messages import (Ack, AttachRequest, DciFormat0, IdentityRequest,
                       IdentityResponse, Imsi, MacTaCommand,
                       RandomAccessResponse, Rnti, RrcConnectionRequest,
                       RrcConnectionSetup, ServiceRequest, Tmsi, UlGrant)
from .probe import Carrier, ProbeEvent, SubframeStamp
from .timebase import PS_PER_SUBFRAME, m_to_ps, quantize_ta, ta_span

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

_MSG3_OFFSET = 4  # subframes between a grant and the uplink it schedules
_ROUNDS_START = 16  # first data-round DCI, relative to connection start


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
    role: str = "both"  # dl | ul | both

    def hears_downlink(self) -> bool:
        return self.role in ("dl", "both")

    def hears_uplink(self) -> bool:
        return self.role in ("ul", "both")


@dataclass(frozen=True)
class UeProfile:
    """One device: identity, movement, and behavioral quirks."""

    model: str
    waypoints: tuple  # ((t_ps, Position), ...) time-ordered
    reconnect_rate: float = 30.0  # connections per minute
    answers_identity_after_service_request: bool = True
    imsi: Optional[str] = None
    tmsi: Optional[int] = None
    connection_type: str = "attach"  # attach | service
    n_data_rounds: int = 12
    ta_interval: int = 0  # subframes between TA maintenance checks; 0 = off

    def position_at(self, t_ps: int) -> Position:
        points = self.waypoints
        if t_ps <= points[0][0]:
            return points[0][1]
        if t_ps >= points[-1][0]:
            return points[-1][1]
        times = [p[0] for p in points]
        i = bisect_right(times, t_ps) - 1
        (t0, a), (t1, b) = points[i], points[i + 1]
        if t1 == t0:
            return b
        w = (t_ps - t0) / (t1 - t0)
        return Position(a.x + w * (b.x - a.x), a.y + w * (b.y - a.y))


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
    mode: str = "off"  # off | random_offset
    max_offset_ps: int = 0


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = False
    policy_mode: str = ext.MODE_ALL
    use_service_reject: bool = False
    power_margin_db: float = 3.0
    alignment_error_ps: int = 0


@dataclass(frozen=True)
class Scenario:
    enbs: tuple
    probes: tuple
    ues: tuple
    duration_ps: int
    seed: int
    noise: NoiseModel = NoiseModel()
    faults: FaultModel = FaultModel()
    countermeasure: Countermeasure = Countermeasure()
    attack: AttackConfig = AttackConfig()

    def validate(self, db: FingerprintDb) -> None:
        if not self.enbs or not self.probes or not self.ues:
            raise ScenarioError("need at least one eNodeB, probe, and UE")
        if len(self.enbs) > 1:
            # The sniffer keeps one subframe timeline and localizes against
            # one eNodeB; traffic from a second cell would be placed wrong.
            raise ScenarioError(
                f"{len(self.enbs)} eNodeBs given; only one cell is supported")
        if self.duration_ps <= 0:
            raise ScenarioError("duration must be positive")
        if not 0 <= self.seed < 2**64:
            raise ScenarioError("seed must fit in 64 bits")
        if self.noise.toa_sigma_ps < 0:
            raise ScenarioError("toa_sigma must be >= 0")
        for p in (self.faults.ta_resend_prob, self.faults.grant_loss_prob):
            if not 0.0 <= p <= 1.0:
                raise ScenarioError(f"probability {p} outside [0, 1]")
        if self.countermeasure.mode not in ("off", "random_offset"):
            raise ScenarioError(
                f"unknown countermeasure {self.countermeasure.mode!r}")
        if self.countermeasure.max_offset_ps < 0:
            raise ScenarioError("countermeasure offset must be >= 0")
        if self.attack.policy_mode not in ext.POLICY_MODES:
            raise ScenarioError(
                f"unknown attack policy mode {self.attack.policy_mode!r}")
        for probe in self.probes:
            if probe.role not in ("dl", "ul", "both"):
                raise ScenarioError(f"unknown probe role {probe.role!r}")
        for ue in self.ues:
            if ue.model not in db.entries:
                raise ScenarioError(f"unknown UE model {ue.model!r}")
            if ue.connection_type not in ("attach", "service"):
                raise ScenarioError(
                    f"unknown connection type {ue.connection_type!r}")
            times = [t for t, _ in ue.waypoints]
            if not times or times != sorted(times):
                raise ScenarioError("waypoints must be time-ordered")
            if ue.reconnect_rate <= 0:
                raise ScenarioError("reconnect_rate must be positive")
            span = _connection_span(ue)
            if _reconnect_interval(ue) <= span:
                raise ScenarioError(
                    f"reconnect interval shorter than a connection "
                    f"({span} subframes)")


@dataclass(frozen=True)
class GroundTruthRow:
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
    model: str
    imsi: str
    tmsi: int
    rnti: int
    connection_type: str
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


def _delay_ps(a: Position, b: Position) -> int:
    return m_to_ps(a.distance_to(b))


def _reconnect_interval(ue: UeProfile) -> int:
    return max(1, round(60_000.0 / ue.reconnect_rate))  # subframes


def _connection_span(ue: UeProfile) -> int:
    return _ROUNDS_START + 4 * ue.n_data_rounds + 12


def _stamp(sf: int, rx_ps: int, carrier: Carrier) -> SubframeStamp:
    return SubframeStamp(frame=(sf // 10) % 1024, subframe=sf % 10,
                         rx_time=rx_ps, carrier=carrier)


class _Allocator:
    """Run-wide unique RNTI and resource-block counters."""

    def __init__(self) -> None:
        self._rnti = 0
        self._rb = 0

    def rnti(self) -> Rnti:
        self._rnti += 1
        return Rnti(0x40 + (self._rnti % 60_000))

    def rb(self) -> int:
        self._rb += 1
        return 1 + (self._rb % 60_000)


class _Run:
    def __init__(self, scenario: Scenario, db: FingerprintDb):
        self.scenario = scenario
        self.db = db
        self.alloc = _Allocator()
        self.seq = 0
        self.items: list = []  # (sf, carrier_rank, seq, probe_id, event)
        self.ground_truth: list = []
        self.connections: list = []
        self.extraction = ext.ExtractionLog()
        self.attacker_pairs: dict = {}
        seed = scenario.seed
        self.rng_fault = np.random.Generator(
            np.random.Philox(key=[seed, _STREAM_FAULTS]))
        self.rng_probe = {
            probe.id: np.random.Generator(
                np.random.Philox(key=[seed, _STREAM_PROBE_BASE + i]))
            for i, probe in enumerate(scenario.probes)}
        self.rng_ue = [
            np.random.Generator(
                np.random.Philox(key=[seed, _STREAM_UE_BASE + i]))
            for i in range(len(scenario.ues))]

    # -- emission helpers --------------------------------------------------

    def _emit_downlink(self, sf: int, enb: Enb, message, rnti) -> None:
        t_n = sf * PS_PER_SUBFRAME
        for probe in self.scenario.probes:
            if not probe.hears_downlink():
                continue
            rx = t_n + _delay_ps(enb.position, probe.position)
            self.seq += 1
            self.items.append((sf, 0, self.seq, probe.id, ProbeEvent(
                _stamp(sf, rx, Carrier.DOWNLINK), message, rnti=rnti)))

    def _emit_uplink(self, sf: int, tx_ps: int, pos: Position, message,
                     rb: Optional[int], rnti: Optional[Rnti],
                     gt: Optional[dict]) -> None:
        sigma = self.scenario.noise.toa_sigma_ps
        for probe in self.scenario.probes:
            if not probe.hears_uplink():
                continue
            rx = tx_ps + _delay_ps(pos, probe.position)
            if sigma > 0:
                rx += round(self.rng_probe[probe.id].normal(0.0, sigma))
            self.seq += 1
            self.items.append((sf, 1, self.seq, probe.id, ProbeEvent(
                _stamp(sf, rx, Carrier.UPLINK), message, rb_alloc=rb,
                rnti=rnti)))
            if gt is not None:
                d_probe = _delay_ps(pos, probe.position)
                self.ground_truth.append(GroundTruthRow(
                    probe_id=probe.id, d_probe_ps=d_probe,
                    sum_true_ps=gt["d_ue_ps"] + d_probe, **gt))

    # -- one connection ------------------------------------------------------

    def run_connection(self, ue_index: int, conn_index: int,
                       start_sf: int) -> None:
        scn = self.scenario
        ue = scn.ues[ue_index]
        imsi = ue.imsi or f"00101{ue_index:010d}"
        tmsi = ue.tmsi if ue.tmsi is not None else 0xA0000000 + ue_index
        conn_id = f"c{ue_index}-{conn_index}"

        def pos_at(sf: int) -> Position:
            return ue.position_at(sf * PS_PER_SUBFRAME)

        enb = scn.enbs[0]

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

        def d_ue(sf: int) -> int:
            return _delay_ps(pos_at(sf), enb.position)

        # UE-side advance timeline: (effective_from_sf, ta) pairs.
        ta0 = quantize_ta(2 * d_ue(start_sf) + tx_extra)
        ta_timeline = [(start_sf, ta0)]

        def ta_at(sf: int) -> int:
            current = ta_timeline[0][1]
            for eff, value in ta_timeline:
                if eff <= sf:
                    current = value
            return current

        def uplink(sf: int, message, rb, rnti=None, measured=True) -> None:
            p = pos_at(sf)
            d = d_ue(sf)
            ta = ta_at(sf)
            tx = (sf * PS_PER_SUBFRAME + d + tx_extra - ta_span(ta))
            gt = None
            if measured:
                gt = {"conn_id": conn_id, "ue_index": ue_index,
                      "model": ue.model, "imsi": imsi, "abs_subframe": sf,
                      "t_n_ps": sf * PS_PER_SUBFRAME, "x_m": p.x,
                      "y_m": p.y, "d_ue_ps": d, "tx_extra_ps": tx_extra,
                      "ta_ue": ta}
            self._emit_uplink(sf, tx, p, message, rb, rnti, gt)

        rnti = self.alloc.rnti()
        info = ConnectionInfo(conn_id=conn_id, ue_index=ue_index,
                              model=ue.model, imsi=imsi, tmsi=tmsi,
                              rnti=rnti.value,
                              connection_type=ue.connection_type,
                              start_sf=start_sf,
                              end_sf=start_sf + _connection_span(ue),
                              cm_offset_ps=cm_offset)
        self.connections.append(info)

        attacker = None
        policy = None
        if scn.attack.enabled:
            attacker = ext.ExtractorState(rnti=rnti.value)
            policy = ext.EngagementPolicy(known_pairs=self.attacker_pairs,
                                          mode=scn.attack.policy_mode)
        ext_config = ext.ExtractorConfig(
            use_service_reject=scn.attack.use_service_reject)

        def attacker_sees(message) -> list:
            nonlocal attacker
            if attacker is None:
                return []
            attacker, actions = ext.step(attacker, message, policy,
                                         ext_config)
            return actions

        # Random access: RAR two subframes after the (unmodeled) preamble.
        rb_msg3 = self.alloc.rb()
        self._emit_downlink(start_sf + 2, enb,
                            RandomAccessResponse(rnti, ta0,
                                                 UlGrant(_MSG3_OFFSET,
                                                         rb_msg3, 3)),
                            rnti)
        conn_request = RrcConnectionRequest(Tmsi(tmsi), 0)
        uplink(start_sf + 6, conn_request, rb_msg3)
        attacker_sees(conn_request)

        setup = RrcConnectionSetup(1)
        self._emit_downlink(start_sf + 8, enb, setup, rnti)
        attacker_sees(setup)

        rb_nas = self.alloc.rb()
        self._emit_downlink(start_sf + 8, enb,
                            DciFormat0(rnti, _MSG3_OFFSET, rb_nas, 5), rnti)
        if ue.connection_type == "attach":
            nas = AttachRequest(Tmsi(tmsi),
                                self.db.entries[ue.model].capabilities)
        else:
            nas = ServiceRequest(Tmsi(tmsi))
        uplink(start_sf + 12, nas, rb_nas)
        actions = attacker_sees(nas)

        overshadow = next((a for a in actions
                           if isinstance(a, ext.Overshadow)), None)
        if overshadow is not None:
            inject_sf = start_sf + 14
            outcome = ext.overshadow_outcome(scn.attack.power_margin_db,
                                             scn.attack.alignment_error_ps)
            self.extraction.record(inject_sf * PS_PER_SUBFRAME, attacker,
                                   outcome)
            if outcome == "replaced":
                self._emit_downlink(inject_sf, enb, overshadow.message,
                                    rnti)
                if not isinstance(overshadow.message, IdentityRequest):
                    # Service reject: the UE drops and will re-attach.
                    info.end_sf = start_sf + 16
                    return
                answers = (attacker.trigger == "attach"
                           or ue.answers_identity_after_service_request)
                if answers:
                    rb_id = self.alloc.rb()
                    self._emit_downlink(inject_sf, enb,
                                        DciFormat0(rnti, _MSG3_OFFSET,
                                                   rb_id, 5), rnti)
                    response = IdentityResponse(Imsi(imsi))
                    uplink(inject_sf + 4, response, rb_id)
                    for action in attacker_sees(response):
                        if isinstance(action, ext.RecordPair):
                            self.attacker_pairs[action.tmsi] = action.imsi
                            # The suppressed grant keeps this response from
                            # the network; only the attacker and the
                            # sniffer hear it.
                            self.extraction.record(
                                (inject_sf + 4) * PS_PER_SUBFRAME,
                                attacker, "replaced")

        # Data rounds plus interleaved timing-advance maintenance.
        end_sf = info.end_sf
        ta_slots = []
        if ue.ta_interval > 0:
            step = max(4, 4 * ((ue.ta_interval + 3) // 4))
            ta_slots = list(range(start_sf + 18, end_sf - 12, step))
        slot_iter = iter(ta_slots)
        next_slot = next(slot_iter, None)

        for j in range(ue.n_data_rounds):
            dci_sf = start_sf + _ROUNDS_START + 4 * j
            while next_slot is not None and next_slot < dci_sf:
                self._ta_maintenance(next_slot, enb, rnti, ue, d_ue,
                                     tx_extra, ta_timeline, ta_at, uplink,
                                     info)
                next_slot = next(slot_iter, None)
            rb = self.alloc.rb()
            self._emit_downlink(dci_sf, enb,
                                DciFormat0(rnti, _MSG3_OFFSET, rb, 5), rnti)
            lost = (scn.faults.grant_loss_prob > 0
                    and self.rng_fault.random() < scn.faults.grant_loss_prob)
            if not lost:
                uplink(dci_sf + 4, None, rb)

    def _ta_maintenance(self, slot: int, enb: Enb, rnti: Rnti,
                        ue: UeProfile, d_ue, tx_extra: int,
                        ta_timeline: list, ta_at, uplink, info) -> None:
        target = quantize_ta(2 * d_ue(slot) + tx_extra)
        current = ta_at(slot)
        adjust = max(-31, min(32, target - current))
        if adjust == 0:
            return
        info.n_ta_commands += 1
        self._emit_downlink(slot, enb, MacTaCommand(adjust), rnti)
        rx_slot = slot
        lost = (self.scenario.faults.ta_resend_prob > 0
                and self.rng_fault.random()
                < self.scenario.faults.ta_resend_prob)
        if lost:
            rx_slot = slot + 8
            self._emit_downlink(rx_slot, enb, MacTaCommand(adjust), rnti)
            info.ta_resend_sfs.append(rx_slot)
        # The UE acknowledges, then applies from the following subframe.
        uplink(rx_slot + 4, Ack(info.n_ta_commands % 8), None, rnti=rnti,
               measured=False)
        ta_timeline.append((rx_slot + 5,
                            max(0, min(1282, ta_at(slot) + adjust))))

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

    runner.items.sort(key=lambda item: item[:3])
    events: dict = {probe.id: [] for probe in scenario.probes}
    for _, _, _, probe_id, event in runner.items:
        events[probe_id].append(event)
    return SimResult(scenario=scenario, events=events,
                     ground_truth=runner.ground_truth,
                     extraction=runner.extraction,
                     connections=runner.connections,
                     attacker_pairs=runner.attacker_pairs)


# -- scenario (de)serialization ------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "enbs": [{"id": e.id, "position": [e.position.x, e.position.y]}
                 for e in scenario.enbs],
        "probes": [{"id": p.id, "position": [p.position.x, p.position.y],
                    "role": p.role} for p in scenario.probes],
        "ues": [{
            "model": u.model,
            "waypoints": [[t, [p.x, p.y]] for t, p in u.waypoints],
            "reconnect_rate": u.reconnect_rate,
            "answers_identity_after_service_request":
                u.answers_identity_after_service_request,
            "imsi": u.imsi, "tmsi": u.tmsi,
            "connection_type": u.connection_type,
            "n_data_rounds": u.n_data_rounds,
            "ta_interval": u.ta_interval,
        } for u in scenario.ues],
        "duration_ps": scenario.duration_ps,
        "seed": scenario.seed,
        "noise": {"toa_sigma_ps": scenario.noise.toa_sigma_ps,
                  "hw_bias": scenario.noise.hw_bias},
        "faults": {"ta_resend_prob": scenario.faults.ta_resend_prob,
                   "grant_loss_prob": scenario.faults.grant_loss_prob},
        "countermeasure": {"mode": scenario.countermeasure.mode,
                           "max_offset_ps":
                               scenario.countermeasure.max_offset_ps},
        "attack": {"enabled": scenario.attack.enabled,
                   "policy_mode": scenario.attack.policy_mode,
                   "use_service_reject": scenario.attack.use_service_reject,
                   "power_margin_db": scenario.attack.power_margin_db,
                   "alignment_error_ps": scenario.attack.alignment_error_ps},
    }


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"missing {key!r} in {context}")
    return data[key]


def scenario_from_dict(data: dict) -> Scenario:
    try:
        enbs = tuple(Enb(id=e["id"], position=Position(*e["position"]))
                     for e in _require(data, "enbs", "scenario"))
        probes = tuple(Probe(id=p["id"], position=Position(*p["position"]),
                             role=p.get("role", "both"))
                       for p in _require(data, "probes", "scenario"))
        ues = tuple(UeProfile(
            model=u["model"],
            waypoints=tuple((int(t), Position(*p))
                            for t, p in u["waypoints"]),
            reconnect_rate=u.get("reconnect_rate", 30.0),
            answers_identity_after_service_request=u.get(
                "answers_identity_after_service_request", True),
            imsi=u.get("imsi"), tmsi=u.get("tmsi"),
            connection_type=u.get("connection_type", "attach"),
            n_data_rounds=u.get("n_data_rounds", 12),
            ta_interval=u.get("ta_interval", 0),
        ) for u in _require(data, "ues", "scenario"))
        noise_d = data.get("noise", {})
        faults_d = data.get("faults", {})
        cm_d = data.get("countermeasure", {})
        attack_d = data.get("attack", {})
        return Scenario(
            enbs=enbs, probes=probes, ues=ues,
            duration_ps=int(_require(data, "duration_ps", "scenario")),
            seed=int(_require(data, "seed", "scenario")),
            noise=NoiseModel(
                toa_sigma_ps=int(noise_d.get("toa_sigma_ps",
                                             DEFAULT_TOA_SIGMA_PS)),
                hw_bias=bool(noise_d.get("hw_bias", True))),
            faults=FaultModel(
                ta_resend_prob=float(faults_d.get("ta_resend_prob", 0.0)),
                grant_loss_prob=float(faults_d.get("grant_loss_prob", 0.0))),
            countermeasure=Countermeasure(
                mode=cm_d.get("mode", "off"),
                max_offset_ps=int(cm_d.get("max_offset_ps", 0))),
            attack=AttackConfig(
                enabled=bool(attack_d.get("enabled", False)),
                policy_mode=attack_d.get("policy_mode", ext.MODE_ALL),
                use_service_reject=bool(
                    attack_d.get("use_service_reject", False)),
                power_margin_db=float(attack_d.get("power_margin_db", 3.0)),
                alignment_error_ps=int(
                    attack_d.get("alignment_error_ps", 0))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from exc
    return scenario_from_dict(data)
