"""Correctness checks and the localization-error join, kept apart from tatrack.

Everything here reads a run's artifact directory and compares it with the
simulator's ground truth for the same scenario and seed. None of it uses
the program's own ``stats.csv`` or ``errors.csv``: the error of each
estimate comes from this module's join of ``positions.csv`` against the
phone's true position.

One operation is one simulated connection. A connection fails when it has
no position, or when any check below finds it wrong. Rows that belong to
no simulated connection are stray rows; they make the run incorrect as a
whole, because no connection can be blamed for them.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Ground distance of one timing-advance ring (c * 8 Ts), in metres.
RING_M = 299_792_458 / 3_840_000

#: An estimate may lie this far outside the band of true ranges its phone
#: covered during the connection: half a ring, so an estimate in the
#: neighbouring ring is caught.
RANGE_TOLERANCE_M = RING_M / 2

PS_PER_SUBFRAME = 10**9


@dataclass(frozen=True)
class ConnTruth:
    conn_id: str
    rnti: int
    start_ps: int
    end_ps: int
    imsi: str
    tmsi: int
    enb: tuple          # serving eNodeB position (x, y)
    first: tuple        # phone position at the first measured uplink
    r_min_m: float      # least true range to the eNodeB while measured
    r_max_m: float      # greatest true range to the eNodeB while measured


@dataclass
class Truth:
    """What the simulator knows about one scenario and seed."""

    conns: dict                 # conn_id -> ConnTruth
    sums: dict                  # (probe_id, conn_id, t_n_ps) -> (sum, extra)
    expected_pairs: dict        # tmsi -> imsi of every phone that answered
    radial_only: bool           # every uplink sniffer sits at the eNodeB
    noiseless: bool             # sums must then be exact to the picosecond
    uplink_probes: tuple

    @property
    def exact_sum_probes(self) -> tuple:
        """Sniffers whose every delay sum must equal the truth exactly."""
        return self.uplink_probes if self.noiseless else ()

    def conn_at(self, rnti: int, t_ps: int):
        """The connection that held ``rnti`` at ``t_ps``, or None."""
        for conn in self._by_rnti.get(rnti, ()):
            if conn.start_ps <= t_ps <= conn.end_ps:
                return conn
        return None

    def __post_init__(self):
        self._by_rnti = {}
        for conn in self.conns.values():
            self._by_rnti.setdefault(conn.rnti, []).append(conn)


def _answers(ue) -> bool:
    return (ue.connection_type == "attach"
            or ue.answers_identity_after_service_request)


def truth_of(result) -> Truth:
    """Collect the ground truth of a ``tatrack.sim.SimResult``."""
    scn = result.scenario
    first: dict = {}
    ranges: dict = {}
    sums: dict = {}
    info = {c.conn_id: c for c in result.connections}
    for row in result.ground_truth:
        enb = scn.enbs[info[row.conn_id].cell_id].position
        r = math.hypot(row.x_m - enb.x, row.y_m - enb.y)
        lo, hi = ranges.get(row.conn_id, (r, r))
        ranges[row.conn_id] = (min(lo, r), max(hi, r))
        if row.conn_id not in first or row.t_n_ps < first[row.conn_id][0]:
            first[row.conn_id] = (row.t_n_ps, (row.x_m, row.y_m))
        sums[(row.probe_id, row.conn_id, row.t_n_ps)] = (row.sum_true_ps,
                                                         row.tx_extra_ps)
    conns = {}
    for c in result.connections:
        enb = scn.enbs[c.cell_id].position
        r_min, r_max = ranges.get(c.conn_id, (math.nan, math.nan))
        conns[c.conn_id] = ConnTruth(
            conn_id=c.conn_id, rnti=c.rnti,
            start_ps=c.start_sf * PS_PER_SUBFRAME,
            end_ps=c.end_sf * PS_PER_SUBFRAME, imsi=c.imsi, tmsi=c.tmsi,
            enb=(enb.x, enb.y),
            first=first.get(c.conn_id, (None, None))[1],
            r_min_m=r_min, r_max_m=r_max)
    expected = {}
    if scn.attack.enabled:
        for c in result.connections:
            if _answers(scn.ues[c.ue_index]):
                expected[c.tmsi] = c.imsi
    uplink = tuple(p for p in scn.probes if p.hears_uplink())
    radial_only = all(p.position == e.position
                      for p in uplink for e in scn.enbs)
    return Truth(conns=conns, sums=sums, expected_pairs=expected,
                 radial_only=radial_only,
                 noiseless=scn.noise.toa_sigma_ps == 0,
                 uplink_probes=tuple(p.id for p in uplink))


# -- reading artifacts -------------------------------------------------------


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Outputs:
    """The parts of an artifact directory the checks read."""

    positions: list             # rows of positions.csv
    links: dict                 # view key -> linked identity
    pairs: dict                 # tmsi -> imsi, from extracted_pairs.json
    measurements: dict          # probe -> rows of its measurements csv


def read_outputs(out_dir, measured_probes=()) -> Outputs:
    """Parse an artifact directory, with the measurements of the given
    sniffers (the sum check reads them; other checks do not)."""
    out = Path(out_dir)
    links = {}
    with open(out / "trackdb.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["event"] == "connection":
                links[entry["conn_id"]] = entry["linked"]
    pairs = {int(t): imsi for t, imsi in json.loads(
        (out / "extracted_pairs.json").read_text(encoding="utf-8")).items()}
    measurements = {probe_id: _rows(out / f"measurements_{probe_id}.csv")
                    for probe_id in measured_probes}
    return Outputs(positions=_rows(out / "positions.csv"), links=links,
                   pairs=pairs, measurements=measurements)


# -- checks ------------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int
    failures: dict          # conn_id -> first reason found
    stray: list             # problems no connection can be blamed for
    errors_m: dict          # conn_id -> localization error, metres
    localized: int

    @property
    def failed(self) -> int:
        return len(self.failures)


def _fail(failures: dict, conn_id: str, reason: str) -> None:
    failures.setdefault(conn_id, reason)


def match_positions(truth: Truth, rows: list, failures: dict, stray: list):
    """Map each positions.csv row to its simulated connection.

    Returns ``(key_to_conn, estimates)``. Every connection must appear
    exactly once and carry a position.
    """
    key_to_conn = {}
    estimates = {}
    seen = set()
    for row in rows:
        conn = truth.conn_at(int(row["rnti"]), int(row["start_ps"]))
        if conn is None:
            stray.append(f"position row {row['conn']} matches no connection")
            continue
        key_to_conn[row["conn"]] = conn.conn_id
        if conn.conn_id in seen:
            _fail(failures, conn.conn_id, "appears twice in positions.csv")
            continue
        seen.add(conn.conn_id)
        if row["x_m"] == "" or row["y_m"] == "":
            _fail(failures, conn.conn_id, "no position")
            continue
        estimates[conn.conn_id] = (float(row["x_m"]), float(row["y_m"]))
    for conn_id in truth.conns:
        if conn_id not in seen:
            _fail(failures, conn_id, "missing from positions.csv")
    return key_to_conn, estimates


def localization_errors(truth: Truth, estimates: dict) -> dict:
    """Distance from each estimate to the phone's first measured position.

    Where every uplink sniffer shares the eNodeB's site the bearing is
    undetermined, so only the radial part of the error counts.
    """
    errors = {}
    for conn_id, (x, y) in estimates.items():
        conn = truth.conns[conn_id]
        if conn.first is None:
            continue
        tx, ty = conn.first
        if truth.radial_only:
            ex, ey = conn.enb
            errors[conn_id] = abs(math.hypot(x - ex, y - ey)
                                  - math.hypot(tx - ex, ty - ey))
        else:
            errors[conn_id] = math.hypot(x - tx, y - ty)
    return errors


def check_ranges(truth: Truth, estimates: dict, failures: dict) -> None:
    """Each estimate lies in a ring its phone occupied while measured."""
    for conn_id, (x, y) in estimates.items():
        conn = truth.conns[conn_id]
        r = math.hypot(x - conn.enb[0], y - conn.enb[1])
        if not (conn.r_min_m - RANGE_TOLERANCE_M <= r
                <= conn.r_max_m + RANGE_TOLERANCE_M):
            _fail(failures, conn_id,
                  f"range {r:.1f} m outside true "
                  f"[{conn.r_min_m:.1f}, {conn.r_max_m:.1f}] m")


def check_sums(truth: Truth, measurements: dict, failures: dict,
               stray: list) -> None:
    """Noiseless runs: each measured sum less tx_extra equals the truth.

    The join is by connection and subframe, so two phones transmitting in
    one subframe cannot stand in for each other. A TA command applied
    twice or missed shifts a sum by a whole TA step.
    """
    for probe_id, rows in measurements.items():
        for row in rows:
            t_n = int(row["tn_ps"])
            conn = truth.conn_at(int(row["rnti"]), t_n)
            if conn is None:
                stray.append(f"{probe_id} measurement at {t_n} ps matches "
                             f"no connection")
                continue
            expected = truth.sums.get((probe_id, conn.conn_id, t_n))
            if expected is None:
                _fail(failures, conn.conn_id,
                      f"{probe_id} measured an uplink at {t_n} ps that "
                      f"was never sent")
                continue
            true_sum, extra = expected
            got = int(row["sum_ps"]) - extra
            if got != true_sum:
                _fail(failures, conn.conn_id,
                      f"{probe_id} sum at {t_n} ps off by "
                      f"{got - true_sum} ps")


def check_identities(truth: Truth, pairs: dict, links: dict,
                     key_to_conn: dict, failures: dict, stray: list) -> None:
    """Extracted pairs equal the true ones; no link names another phone."""
    by_tmsi = {}
    for conn in truth.conns.values():
        by_tmsi.setdefault(conn.tmsi, []).append(conn)
    for tmsi in sorted(set(pairs) | set(truth.expected_pairs)):
        want = truth.expected_pairs.get(tmsi)
        got = pairs.get(tmsi)
        if got == want:
            continue
        if tmsi not in by_tmsi:
            stray.append(f"extracted pair for unknown tmsi {tmsi:#x}")
            continue
        for conn in by_tmsi[tmsi]:
            _fail(failures, conn.conn_id,
                  f"tmsi {tmsi:#x} extracted as {got}, true pair {want}")
    imsis = {conn.imsi for conn in truth.conns.values()}
    for key, linked in links.items():
        conn_id = key_to_conn.get(key)
        if conn_id is None:
            stray.append(f"track link {key} matches no connection")
            continue
        if linked in imsis and linked != truth.conns[conn_id].imsi:
            _fail(failures, conn_id, f"linked to another phone's {linked}")


def verify(truth: Truth, outputs: Outputs) -> Verdict:
    failures: dict = {}
    stray: list = []
    key_to_conn, estimates = match_positions(truth, outputs.positions,
                                             failures, stray)
    check_ranges(truth, estimates, failures)
    if outputs.measurements:
        check_sums(truth, outputs.measurements, failures, stray)
    check_identities(truth, outputs.pairs, outputs.links, key_to_conn,
                     failures, stray)
    return Verdict(attempted=len(truth.conns), failures=failures,
                   stray=stray,
                   errors_m=localization_errors(truth, estimates),
                   localized=len(estimates))
