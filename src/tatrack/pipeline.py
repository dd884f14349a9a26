"""Batch stage runner: scenario in, measurement/position/track artifacts out.

Stages chain as simulate -> probe -> localize -> track -> stats, with
extract branching off simulate. Localize first links every connection to
an IMSI or a provisional id from what the sniffers decoded, so a model's
bias carries over between connections of one phone; track then only
stores what localize linked and solved. Extract changes no link: it only
selects the extractor's artifacts, ``extraction.jsonl`` and
``extracted_pairs.json``, and the IMSI fill of ``measurements_*.csv``.
Stage products accumulate on a RunContext so later stages and the file
writers share one source of truth. The writers here are the only code
that formats or writes an artifact, each a line at a time: the CSV files
and event logs come from one template per file with a fixed column (or
JSON key) order, and ``_write_jsonl`` writes the track journal and the
extraction log. A message that several sniffers heard is one object in
the simulator's events, and the event logs encode it once per write.
With stable row ordering, a rerun with the same scenario and seed is
byte-identical.

The simulator's artifacts, the event logs and ``ground_truth.csv``, need
nothing after simulate. ``run_pipeline`` forks a process to write them as
soon as simulate returns, while it runs probe -> stats and writes the
rest itself; it reaps the child before it returns or raises, and a child
that failed raises OSError. The child runs only the formatting code here
and in ``messages`` (no numpy) and leaves through ``os._exit``. Its
copy-on-write cost is the pages either process dirties meanwhile (README
gives measured figures). Python 3.12 and later emit a DeprecationWarning
when a process with threads forks, as with the threads of a
multi-threaded BLAS under numpy; the child calls no BLAS.
Where ``os.fork`` is missing, the same writer runs in this process.

A scenario has exactly one eNodeB (``Scenario.validate`` refuses more):
localization takes its foci and downlink delays from that eNodeB, and
every connection id names cell 0.
"""

import json
import os
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Optional

from . import sim
from .fingerprint import (FingerprintDb, HwErrorUnavailable, classify,
                          hw_error)
from .geometry import (AnnulusLocus, ConvergenceError, InfeasibleSumError,
                       Position, annulus_from_ta, ellipse_from_sum,
                       multilaterate, multilaterate_with_offset)
from .messages import encode
from .probe import ConnectionTable, Measurement, ProbeEvent
from .timebase import m_to_ps, ps_to_m, quantize_ta
from .tracker import (Connection, TracePoint, TrackDb, connection_stats,
                      is_provisional, median_of_sorted, quantile_of_sorted)

#: Every stage, in run order, with the stages it needs. Stage ``name`` is
#: the function ``stage_<name>`` of this module.
_STAGE_DEPS = {
    "simulate": (),
    "probe": ("simulate",),
    "extract": ("simulate",),
    "localize": ("probe",),
    "track": ("localize",),
    "stats": ("track",),
}

STAGES = tuple(_STAGE_DEPS)

#: Gaussian interquartile range in units of sigma.
_IQR_PER_SIGMA = 1.349

#: sqrt(pi / 2): standard error of a Gaussian median over that of the mean.
_MEDIAN_SE_RATIO = 1.2533

#: Readers of three ``Measurement`` fields, to map over a record's list.
_T_N, _D_TA, _SUM_DELAY = (itemgetter(Measurement._fields.index(name))
                           for name in ("t_n", "d_ta", "sum_delay"))

#: Each ``--group-by`` choice and the stats column it groups on.
_GROUP_COLUMN = {"imsi": "imsi", "model": "model", "connection": "sim_conn"}
GROUP_CHOICES = tuple(_GROUP_COLUMN)


class StageError(ValueError):
    """Requested stages are unknown or missing a prerequisite."""


def check_stages(stages) -> tuple:
    """Validate a non-empty stage selection, names stripped and blank ones
    dropped (so ``text.split(",")`` may be passed); canonical order out."""
    chosen = [s for s in map(str.strip, stages) if s]
    if not chosen:
        raise StageError("no stage given")
    unknown = sorted(set(chosen) - set(STAGES))
    if unknown:
        raise StageError(f"unknown stage(s): {', '.join(unknown)}")
    for stage in chosen:
        missing = sorted(set(_STAGE_DEPS[stage]) - set(chosen))
        if missing:
            raise StageError(
                f"stage {stage!r} requires {', '.join(missing)}")
    return tuple(s for s in STAGES if s in chosen)


@dataclass
class RunContext:
    scenario: sim.Scenario
    db: FingerprintDb
    group_by: str = "imsi"
    result: Optional[sim.SimResult] = None
    tables: dict = field(default_factory=dict)
    views: list = field(default_factory=list)  # localize's Connections
    track_db: Optional[TrackDb] = None
    stats_rows: list = field(default_factory=list)
    summary_rows: list = field(default_factory=list)


# -- stages ---------------------------------------------------------------


def stage_simulate(ctx: RunContext) -> None:
    ctx.result = sim.run(ctx.scenario, ctx.db)


def stage_probe(ctx: RunContext) -> None:
    enb = ctx.scenario.enbs[0]
    for probe in ctx.scenario.probes:
        d_dl = m_to_ps(probe.position.distance_to(enb.position))
        table = ConnectionTable(d_dlprobe_ps=d_dl)
        ingest = table.ingest
        for event in ctx.result.events[probe.id]:
            ingest(event)
        ctx.tables[probe.id] = table


def stage_extract(ctx: RunContext) -> None:
    """Nothing to compute: the stage only selects the extractor's
    artifacts, which ``write_artifacts`` writes when it is named."""


def _ta_index(d_ta_values) -> Optional[int]:
    if not d_ta_values:
        return None
    return quantize_ta(sorted(d_ta_values)[(len(d_ta_values) - 1) // 2])


def stage_localize(ctx: RunContext) -> None:
    enb = ctx.scenario.enbs[0]
    probe_pos = {p.id: p.position for p in ctx.scenario.probes}

    legs_by_key: dict = {}
    for probe_id in sorted(ctx.tables):
        for record in ctx.tables[probe_id].records:
            stats = connection_stats(list(map(_SUM_DELAY,
                                              record.measurements)))
            legs_by_key.setdefault((record.start_ps, record.rnti.value),
                                   {})[probe_id] = (record, stats)

    conns = [_merge_legs(start_ps, rnti, legs)
             for (start_ps, rnti), legs in sorted(legs_by_key.items())]
    ctx.track_db = TrackDb()
    for conn in conns:
        conn.linked = ctx.track_db.link_connection(conn)
        _classify_view(conn, ctx.db)
    # A connection that carried no capability vector takes the model its
    # phone showed in any connection of the run, the latest winning.
    phones = [_phone(conn, ctx.track_db) for conn in conns]
    bias_by_phone = {phone: (conn.model_hat, conn.hw_bias_m)
                     for conn, phone in zip(conns, phones)
                     if conn.hw_bias_m is not None}
    for conn, phone in zip(conns, phones):
        if conn.hw_bias_m is None and phone in bias_by_phone:
            conn.model_hat, conn.hw_bias_m = bias_by_phone[phone]
        _solve_view(ctx, conn, enb.position, probe_pos)
    ctx.views.extend(conns)


def _phone(conn: Connection, db: TrackDb):
    """Whose bias a linked connection carries: its IMSI or, if it links
    provisionally, the IMSI its stable TMSI is paired with once every
    connection is linked, else that TMSI. A provisional id is one
    connection's own."""
    stable = conn.stable_tmsi
    if stable is None or not is_provisional(conn.linked):
        return conn.linked
    return db.imsi_for(stable) or stable


def _merge_legs(start_ps: int, rnti: int, legs: dict) -> Connection:
    """One connection from each probe's ``(record, stats)``, by probe id."""
    conn = Connection(conn_id=f"0-{rnti:#06x}-{start_ps}", rnti=rnti,
                      start_ps=start_ps, end_ps=start_ps, legs=legs)
    d_ta_values = []
    for rec, _ in legs.values():
        if rec.tmsi is not None and conn.tmsi is None:
            conn.tmsi = rec.tmsi.value
            conn.tmsi_is_random = rec.tmsi_is_random
        if rec.observed_imsi is not None:
            conn.observed_imsi = rec.observed_imsi
        if rec.capabilities is not None:
            conn.capabilities = rec.capabilities
        conn.had_service_request |= rec.had_service_request
        conn.end_ps = max(conn.end_ps, max(map(_T_N, rec.measurements),
                                           default=conn.end_ps))
        d_ta_values.extend(map(_D_TA, rec.measurements))
    conn.ta_index = _ta_index(d_ta_values)
    return conn


def _bias_correction_ps(conn: Connection) -> int:
    """Delay-sum inflation, in ps, from the connection's bias on both legs."""
    return m_to_ps(2 * conn.hw_bias_m) if conn.hw_bias_m is not None else 0


def _corrected_ring(ring: AnnulusLocus, hw_bias_m: float) -> AnnulusLocus:
    """Shift a TA ring's mid radius back by the bias, keeping its width.

    A ring at TA 0 comes from an advance clamped at zero, which covers
    every range the bias maps below the first step, so its inner edge
    stays at zero.
    """
    width = ring.r_outer - ring.r_inner
    mid = ring.mid_radius - hw_bias_m
    inner = 0.0 if ring.r_inner == 0.0 else max(0.0, mid - width / 2)
    return AnnulusLocus(center=ring.center, r_inner=inner,
                        r_outer=max(inner + 1e-9, mid + width / 2))


def _solve_view(ctx: RunContext, conn: Connection, enb_pos: Position,
                probe_pos: dict) -> None:
    """Build loci and solve, correcting sums and ring when the bias is known.

    This is the only place a bias correction is applied: the tracker
    stores the estimate as solved here and never re-solves it.
    """
    corr_ps = _bias_correction_ps(conn)
    loci = []
    n_ellipses = 0
    for probe_id, (_, stats) in conn.legs.items():
        if stats is None:
            continue
        kept = stats.n_measurements - stats.n_outliers_removed
        sigma_sum_ps = stats.iqr / _IQR_PER_SIGMA
        sigma_median_ps = (_MEDIAN_SE_RATIO * sigma_sum_ps
                           / max(1.0, kept) ** 0.5)
        try:
            loci.append(ellipse_from_sum(
                enb_pos, probe_pos[probe_id],
                round(stats.median - corr_ps),
                sigma=ps_to_m(sigma_median_ps)))
            n_ellipses += 1
        except InfeasibleSumError:
            continue
    if conn.ta_index is not None:
        annulus = annulus_from_ta(enb_pos, conn.ta_index)
        if corr_ps:
            annulus = _corrected_ring(annulus, conn.hw_bias_m)
        loci.append(annulus)
    conn.loci = tuple(loci)
    if not loci:
        return
    countered = ctx.scenario.countermeasure.mode == "random_offset"
    try:
        if countered and n_ellipses >= 3:
            conn.estimate, conn.offset_m = multilaterate_with_offset(loci)
        else:
            conn.estimate = multilaterate(loci)
    except ConvergenceError:
        conn.estimate = None


def stage_track(ctx: RunContext) -> None:
    for conn in ctx.views:
        if conn.estimate is not None:
            conn.points = (TracePoint(t_ps=conn.start_ps,
                                      estimate=conn.estimate, loci=conn.loci,
                                      corrected=conn.hw_bias_m is not None),)
        ctx.track_db.ingest(conn)


def _classify_view(conn: Connection, db: FingerprintDb) -> None:
    if conn.capabilities is None:
        return
    result = classify(conn.capabilities, db)
    if result.tie:
        return
    conn.model_hat = result.model
    try:
        conn.hw_bias_m = hw_error(result.model, db)
    except HwErrorUnavailable:
        conn.hw_bias_m = None


def stage_stats(ctx: RunContext) -> None:
    # Phones can send in the same subframe: rows go by (probe, RNTI), t_n.
    rnti_of = {c.conn_id: c.rnti for c in ctx.result.connections}
    truth: dict = defaultdict(dict)
    for r in ctx.result.ground_truth:  # the last row for a t_n wins
        truth[r.probe_id, rnti_of[r.conn_id]][r.t_n_ps] = r
    for conn in ctx.views:
        for probe_id, (record, stats) in conn.legs.items():
            if stats is None:
                continue
            by_t_n = truth.get((probe_id, conn.rnti), {})
            rows = [by_t_n.get(m.t_n) for m in record.measurements]
            rows = [r for r in rows if r is not None]
            if not rows:
                continue
            true_sum = median_of_sorted(sorted(r.sum_true_ps for r in rows))
            err_raw_ps = stats.median - true_sum
            err_corr_ps = err_raw_ps - _bias_correction_ps(conn)
            ctx.stats_rows.append({
                "conn": conn.conn_id,
                "sim_conn": rows[0].conn_id,
                "probe": probe_id,
                "imsi": rows[0].imsi,
                "model": rows[0].model,
                "model_hat": conn.model_hat or "",
                "n_meas": stats.n_measurements,
                "n_removed": stats.n_outliers_removed,
                "median_sum_ps": stats.median,
                "true_sum_ps": true_sum,
                "err_raw_m": ps_to_m(err_raw_ps) / 2,
                "err_corr_m": ps_to_m(err_corr_ps) / 2,
            })
    ctx.summary_rows = _summarize(ctx.stats_rows, ctx.group_by)


def _summarize(stats_rows, group_by: str) -> list:
    column = _GROUP_COLUMN[group_by]
    groups: dict = {}
    for row in stats_rows:
        groups.setdefault(row[column], []).append(abs(row["err_corr_m"]))
    out = []
    for key in sorted(groups):
        errs = sorted(groups[key])
        out.append({
            "group": key,
            "n_connections": len(errs),
            "median_m": median_of_sorted(errs),
            "p90_m": quantile_of_sorted(errs, 0.9),
        })
    return out


def run_pipeline(scenario: sim.Scenario, stages=STAGES, *,
                 db: Optional[FingerprintDb] = None, out_dir=None,
                 group_by: str = "imsi") -> RunContext:
    """Run the requested stages and optionally write their artifacts.

    With ``out_dir`` set, a forked process writes the simulator's artifacts
    while the later stages run; it is reaped before this returns or
    raises, and its failure raises OSError.
    """
    ordered = check_stages(stages)
    if group_by not in GROUP_CHOICES:
        raise StageError(f"unknown group-by {group_by!r}")
    ctx = RunContext(scenario=scenario, db=db or FingerprintDb.default(),
                     group_by=group_by)
    writer = None
    try:
        for stage in ordered:
            # Looked up on every run, so a wrapper installed on the module
            # attribute (a tracer, a test double) is the one that runs.
            globals()[f"stage_{stage}"](ctx)
            if stage == "simulate" and out_dir is not None:
                writer = _start_simulation_writer(ctx.result, Path(out_dir))
        if out_dir is not None:
            write_artifacts(ctx, out_dir,
                            tuple(s for s in ordered if s != "simulate"))
    finally:
        status = 0 if writer is None else os.waitpid(writer, 0)[1]
    if status:
        raise OSError(f"writing the simulator's artifacts to {out_dir} "
                      f"failed (exit status "
                      f"{os.waitstatus_to_exitcode(status)})")
    return ctx


def _start_simulation_writer(result: sim.SimResult,
                             out: Path) -> Optional[int]:
    """Write the simulator's artifacts in a forked child; return its pid.

    Where ``os.fork`` is missing, write them here and return None. The
    child leaves only through ``os._exit``, never back into the caller.
    """
    out.mkdir(parents=True, exist_ok=True)
    if not hasattr(os, "fork"):
        _write_simulation(result, out)
        return None
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_simulation(result, out)
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


# -- artifact writers ------------------------------------------------------


def _write_csv(path: Path, columns, rows) -> None:
    """Stream tuple ``rows`` that hold the columns in order under a header
    line, one template per file. A cell is ``str`` of its value: for a
    float its ``repr``, for a numpy scalar its plain digits."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(line.__mod__, rows))


def _write_jsonl(path: Path, entries) -> None:
    """One ``json.dumps(entry, sort_keys=True)`` line per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(entry, sort_keys=True) + "\n"
                      for entry in entries)


#: One ``events_*.jsonl`` line: what ``json.dumps(..., sort_keys=True)``
#: writes for an event, with the keys already in sorted order.
_EVENT_LINE = ('{"carrier": "%s", "frame": %s, "message_hex": %s, '
               '"rb_alloc": %s, "rnti": %s, "rx_ps": %s, "subframe": %s}\n')

#: Reader of an event's message.
_MESSAGE_OF = itemgetter(ProbeEvent._fields.index("message"))


def _write_events(path: Path, events, hex_of: dict) -> None:
    """Write one event log; ``hex_of`` maps ``id(message)`` to its cell.

    Each message missing from ``hex_of`` is encoded and added, in event
    order, before the lines are written. Every sniffer that heard a
    message holds the same object, so a map shared by all logs encodes it
    once; the events keep it alive, so no id is reused.
    """
    for message in map(_MESSAGE_OF, events):
        if id(message) not in hex_of:
            hex_of[id(message)] = f'"{encode(message).hex()}"'
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_EVENT_LINE % (
            carrier, frame, hex_of[id(message)],
            "null" if rb_alloc is None else rb_alloc,
            "null" if rnti is None else rnti.value, rx_time, subframe)
            for frame, subframe, rx_time, carrier, message, rb_alloc, rnti
            in events)


_MEAS_COLUMNS = ("imsi", "tmsi", "rnti", "frame", "subframe", "toa_ps",
                 "tn_ps", "dta_ps", "sum_ps")


def _measurement_rows(table: ConnectionTable, imsi_by_tmsi=None):
    """One tuple per measurement, in ``_MEAS_COLUMNS`` order; an identity
    the probe never learned is ``""``."""
    for rec in table.records:
        tmsi = rec.tmsi.value if rec.tmsi else None
        imsi = rec.observed_imsi
        if imsi is None and imsi_by_tmsi and tmsi is not None:
            imsi = imsi_by_tmsi.get(tmsi)
        ids = (imsi or "", "" if tmsi is None else tmsi, rec.rnti.value)
        for meas in rec.measurements:
            yield ids + meas


_POSITION_COLUMNS = ("conn", "rnti", "start_ps", "tmsi", "imsi_observed",
                     "ta_index", "n_loci", "x_m", "y_m", "residual_rms_m",
                     "offset_m", "range_only")

_STATS_COLUMNS = ("conn", "sim_conn", "probe", "imsi", "model", "model_hat",
                  "n_meas", "n_removed", "median_sum_ps", "true_sum_ps",
                  "err_raw_m", "err_corr_m")

_ERROR_COLUMNS = ("conn", "imsi", "model", "error_m")

_SUMMARY_COLUMNS = ("group", "n_connections", "median_m", "p90_m")

_CONN_STATS_COLUMNS = ("conn_id", "linked", "median_distance_m",
                       "n_measurements", "n_outliers_removed", "iqr_m")

_TRACE_COLUMNS = ("imsi", "t_ps", "x_m", "y_m", "residual_rms_m",
                  "corrected")


def _write_simulation(result: sim.SimResult, out: Path) -> None:
    """One event log per sniffer, and the ground truth behind them."""
    hex_of = {id(None): "null"}
    for probe_id in sorted(result.events):
        _write_events(out / f"events_{probe_id}.jsonl",
                      result.events[probe_id], hex_of)
    _write_csv(out / "ground_truth.csv", sim.GroundTruthRow._fields,
               result.ground_truth)


def write_artifacts(ctx: RunContext, out_dir, stages) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "simulate" in stages:
        _write_simulation(ctx.result, out)
    if "probe" in stages:
        pairs = ctx.result.attacker_pairs if "extract" in stages else None
        for probe_id in sorted(ctx.tables):
            _write_csv(out / f"measurements_{probe_id}.csv", _MEAS_COLUMNS,
                       _measurement_rows(ctx.tables[probe_id], pairs))
    if "extract" in stages:
        _write_jsonl(out / "extraction.jsonl", ctx.result.extraction.entries)
        (out / "extracted_pairs.json").write_text(
            json.dumps({str(t): i for t, i in
                        sorted(ctx.result.attacker_pairs.items())},
                       sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if "localize" in stages:
        rows = []
        for conn in ctx.views:  # a missing value is an empty cell
            est = conn.estimate
            x, y, rms = ((est.position.x, est.position.y, est.residual_rms)
                         if est else ("", "", ""))
            rows.append((conn.conn_id, conn.rnti, conn.start_ps,
                         "" if conn.tmsi is None else conn.tmsi,
                         conn.observed_imsi or "",
                         "" if conn.ta_index is None else conn.ta_index,
                         len(conn.loci), x, y, rms,
                         "" if conn.offset_m is None else conn.offset_m,
                         int(est is not None and est.range_only)))
        _write_csv(out / "positions.csv", _POSITION_COLUMNS, rows)
    if "track" in stages:
        _write_jsonl(out / "trackdb.jsonl", ctx.track_db.journal)
        _write_csv(out / "traces.csv", _TRACE_COLUMNS,
                   ((imsi, p.t_ps, p.position.x, p.position.y,
                     p.estimate.residual_rms, p.corrected)
                    for imsi in sorted(ctx.track_db.traces)
                    for p in ctx.track_db.build_trace(imsi)))
        # Half the delay-sum statistics of the first sniffer, by probe id,
        # that has them, in metres.
        rows = []
        for conn in sorted(ctx.views, key=lambda c: (c.rnti, c.start_ps)):
            stats = next((s for _, s in conn.legs.values() if s is not None),
                         None)
            if stats is not None:
                rows.append((conn.conn_id, conn.linked,
                             ps_to_m(stats.median) / 2, stats.n_measurements,
                             stats.n_outliers_removed, ps_to_m(stats.iqr) / 2))
        _write_csv(out / "connection_stats.csv", _CONN_STATS_COLUMNS, rows)
    if "stats" in stages:
        _write_csv(out / "stats.csv", _STATS_COLUMNS,
                   map(itemgetter(*_STATS_COLUMNS), ctx.stats_rows))
        _write_csv(out / "errors.csv", _ERROR_COLUMNS,
                   ((r["conn"], r["imsi"], r["model"], abs(r["err_corr_m"]))
                    for r in ctx.stats_rows))
        _write_csv(out / "summary.csv", _SUMMARY_COLUMNS,
                   map(itemgetter(*_SUMMARY_COLUMNS), ctx.summary_rows))


# -- empirical distribution helpers ----------------------------------------


def empirical_cdf(values) -> list:
    """Sorted (value, cumulative fraction) pairs over the sample."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("empty sample")
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
