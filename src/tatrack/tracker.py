"""Linkage database: ties connections to identities and assembles traces.

The database ingests finished-connection summaries, links each one to an
IMSI (directly, via a stored TMSI pair, or via a captured identity), and
accumulates time-ordered position estimates per identity.  Connections
that cannot be linked get a provisional anonymous id that is never merged
by guesswork.  All connections are taken to come from one cell: there is
no linkage across a handover.

Each TMSI maps to the one IMSI it was last bound to, the only binding
linkage reads.  State is a deterministic function of the ingested
stream.  Every pair, connection and fingerprint is also appended to a
JSONL journal: an append-only record of the run, from which the database
cannot be rebuilt.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .geometry import (AnnulusLocus, EllipseLocus, Position,
                       PositionEstimate, multilaterate)

MIN_MEASUREMENTS = 10
OUTLIER_IQR_FACTOR = 10.0

_PROVISIONAL_NS = uuid.uuid5(uuid.NAMESPACE_URL, "tatrack/provisional")


class IntegrityError(ValueError):
    """Raised when stored identity links contradict new evidence."""


@dataclass(frozen=True)
class ConnectionStats:
    """One connection's robust summary, in its values' unit (ps or m)."""

    median: float
    n_measurements: int
    n_outliers_removed: int
    iqr: float


def connection_stats(meas: Sequence[float]) -> Optional[ConnectionStats]:
    """Median of one connection's values, or None if too sparse.

    Values more than ten interquartile ranges from the raw median are
    dropped before the reported median is taken.
    """
    if len(meas) < MIN_MEASUREMENTS:
        return None
    values = np.asarray(meas, dtype=float)
    med = float(np.median(values))
    q25, q75 = np.percentile(values, [25.0, 75.0])
    iqr = float(q75 - q25)
    keep = np.abs(values - med) <= OUTLIER_IQR_FACTOR * iqr
    kept = values[keep]
    return ConnectionStats(median=float(np.median(kept)),
                           n_measurements=len(meas),
                           n_outliers_removed=int(len(values) - len(kept)),
                           iqr=iqr)


@dataclass(frozen=True)
class TracePoint:
    t_ps: int
    estimate: PositionEstimate
    loci: tuple = ()
    corrected: bool = False

    @property
    def position(self) -> Position:
        return self.estimate.position


@dataclass(frozen=True)
class ConnectionSummary:
    """What the tracker needs to know about one finished connection."""

    conn_id: str
    cell_id: int
    rnti: int
    start_ps: int
    end_ps: int
    tmsi: Optional[int] = None
    tmsi_is_random: bool = False
    had_service_request: bool = False
    observed_imsi: Optional[str] = None
    distances_m: tuple = ()
    points: tuple = ()

    @property
    def key(self) -> tuple:
        return (self.cell_id, self.rnti, self.start_ps)


def provisional_id(conn_id: str) -> str:
    return "anon-" + str(uuid.uuid5(_PROVISIONAL_NS, conn_id))


def _extraction_imsi(conn: ConnectionSummary,
                     entries: Iterable[Mapping]) -> Optional[str]:
    found = set()
    for entry in entries:
        if entry.get("tmsi") != conn.tmsi or "imsi" not in entry:
            continue
        if not conn.start_ps <= entry["t_ps"] <= conn.end_ps:
            continue
        found.add(entry["imsi"])
    if len(found) > 1:
        raise IntegrityError(
            f"tmsi {conn.tmsi:#x} extracted as {sorted(found)} "
            f"within one connection")
    return found.pop() if found else None


class TrackDb:
    def __init__(self) -> None:
        self.pairs: dict[int, str] = {}
        self.connections: dict[tuple, ConnectionSummary] = {}
        self.link_of: dict[tuple, str] = {}
        self.traces: dict[str, list[TracePoint]] = {}
        self.fingerprints: dict[str, tuple[str, float]] = {}
        self.journal: list[dict] = []

    # -- identity linkage -------------------------------------------------

    def imsi_for(self, tmsi: int) -> Optional[str]:
        return self.pairs.get(tmsi)

    def record_pair(self, tmsi: int, imsi: str, t_ps: int) -> None:
        """Bind a TMSI to an IMSI; a re-assigned TMSI keeps the newest."""
        self.journal.append({"event": "pair", "tmsi": tmsi, "imsi": imsi,
                             "t_ps": t_ps})
        self.pairs[tmsi] = imsi

    def link_connection(self, conn: ConnectionSummary,
                        extraction_entries: Iterable[Mapping] = (),
                        ) -> str:
        """Resolve a connection to an IMSI or a provisional id."""
        extracted = None
        if conn.tmsi is not None and not conn.tmsi_is_random:
            extracted = _extraction_imsi(conn, extraction_entries)
        if conn.observed_imsi is not None:
            if extracted is not None and extracted != conn.observed_imsi:
                raise IntegrityError(
                    f"connection {conn.conn_id} attached as "
                    f"{conn.observed_imsi} but extraction says {extracted}")
            extracted = conn.observed_imsi
        if extracted is not None:
            if conn.tmsi is not None and not conn.tmsi_is_random:
                self.record_pair(conn.tmsi, extracted, conn.start_ps)
            return extracted
        if conn.tmsi is not None and not conn.tmsi_is_random:
            known = self.imsi_for(conn.tmsi)
            if known is not None:
                # Journaled as a sighting of the known pair.
                self.record_pair(conn.tmsi, known, conn.end_ps)
                return known
        return provisional_id(conn.conn_id)

    # -- ingest -------------------------------------------------------------

    def ingest(self, conn: ConnectionSummary,
               extraction_entries: Iterable[Mapping] = ()) -> str:
        """Link a connection, store it, extend its trace and journal it."""
        linked = self.link_connection(conn, extraction_entries)
        self.connections[conn.key] = conn
        self.link_of[conn.key] = linked
        trace = self.traces.setdefault(linked, [])
        trace.extend(conn.points)
        trace.sort(key=lambda p: p.t_ps)
        self.journal.append({"event": "connection", "linked": linked,
                             **_conn_to_json(conn)})
        return linked

    def set_fingerprint(self, imsi: str, model: str,
                        hw_error_m: float) -> None:
        self.fingerprints[imsi] = (model, hw_error_m)
        self.journal.append({"event": "fingerprint", "imsi": imsi,
                             "model": model, "hw_error_m": hw_error_m})

    # -- trace assembly ------------------------------------------------------

    def build_trace(self, imsi: str) -> list[TracePoint]:
        """Time-ordered estimates, re-corrected once a fingerprint exists."""
        if imsi not in self.traces:
            raise KeyError(imsi)
        points = self.traces[imsi]
        if imsi in self.fingerprints:
            _, hw_error_m = self.fingerprints[imsi]
            points = [self._corrected(p, hw_error_m) for p in points]
            self.traces[imsi] = points
        return list(points)

    @staticmethod
    def _corrected(point: TracePoint, hw_error_m: float) -> TracePoint:
        if point.corrected or not point.loci:
            return point
        loci = corrected_loci(point.loci, hw_error_m)
        estimate = multilaterate(loci, initial=point.position)
        return replace(point, estimate=estimate, corrected=True)

    # -- persistence ----------------------------------------------------------

    def dump_journal(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.journal:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def corrected_loci(loci: Sequence, hw_error_m: float) -> tuple:
    """Undo a per-phone ranging bias on measurement loci.

    A transmit-timing error inflates a two-leg delay sum by twice the
    one-way bias and a timing-advance ring radius by the bias itself.
    """
    out = []
    for locus in loci:
        if isinstance(locus, EllipseLocus):
            out.append(EllipseLocus(focus_enb=locus.focus_enb,
                                    focus_probe=locus.focus_probe,
                                    sum_dist=locus.sum_dist - 2 * hw_error_m,
                                    sigma=locus.sigma))
        elif isinstance(locus, AnnulusLocus):
            width = locus.r_outer - locus.r_inner
            mid = locus.mid_radius - hw_error_m
            # A ring touching the eNodeB comes from a timing advance
            # clamped at zero, which covers every range the bias maps
            # below the first step boundary; its inner edge stays pinned.
            inner = 0.0 if locus.r_inner == 0.0 else max(0.0,
                                                         mid - width / 2)
            out.append(AnnulusLocus(center=locus.center, r_inner=inner,
                                    r_outer=max(inner + 1e-9,
                                                mid + width / 2)))
        else:
            raise TypeError(f"unknown locus type {type(locus).__name__}")
    return tuple(out)


# -- journal serialization helpers --------------------------------------------

def _locus_to_json(locus) -> dict:
    if isinstance(locus, EllipseLocus):
        return {"kind": "ellipse",
                "fa": [locus.focus_enb.x, locus.focus_enb.y],
                "fb": [locus.focus_probe.x, locus.focus_probe.y],
                "sum": locus.sum_dist, "sigma": locus.sigma}
    if isinstance(locus, AnnulusLocus):
        return {"kind": "annulus",
                "c": [locus.center.x, locus.center.y],
                "inner": locus.r_inner, "outer": locus.r_outer}
    raise TypeError(f"unknown locus type {type(locus).__name__}")


def _point_to_json(point: TracePoint) -> dict:
    return {"t_ps": point.t_ps,
            "x": point.position.x, "y": point.position.y,
            "rms": point.estimate.residual_rms,
            "corrected": point.corrected,
            "loci": [_locus_to_json(l) for l in point.loci]}


def _conn_to_json(conn: ConnectionSummary) -> dict:
    return {"conn_id": conn.conn_id, "cell_id": conn.cell_id,
            "rnti": conn.rnti, "start_ps": conn.start_ps,
            "end_ps": conn.end_ps, "tmsi": conn.tmsi,
            "tmsi_is_random": conn.tmsi_is_random,
            "had_service_request": conn.had_service_request,
            "observed_imsi": conn.observed_imsi,
            "distances_m": list(conn.distances_m),
            "points": [_point_to_json(p) for p in conn.points]}


# -- exports -------------------------------------------------------------------

def trace_csv_rows(db: TrackDb, imsi: str) -> Iterable[dict]:
    for point in db.build_trace(imsi):
        yield {"imsi": imsi, "t_ps": point.t_ps,
               "x_m": point.position.x, "y_m": point.position.y,
               "residual_rms_m": point.estimate.residual_rms,
               "corrected": point.corrected}


def stats_csv_rows(db: TrackDb) -> Iterable[dict]:
    for key in sorted(db.connections):
        conn = db.connections[key]
        stats = connection_stats(conn.distances_m)
        if stats is None:
            continue
        yield {"conn_id": conn.conn_id, "linked": db.link_of[key],
               "median_distance_m": stats.median,
               "n_measurements": stats.n_measurements,
               "n_outliers_removed": stats.n_outliers_removed,
               "iqr_m": stats.iqr}
