"""Linkage database: ties connections to identities and assembles traces.

Linkage resolves a finished connection to an IMSI (the one a sniffer
decoded in the connection, or the one its stable TMSI is paired with),
or to a provisional anonymous id that is never merged by guesswork.
Localization links every connection before it solves any; one ``ingest``
then extends the linked identity's time-ordered trace with the estimates
as localization solved them, bias correction included, and journals the
connection, then its model and bias. The database links, keeps traces and
journals; it never solves and keeps no measurements. All connections are
taken to come from one cell: there is no linkage across a handover.

Each TMSI maps to the one IMSI it was last bound to, the only binding
linkage reads.  State is a deterministic function of the linked and
ingested stream.  Every connection, and every pair or fingerprint that
changes what is stored, is also appended to ``journal`` as it happens,
so a run's pairs precede its connections: an append-only record of the
run, from which the database cannot be rebuilt; ``pipeline`` writes it.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import (AnnulusLocus, EllipseLocus, Position,
                       PositionEstimate)
from .messages import CapabilityVector

MIN_MEASUREMENTS = 10
OUTLIER_IQR_FACTOR = 10.0

_PROVISIONAL_NS = uuid.uuid5(uuid.NAMESPACE_URL, "tatrack/provisional")
_PROVISIONAL_PREFIX = "anon-"


@dataclass(frozen=True)
class ConnectionStats:
    """One connection's robust summary, in its values' unit (ps or m)."""

    median: float
    n_measurements: int
    n_outliers_removed: int
    iqr: float


def median_of_sorted(values: list) -> float:
    """``np.median`` of an ascending list of finite floats, bit for bit.

    numpy's median and percentile import ``numpy.ma`` on their first call
    in a process, about 10 ms that every ``tatrack run`` would pay.
    """
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def quantile_of_sorted(values: list, q: float) -> float:
    """``np.quantile(values, q)`` (its default "linear" method) of an
    ascending list of finite floats, with numpy's arithmetic."""
    pos = (len(values) - 1) * q
    lo = int(pos)
    if lo >= len(values) - 1:
        return values[-1]
    t = pos - lo
    a, b = values[lo], values[lo + 1]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def connection_stats(meas: Sequence[float]) -> Optional[ConnectionStats]:
    """Median of one connection's values, or None if too sparse.

    Values more than ten interquartile ranges from the raw median are
    dropped before the reported median is taken.
    """
    if len(meas) < MIN_MEASUREMENTS:
        return None
    values = sorted(map(float, meas))
    med = median_of_sorted(values)
    iqr = quantile_of_sorted(values, 0.75) - quantile_of_sorted(values, 0.25)
    kept = [v for v in values if abs(v - med) <= OUTLIER_IQR_FACTOR * iqr]
    return ConnectionStats(median=median_of_sorted(kept),
                           n_measurements=len(meas),
                           n_outliers_removed=len(values) - len(kept),
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


@dataclass
class Connection:
    """One physical connection, from the sniffers to the track database:
    what the sniffers heard, merged across them; ``legs``, each probe's
    ``(record, stats)`` in probe-id order, the stats over its delay sums in
    ps (None when too sparse); what localize adds; the trace points."""

    conn_id: str
    rnti: int
    start_ps: int
    end_ps: int
    tmsi: Optional[int] = None
    tmsi_is_random: bool = False
    had_service_request: bool = False
    observed_imsi: Optional[str] = None
    capabilities: Optional[CapabilityVector] = None
    legs: dict = field(default_factory=dict)
    ta_index: Optional[int] = None
    linked: Optional[str] = None  # the IMSI or provisional id it links to
    loci: tuple = ()
    estimate: Optional[PositionEstimate] = None
    offset_m: Optional[float] = None
    model_hat: Optional[str] = None
    hw_bias_m: Optional[float] = None
    points: tuple = ()

    @property
    def stable_tmsi(self) -> Optional[int]:
        """The TMSI, unless the phone drew it at random for this request."""
        return None if self.tmsi_is_random else self.tmsi


def provisional_id(conn_id: str) -> str:
    return _PROVISIONAL_PREFIX + str(uuid.uuid5(_PROVISIONAL_NS, conn_id))


def is_provisional(linked: str) -> bool:
    """Whether a connection linked to its own provisional id rather than
    an IMSI, which is 15 decimal digits and so never takes the prefix."""
    return linked.startswith(_PROVISIONAL_PREFIX)


class TrackDb:
    def __init__(self) -> None:
        self.pairs: dict[int, str] = {}
        self.traces: dict[str, list[TracePoint]] = {}
        self.fingerprints: dict[str, tuple[str, float]] = {}
        self.journal: list[dict] = []

    # -- identity linkage -------------------------------------------------

    def imsi_for(self, tmsi: int) -> Optional[str]:
        return self.pairs.get(tmsi)

    def record_pair(self, tmsi: int, imsi: str, t_ps: int) -> None:
        """Bind a TMSI to an IMSI; a re-assigned TMSI keeps the newest."""
        if self.pairs.get(tmsi) == imsi:
            return
        self.journal.append({"event": "pair", "tmsi": tmsi, "imsi": imsi,
                             "t_ps": t_ps})
        self.pairs[tmsi] = imsi

    def link_connection(self, conn: Connection) -> str:
        """Resolve a connection to an IMSI or a provisional id."""
        imsi = conn.observed_imsi
        stable = conn.stable_tmsi
        if stable is not None:
            imsi = imsi or self.imsi_for(stable)
            if imsi is not None:
                self.record_pair(stable, imsi, conn.start_ps)
        return imsi or provisional_id(conn.conn_id)

    # -- ingest -------------------------------------------------------------

    def ingest(self, conn: Connection) -> None:
        """Apply a linked connection: extend its identity's trace with its
        points, journal it, then record its model and bias if it has both.
        Its measurements are not kept."""
        trace = self.traces.setdefault(conn.linked, [])
        trace.extend(conn.points)
        trace.sort(key=lambda p: p.t_ps)
        self.journal.append({"event": "connection", "linked": conn.linked,
                             **_conn_to_json(conn)})
        if conn.model_hat is not None and conn.hw_bias_m is not None:
            self.set_fingerprint(conn.linked, conn.model_hat, conn.hw_bias_m)

    def set_fingerprint(self, imsi: str, model: str,
                        hw_error_m: float) -> None:
        if self.fingerprints.get(imsi) == (model, hw_error_m):
            return
        self.fingerprints[imsi] = (model, hw_error_m)
        self.journal.append({"event": "fingerprint", "imsi": imsi,
                             "model": model, "hw_error_m": hw_error_m})

    # -- trace assembly ------------------------------------------------------

    def build_trace(self, imsi: str) -> list[TracePoint]:
        """Time-ordered estimates, as localize solved and corrected them."""
        if imsi not in self.traces:
            raise KeyError(imsi)
        return list(self.traces[imsi])


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


def _conn_to_json(conn: Connection) -> dict:
    return {"conn_id": conn.conn_id, "rnti": conn.rnti,
            "start_ps": conn.start_ps, "end_ps": conn.end_ps,
            "tmsi": conn.tmsi, "tmsi_is_random": conn.tmsi_is_random,
            "had_service_request": conn.had_service_request,
            "observed_imsi": conn.observed_imsi,
            "points": [_point_to_json(p) for p in conn.points]}
