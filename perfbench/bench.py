"""One benchmark run: set up, time repetitions, trace, verify, report.

A repetition is the user path: ``tatrack run`` through ``cli.main``, from a
scenario file to a fresh artifact directory, with the next seed. The
untraced repetitions run back to back for the requested seconds, with the
fixed calibration load of ``hostspeed`` timed between them, and give the
end-to-end metrics: every time is scaled to the reference host speed and
the median over repetitions is reported. With tracing on, further
repetitions run with spans around the program's public functions and give
the per-layer metrics. Every repetition's artifacts are checked against
the simulator's ground truth once all timing is done.
"""

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tatrack
from tatrack import cli, pipeline, sim
from tatrack.fingerprint import FingerprintDb

from perfbench import checks, hostspeed, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
RUN_PY = Path(__file__).resolve().parent / "run.py"

if Path(tatrack.__file__).resolve().parent != ROOT / "src" / "tatrack":
    raise ImportError(f"tatrack imported from {tatrack.__file__}, "
                      f"not from this checkout")

#: Repetitions made even when the requested seconds run out sooner.
MIN_REPS = 3
#: Traced repetitions; the faster gives the per-layer metrics.
TRACED_REPS = 2
#: Fresh processes timed from start to ready; setup_s is their median.
SETUP_SAMPLES = 7
#: Repetition seeds of run seed n start at n * SEEDS_PER_RUN.
SEEDS_PER_RUN = 1000

#: Artifacts the checks never read, removed as soon as a repetition ends.
_UNCHECKED = ("events_*.jsonl", "ground_truth.csv", "traces.csv",
              "connection_stats.csv", "stats.csv", "errors.csv",
              "summary.csv", "extraction.jsonl")


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


def prepare(workload: str, seed: int, work_dir: Path) -> Path:
    """Write the workload's scenario file and check that tatrack accepts it.

    Everything up to here (interpreter start, imports, this function) is
    what ``setup_s`` times.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "replication":
        path = ROOT / "scenarios" / "replication.json"
    else:
        make_scenario = getattr(workloads, workload)
        path = work_dir / f"{workload}.json"
        path.write_text(json.dumps(make_scenario(seed), indent=1) + "\n",
                        encoding="utf-8")
    try:
        sim.load_scenario(path).validate(FingerprintDb.default())
    except (OSError, sim.ScenarioError) as exc:
        raise BenchError(f"scenario {path}: {exc}") from exc
    return path


def _child(workload: str, seed: int, flag: str, work_dir: Path) -> float:
    """Run this benchmark in a fresh process; return the number it prints."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), flag, str(work_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{flag} process failed: {proc.stderr.strip()}")
    shutil.rmtree(work_dir)
    return float(proc.stdout.split()[-1])


def _setup_sample(workload: str, seed: int, work_dir: Path) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready."""
    start = time.monotonic()
    return _child(workload, seed, "--setup-only", work_dir) - start


def peak_rss_mb(workload: str, seed: int, work_dir: Path) -> float:
    """Peak RSS of this process after set-up and one repetition.

    Run in a fresh process, so that neither the calibration load nor the
    other repetitions' leftovers count. The peak is read as ``VmHWM``:
    ``ru_maxrss`` would carry over the parent's size from before ``exec``.
    """
    path = prepare(workload, seed, work_dir)
    repetition(path, seed * SEEDS_PER_RUN, work_dir)
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc/self/status")


@dataclass
class Rep:
    seed: int
    out_dir: Path
    wall_s: float
    write_bytes: int
    write_files: int
    tracer: Optional[tracing.Tracer] = None
    ctx: Optional[pipeline.RunContext] = None


def repetition(path: Path, seed: int, work_dir: Path,
               tracer: Optional[tracing.Tracer] = None) -> Rep:
    out_dir = work_dir / f"rep_{seed}"
    argv = ["run", "--scenario", str(path), "--out", str(out_dir),
            "--seed", str(seed)]
    captured = []
    if tracer is not None:
        original = pipeline.run_pipeline

        def keep_context(*args, **kwargs):
            ctx = original(*args, **kwargs)
            captured.append(ctx)
            return ctx

        tracer.replace(original, keep_context)
        tracer.install()
    gc.collect()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        raise BenchError(f"tatrack run exited {code} on seed {seed}")
    files = [p for p in out_dir.iterdir() if p.is_file()]
    rep = Rep(seed=seed, out_dir=out_dir, wall_s=wall_s,
              write_bytes=sum(p.stat().st_size for p in files),
              write_files=len(files), tracer=tracer,
              ctx=captured[0] if captured else None)
    for pattern in _UNCHECKED:
        for p in out_dir.glob(pattern):
            p.unlink()
    return rep


def verify(scenario: sim.Scenario, rep: Rep) -> checks.Verdict:
    truth = checks.truth_of(sim.run(dataclasses.replace(scenario,
                                                        seed=rep.seed)))
    outputs = checks.read_outputs(rep.out_dir, truth.exact_sum_probes)
    shutil.rmtree(rep.out_dir)
    return checks.verify(truth, outputs)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run_s, verdicts, setup_s, peak_rss_mb) -> dict:
    errors = [e for v in verdicts for e in v.errors_m.values()]
    if len(errors) < 2:
        raise BenchError("fewer than two localized connections")
    return {
        "run_s": _metric(statistics.median(run_s), "s"),
        "conn_per_s": _metric(statistics.median(
            v.localized / t for v, t in zip(verdicts, run_s)), "conn/s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "loc_err_p50_m": _metric(statistics.median(errors), "m"),
        "loc_err_p90_m": _metric(_p90(errors), "m"),
    }


def per_layer(rep: Rep, overhead_s: float) -> dict:
    spans = rep.tracer.stats()
    empty = tracing.SpanStats()

    def calls(name):
        return spans.get(name, empty).calls

    def self_s(name):
        return spans.get(name, empty).self_s

    def rate(count, name):
        total = spans.get(name, empty).total_s
        return count / total if total > 0 else 0.0

    ctx = rep.ctx
    tables = ctx.tables.values()
    measurements = sum(len(r.measurements) for t in tables
                       for r in t.records)
    dropped = sum(t.dropped_uplinks for t in tables)
    events = sum(len(v) for v in ctx.result.events.values())
    out = {f"stage.{stage}_s": _metric(
        spans.get(f"stage.{stage}", empty).total_s, "s")
        for stage in pipeline.STAGES + ("write",)}
    out.update({
        "geometry.solves": _metric(calls("geometry.solve"), "count"),
        "geometry.solve_s": _metric(self_s("geometry.solve"), "s"),
        "geometry.solves_per_s": _metric(
            rate(calls("geometry.solve"), "geometry.solve"), "1/s"),
        "geometry.intersect_calls": _metric(calls("geometry.intersect"),
                                            "count"),
        "geometry.intersect_s": _metric(self_s("geometry.intersect"), "s"),
        "probe.ingest_calls": _metric(calls("probe.ingest"), "count"),
        "probe.ingest_s": _metric(self_s("probe.ingest"), "s"),
        "probe.events_per_s": _metric(
            rate(calls("probe.ingest"), "probe.ingest"), "1/s"),
        "probe.records": _metric(sum(len(t.records) for t in tables),
                                 "count"),
        "probe.measurements": _metric(measurements, "count"),
        "probe.dropped_uplinks": _metric(dropped, "count"),
        "probe.meas_per_uplink": _metric(
            measurements / max(1, measurements + dropped), "ratio"),
        "sim.events": _metric(events, "count"),
        "sim.run_s": _metric(self_s("sim.run"), "s"),
        "sim.events_per_s": _metric(rate(events, "sim.run"), "1/s"),
        "messages.encode_calls": _metric(calls("messages.encode"), "count"),
        "messages.encode_s": _metric(self_s("messages.encode"), "s"),
        "write.bytes": _metric(rep.write_bytes, "B"),
        "write.files": _metric(rep.write_files, "count"),
        "extractor.step_calls": _metric(calls("extractor.step"), "count"),
        "extractor.step_s": _metric(self_s("extractor.step"), "s"),
        "extractor.pairs": _metric(len(ctx.result.attacker_pairs), "count"),
        "tracker.ingest_calls": _metric(calls("tracker.ingest"), "count"),
        "tracker.ingest_s": _metric(self_s("tracker.ingest"), "s"),
        "tracker.stats_calls": _metric(calls("tracker.stats"), "count"),
        "tracker.stats_s": _metric(self_s("tracker.stats"), "s"),
        "tracker.build_trace_s": _metric(self_s("tracker.build_trace"), "s"),
        "fingerprint.classify_calls": _metric(
            calls("fingerprint.classify"), "count"),
        "fingerprint.classify_s": _metric(self_s("fingerprint.classify"),
                                          "s"),
        "trace.overhead_s": _metric(overhead_s, "s"),
    })
    return out


class _Timer:
    """Times steps between calibrations and scales them to the reference.

    Each step's wall time is divided by the mean of the calibrations just
    before and just after it, then multiplied by ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.calibrations = [hostspeed.calibrate()]

    def normalized(self, wall_s: float) -> float:
        self.calibrations.append(hostspeed.calibrate())
        speed = (self.calibrations[-2] + self.calibrations[-1]) / 2
        return wall_s * hostspeed.REFERENCE_S / speed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = OUT_ROOT / workload
    if work_dir.exists():
        shutil.rmtree(work_dir)
    path = prepare(workload, seed, work_dir)
    scenario = sim.load_scenario(path)
    timer = _Timer()
    setup_s = [timer.normalized(_setup_sample(workload, seed,
                                              work_dir / f"setup_{k}"))
               for k in range(0 if trace else SETUP_SAMPLES)]

    seeds = itertools.count(seed * SEEDS_PER_RUN)
    reps, run_s = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(repetition(path, next(seeds), work_dir))
        run_s.append(timer.normalized(reps[-1].wall_s))
    traced, traced_s = [], []
    for _ in range(TRACED_REPS if trace else 0):
        traced.append(repetition(path, next(seeds), work_dir,
                                 tracing.Tracer()))
        traced_s.append(timer.normalized(traced[-1].wall_s))

    verdicts = [verify(scenario, rep) for rep in reps + traced]
    stray = [s for v in verdicts for s in v.stray]
    for line in stray[:10]:
        print(f"stray: {line}", file=sys.stderr)
    for v in verdicts:
        for conn_id, reason in sorted(v.failures.items())[:10]:
            print(f"failed: {conn_id}: {reason}", file=sys.stderr)

    if trace:
        faster = min(traced, key=lambda r: r.wall_s)
        faster.tracer.write(work_dir / "spans.csv")
        metrics = per_layer(faster, statistics.median(traced_s)
                            - statistics.median(run_s))
        metrics["host.calibration_s"] = _metric(
            statistics.median(timer.calibrations), "s")
        metrics["host.fastest_wall_s"] = _metric(
            min(r.wall_s for r in reps), "s")
    else:
        rss_mb = _child(workload, seed, "--peak-rss", work_dir / "rss")
        metrics = end_to_end(run_s, verdicts[:len(reps)], setup_s, rss_mb)
    return {
        "correct": not stray,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": metrics,
    }
